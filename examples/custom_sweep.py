"""Free-form parameter sweeps with the Sweep utility.

Run:  python examples/custom_sweep.py [benchmark]

Explores a configuration plane the paper never ran: fetch policy x miss
penalty, locating the latency at which the Resume/Pessimistic crossover
happens for one benchmark — the quantitative version of the paper's
"policy of choice depends on the latency" conclusion.  The sweep's 14
cells go to the runner as one batch, so they simulate on every core.
"""

from __future__ import annotations

import sys

from repro import FetchPolicy, SimConfig, SimulationRunner
from repro.experiments.sweeps import Sweep


def main(argv: list[str] | None = None, trace_length: int = 100_000) -> None:
    argv = sys.argv[1:] if argv is None else argv
    benchmark = argv[0] if argv else "li"
    runner = SimulationRunner(trace_length=trace_length)

    sweep = Sweep(
        base=SimConfig(),
        axes={
            "policy": [FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC],
            "miss_penalty_cycles": [2, 5, 8, 12, 16, 20, 30],
        },
        metrics=("total_ispi", "memory_accesses"),
    )
    points = sweep.run(runner, benchmarks=[benchmark])
    print(sweep.table(points, metric="total_ispi").render())

    # Locate the crossover.
    by_penalty: dict[int, dict[str, float]] = {}
    for point in points:
        penalty = point.parameter("miss_penalty_cycles")
        policy = point.parameter("policy").label
        by_penalty.setdefault(penalty, {})[policy] = point.metrics["total_ispi"]
    crossover = None
    for penalty in sorted(by_penalty):
        row = by_penalty[penalty]
        if row["Pess"] < row["Res"]:
            crossover = penalty
            break
    print()
    if crossover is None:
        print(f"{benchmark}: Resume wins at every tested latency.")
    else:
        print(f"{benchmark}: Pessimistic overtakes Resume at a miss "
              f"penalty of ~{crossover} cycles — the paper's two regimes, "
              "located.")


if __name__ == "__main__":
    main()
