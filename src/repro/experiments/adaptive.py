"""Adaptive fetch-policy scheduling: tournament vs. static best vs. oracle.

The paper picks one fetch policy per machine and keeps it for the whole
run.  PR 7 makes the policy a per-interval input, which raises the
natural question this table answers: *how much ISPI is left on the table
by committing to one policy up front?*

Three rows of evidence per benchmark:

* the best **static** policy, chosen in hindsight over the realizable
  four (Optimistic, Resume, Pessimistic, Decode) — the paper's regime;
* the **tournament** meta-controller, which runs shadow simulations of
  the non-incumbent candidates each interval and switches (with
  hysteresis) when a challenger's smoothed ISPI estimate beats the
  incumbent's — realizable online, charged for its switches;
* the per-interval **oracle**, which re-simulates every interval under
  every candidate from the same warm state and keeps the best — an upper
  bound no online controller can beat.

``gap = tournament - oracle`` is the headroom the controller leaves
unclaimed; ``oracle - static best`` is the intrinsic value of switching
at all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import replace

from repro.config import REALIZABLE_POLICIES, FetchPolicy, SimConfig
from repro.core.runner import SimulationRunner
from repro.experiments.base import ExperimentResult, planned
from repro.program.workloads import SUITE
from repro.report.format import Table, average_label, mean

#: Default interval length (measured instructions between policy
#: decisions).  Short enough for several boundaries inside the default
#: trace length, long enough that per-interval ISPI is not pure noise.
DEFAULT_INTERVAL = 2_000


def _static_best(
    results: dict[FetchPolicy, object],
    policies: Sequence[FetchPolicy],
) -> tuple[FetchPolicy | None, float]:
    """The hindsight-best static policy and its ISPI (NaN-safe)."""
    best_policy: FetchPolicy | None = None
    best = float("nan")
    for policy in policies:
        ispi = results[policy].total_ispi
        if math.isnan(ispi):
            continue
        if best_policy is None or ispi < best:
            best_policy, best = policy, ispi
    return best_policy, best


@planned
def run_adaptive(
    runner: SimulationRunner,
    benchmarks: Sequence[str] = SUITE,
    interval: int = DEFAULT_INTERVAL,
    base_config: SimConfig | None = None,
) -> ExperimentResult:
    """Compare static-best, tournament, and per-interval-oracle ISPI.

    *base_config* overrides the paper's baseline before the scheduling
    knobs are applied on top (used by tests to shrink the candidate set
    or change hysteresis).
    """
    base = SimConfig() if base_config is None else base_config
    policies = base.adaptive_policies or REALIZABLE_POLICIES
    headers = [
        "Program",
        *(p.label for p in policies),
        "Static best",
        "Tournament",
        "Switches",
        "Oracle",
        "Tour-Oracle gap",
    ]
    table = Table(
        headers=headers,
        title=(
            "Adaptive policy scheduling: static best vs. tournament vs. "
            f"per-interval oracle (interval = {interval} instructions)"
        ),
    )
    tournament_cfg = replace(
        base, policy_schedule="tournament", adaptive_interval=interval
    )
    oracle_cfg = replace(
        base, policy_schedule="oracle", adaptive_interval=interval
    )
    data: dict[str, dict[str, float]] = {}
    for name in benchmarks:
        statics = runner.run_policies(name, base, policies)
        best_policy, best = _static_best(statics, policies)
        tournament = runner.run(name, tournament_cfg)
        oracle = runner.run(name, oracle_cfg)
        t_ispi = tournament.total_ispi
        o_ispi = oracle.total_ispi
        switches = tournament.metadata.get("policy_switches", 0)
        data[name] = {
            **{p.value: statics[p].total_ispi for p in policies},
            "static_best": best,
            "tournament": t_ispi,
            "oracle": o_ispi,
            "gap": t_ispi - o_ispi,
        }
        data[name]["switches"] = float(switches)
        data[name]["static_best_policy"] = (
            best_policy.value if best_policy is not None else ""
        )
        table.add_row(
            name,
            *(statics[p].total_ispi for p in policies),
            best,
            t_ispi,
            int(switches),
            o_ispi,
            t_ispi - o_ispi,
        )
    table.add_separator()
    numeric = {
        name: {k: v for k, v in cells.items() if isinstance(v, float)}
        for name, cells in data.items()
    }
    table.add_row(
        average_label(numeric),
        *(mean(d[p.value] for d in numeric.values()) for p in policies),
        mean(d["static_best"] for d in numeric.values()),
        mean(d["tournament"] for d in numeric.values()),
        int(sum(d["switches"] for d in numeric.values())),
        mean(d["oracle"] for d in numeric.values()),
        mean(d["gap"] for d in numeric.values()),
    )
    return ExperimentResult(
        experiment_id="adaptive",
        title="Adaptive fetch-policy scheduling",
        paper_ref="beyond the paper (PR 7)",
        tables=[table],
        data={"per_benchmark": data, "interval": interval},
        notes=(
            "The oracle greedily minimises each interval's penalty from "
            "shared warm state — expect it at or below the best static "
            "policy.  The tournament is realizable (shadow estimators "
            "only look backwards) and should recover part of that win."
        ),
    )
