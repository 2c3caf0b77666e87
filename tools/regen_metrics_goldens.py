"""Regenerate the golden metrics snapshots under tests/goldens/.

One small, fixed-seed, warmup-free run per fetch policy; the deterministic
``MetricsRegistry.as_dict`` snapshot is written as pretty-printed JSON.
The regression test (tests/core/test_golden_metrics.py) replays the same
spec and compares byte-for-byte.

Regenerate (only after an intentional behaviour change) with:

    PYTHONPATH=src python tools/regen_metrics_goldens.py

and review the diff before committing.  The tool then prints the
goldens' digest: copy it into ``ENGINE_SEMANTICS`` in
``src/repro/core/store.py`` so stored results from the old engine stop
matching (``tests/core/test_golden_metrics.py`` fails until you do).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig  # noqa: E402
from repro.core.engine import build_engine, simulate  # noqa: E402
from repro.core.runner import SimulationRunner  # noqa: E402
from repro.obs import Observer  # noqa: E402

#: The golden run spec.  Warmup must stay 0: the prefetch partition
#: invariant is exact only for warmup-free runs.
BENCHMARK = "li"
TRACE_LENGTH = 8_000
SEED = 42
WARMUP = 0

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tests", "goldens"
)


def golden_config(policy: FetchPolicy) -> SimConfig:
    """The configuration snapshotted for *policy*."""
    return SimConfig(policy=policy, prefetch=True)


def golden_metrics(policy: FetchPolicy) -> dict:
    """Run the golden spec for *policy* and return the metrics snapshot."""
    runner = SimulationRunner(
        trace_length=TRACE_LENGTH, warmup=WARMUP, seed=SEED
    )
    run = runner.prepared(BENCHMARK)
    observer = Observer()
    simulate(
        run.program,
        run.trace,
        golden_config(policy),
        warmup=WARMUP,
        observer=observer,
    )
    return observer.metrics_dict()


def golden_path(policy: FetchPolicy) -> str:
    return os.path.join(GOLDEN_DIR, f"metrics_{policy.name.lower()}.json")


def goldens_digest() -> str:
    """sha256 of every ``metrics_*.json`` golden, concatenated in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.startswith("metrics_") and name.endswith(".json"):
            with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _metrics_hash(metrics: dict) -> str:
    canonical = json.dumps(metrics, indent=2, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parity_config(policy: FetchPolicy) -> SimConfig:
    """The replay-eligible variant of the golden spec for *policy*.

    The golden config itself (timing schedule + prefetch) is
    vector-ineligible by design, so backend parity is asserted on its
    nearest eligible sibling: same policy, architectural branch
    schedule, prefetch off.
    """
    from dataclasses import replace

    return replace(
        golden_config(policy), prefetch=False, branch_schedule="architectural"
    )


def verify_backend_parity() -> None:
    """Assert both engine backends hash-identically on the golden spec.

    Runs the replay-eligible variant of every policy's golden config
    through ``engine_backend="event"`` and ``"auto"`` (which picks the
    vector backend, given the stream) and compares the sha256 of the
    canonical metrics JSON — the same serialization the
    goldens use, so there is never a second golden set to keep in sync.
    """
    from dataclasses import replace

    from repro.branch.stream import build_stream
    from repro.core.vector import vector_eligible

    runner = SimulationRunner(
        trace_length=TRACE_LENGTH, warmup=WARMUP, seed=SEED
    )
    run = runner.prepared(BENCHMARK)
    for policy in ALL_POLICIES:
        config = parity_config(policy)
        assert vector_eligible(config), (
            f"parity_config({policy.name}) must be vector-eligible"
        )
        stream = build_stream(run.program, run.trace, config)
        hashes = {}
        for backend in ("event", "auto"):
            observer = Observer()
            engine = build_engine(
                run.program,
                replace(config, engine_backend=backend),
                observer=observer,
                stream=stream,
            )
            engine.run(run.trace, warmup_instructions=WARMUP)
            snapshot = json.loads(json.dumps(observer.metrics_dict()))
            hashes[engine.backend] = _metrics_hash(snapshot)
        if set(hashes) != {"event", "vector"}:
            raise SystemExit(
                f"auto did not pick the vector backend for {policy.name}"
            )
        if hashes["event"] != hashes["vector"]:
            raise SystemExit(
                f"backend parity violated for {policy.name}: "
                f"event={hashes['event'][:16]} "
                f"vector={hashes['vector'][:16]}"
            )
        print(f"backend parity ok for {policy.name}: {hashes['event'][:16]}")


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    verify_backend_parity()
    for policy in ALL_POLICIES:
        path = golden_path(policy)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(golden_metrics(policy), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(path)}")
    print(f"ENGINE_SEMANTICS = {goldens_digest()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
