"""SIM011: engines are constructed only through the factory seam.

The vectorized batch backend (``repro.core.vector``) works because every
simulation obtains its engine through ``build_engine``, the one seam
where backend selection (``engine_backend="auto"`` picks the vector
backend exactly for a given stream, a vector-eligible config and no
enabled event sink), observer constraints and the adaptive driver's
schedules are all checked.  A ``FetchEngine(...)``,
``VectorEngine(...)`` or ``AdaptiveEngine(...)`` constructed directly
anywhere else silently bypasses that seam: the cell pins one backend
whatever that rule would choose, and the cross-backend differential
guarantees quietly erode.  The same seam
discipline covers the lowered state the engines run on: the
``FetchProgram`` and its ``FlatProbes`` (``repro.core.lowering``), a
stream's ``RecordedWalks`` (``repro.branch.stream``) and the vector
backend's ``TraceArrays`` (``repro.core.vector_kernels``) are memoized
read-only data shared across engines and the adaptive driver's forks,
and a direct construction launders a private un-memoized copy past that
sharing (and past the identity keying that makes it correct).  This
rule flags direct constructions in every linted module (the package,
tools, benchmarks and examples alike) outside the sanctioned factories
(``build_engine`` and the lowering factories ``fetch_program``,
``flat_probes``, ``recorded_walks`` and ``trace_arrays``).  A helper
that wraps a construction cannot hide it: the construction itself sits
outside a factory, so it is flagged where it stands.
"""

from __future__ import annotations

from repro.lint.registry import register
from repro.lint.rules.seam import SeamRule


@register
class EngineSeamRule(SeamRule):
    id = "SIM011"
    name = "engine-seam"
    description = (
        "engines are constructed only inside build_engine (the "
        "backend-selection seam)"
    )
    #: The engines themselves and the lowered state they run on.
    classes = frozenset(
        {
            "FetchEngine",
            "VectorEngine",
            "AdaptiveEngine",
            "FetchProgram",
            "FlatProbes",
            "RecordedWalks",
            "TraceArrays",
        }
    )
    #: The engine seam and the memoized lowering factories.
    factories = frozenset(
        {
            "build_engine",
            "fetch_program",
            "flat_probes",
            "recorded_walks",
            "trace_arrays",
        }
    )
    message = (
        "direct {cls}(...) construction bypasses the backend-selection "
        "seam; obtain engines through build_engine"
    )
