"""SIM010: branch units are constructed only through the factory seam.

Prediction-stream replay (``repro.branch.stream``) works because every
simulation obtains its branch unit through ``build_branch_unit``, the
one seam where a recorded stream can be substituted for the live
predictor.  A ``BranchUnit(...)`` (or ``ReplayBranchUnit(...)``)
constructed directly anywhere else silently bypasses that seam: the
cell runs live even when a stream was requested, and replay coverage
quietly erodes.  This rule flags direct constructions in every linted
module (the package, tools, benchmarks and examples alike) outside the
two sanctioned factories (``build_branch_unit`` and
``make_paper_branch_unit``).  A helper that wraps a construction cannot
hide it: the construction itself sits outside a factory, so it is
flagged where it stands.
"""

from __future__ import annotations

from repro.lint.registry import register
from repro.lint.rules.seam import SeamRule


@register
class BranchSeamRule(SeamRule):
    id = "SIM010"
    name = "branch-seam"
    description = (
        "branch units are constructed only inside build_branch_unit / "
        "make_paper_branch_unit (the prediction-stream replay seam)"
    )
    classes = frozenset({"BranchUnit", "ReplayBranchUnit"})
    #: The seam itself and the paper-parameter convenience factory it
    #: delegates to.
    factories = frozenset({"build_branch_unit", "make_paper_branch_unit"})
    message = (
        "direct {cls}(...) construction bypasses the replay seam; obtain "
        "branch units through build_branch_unit (or make_paper_branch_unit)"
    )
