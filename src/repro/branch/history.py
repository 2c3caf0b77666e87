"""Global branch history register.

The paper's PHT "waits until a branch is resolved before updating the
global history register", which is why its prediction accuracy *degrades*
with deeper speculation (Table 3): at prediction time the register is
missing the outcomes of the still-unresolved branches.  The branch unit
models this by shifting outcomes in only at branch resolution
(:meth:`~repro.branch.unit.BranchUnit.resolve` applies
:meth:`GlobalHistory.shift_in`'s rule inline).
"""

from __future__ import annotations

from repro.errors import ConfigError


class GlobalHistory:
    """A k-bit shift register of branch outcomes (1 = taken)."""

    __slots__ = ("bits", "mask", "value")

    def __init__(self, bits: int) -> None:
        if bits < 1:
            raise ConfigError(f"history needs >= 1 bit, got {bits}")
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.value = 0

    def shift_in(self, taken: bool) -> None:
        """Record one resolved outcome (most recent in bit 0)."""
        self.value = ((self.value << 1) | int(taken)) & self.mask

    def snapshot(self) -> int:
        """Current register contents (use at prediction time)."""
        return self.value

    def reset(self) -> None:
        """Clear the register."""
        self.value = 0

    def __repr__(self) -> str:
        return f"GlobalHistory(bits={self.bits}, value={self.value:#x})"
