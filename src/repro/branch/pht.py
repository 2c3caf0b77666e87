"""Pattern history tables (direction predictors).

Three indexing schemes from the paper's related-work lineage:

* :class:`BimodalPHT` — indexed by the branch address alone
  ([Smith 81]-style per-branch counters).
* :class:`GAgPHT` — indexed by the global history register alone
  (the "degenerate method" the paper describes).
* :class:`GsharePHT` — McFarling's scheme: XOR of global history and
  branch address.  **This is the paper's configuration** (512 entries,
  2-bit counters).

All PHTs separate *prediction* (index computed from a history snapshot at
fetch time) from *update* (applied at branch resolution, to the same index
that was used for the prediction).  The index is therefore returned to the
caller, which carries it through the unresolved-branch queue.
"""

from __future__ import annotations

from repro.branch.counters import CounterTable
from repro.errors import ConfigError
from repro.isa import INSTRUCTION_SIZE


class PatternHistoryTable:
    """Common interface of all direction predictors.

    Every scheme indexes its counters with one rule: the branch's
    instruction word (``pc // INSTRUCTION_SIZE``) masked by
    :attr:`pc_bits`, XOR the history masked by :attr:`history_bits`,
    masked to the table size.  A scheme keeps an input with an
    all-ones mask (-1) and drops it with 0.
    """

    #: Mask applied to the branch's instruction word (-1 keeps it).
    pc_bits = 0
    #: Mask applied to the global history (-1 keeps it).
    history_bits = 0

    def __init__(self, entries: int, counter_bits: int = 2) -> None:
        self.table = CounterTable(entries, bits=counter_bits)
        self.index_mask = entries - 1

    def index(self, pc: int, history: int) -> int:
        """Table index for branch at *pc* given a history snapshot."""
        return (
            ((pc // INSTRUCTION_SIZE) & self.pc_bits)
            ^ (history & self.history_bits)
        ) & self.index_mask

    def predict(self, pc: int, history: int) -> tuple[bool, int]:
        """Return ``(taken?, index)``; the index is needed for the update."""
        idx = self.index(pc, history)
        table = self.table
        # CounterTable.predict, inlined.
        return table.values[idx] >= table.threshold, idx

    def update(self, index: int, taken: bool) -> None:
        """Resolve-time counter update at the prediction-time index."""
        self.table.update(index, taken)

    def reset(self) -> None:
        """Clear all counters to weakly-not-taken."""
        self.table.reset()

    @property
    def entries(self) -> int:
        """Number of counters in the table."""
        return self.table.entries


class BimodalPHT(PatternHistoryTable):
    """Per-branch 2-bit counters, indexed by low PC bits."""

    pc_bits = -1


class GAgPHT(PatternHistoryTable):
    """Counters indexed purely by global history (two-level, degenerate)."""

    history_bits = -1


class GsharePHT(PatternHistoryTable):
    """McFarling gshare: history XOR branch address (the paper's PHT)."""

    pc_bits = -1
    history_bits = -1


_PHT_KINDS = {
    "bimodal": BimodalPHT,
    "gag": GAgPHT,
    "gshare": GsharePHT,
}


def make_pht(kind: str, entries: int, counter_bits: int = 2) -> PatternHistoryTable:
    """Factory by name: ``bimodal``, ``gag``, or ``gshare``."""
    try:
        cls = _PHT_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown PHT kind {kind!r}; expected one of {sorted(_PHT_KINDS)}"
        ) from None
    return cls(entries, counter_bits=counter_bits)
