"""Branch target buffer.

The paper's BTB is a 64-entry, 4-way set-associative cache of the targets
of recently *taken* branches, updated speculatively at decode.  It serves
two purposes in the front end:

* identifying an instruction as a branch at fetch time (a BTB miss on a
  taken branch is a *misfetch*: the fall-through is fetched until decode);
* supplying the target address (a stale target for a return/indirect call
  is a *mispredict*).

We support the decoupled organisation the paper simulates (direction comes
from a separate PHT for every conditional branch) and, as an ablation, the
coupled organisation (Pentium-style: direction counters live in the BTB
entry, so only BTB-resident branches get dynamic prediction).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.isa import INSTRUCTION_SIZE


@dataclass(slots=True)
class BTBEntry:
    """One BTB way: tag, target, and (coupled designs only) a counter."""

    tag: int
    target: int
    counter: int


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement.

    Only taken branches are inserted (:meth:`insert` is called by the
    engine at decode for predicted-taken branches, matching the paper's
    speculative-update policy).
    """

    def __init__(
        self,
        entries: int = 64,
        assoc: int = 4,
        counter_bits: int = 2,
    ) -> None:
        if entries < 1 or assoc < 1:
            raise ConfigError("BTB entries and associativity must be >= 1")
        if entries % assoc:
            raise ConfigError(f"{entries} entries not divisible by {assoc} ways")
        n_sets = entries // assoc
        if n_sets & (n_sets - 1):
            raise ConfigError(f"BTB set count {n_sets} must be a power of two")
        if counter_bits < 1:
            raise ConfigError("BTB counter needs >= 1 bit")
        self.entries = entries
        self.assoc = assoc
        self.n_sets = n_sets
        self.set_mask = n_sets - 1
        self._tag_shift = n_sets.bit_length() - 1
        self.counter_max = (1 << counter_bits) - 1
        self.counter_threshold = 1 << (counter_bits - 1)
        self.counter_init = self.counter_threshold  # weakly taken: it was taken once
        # Each set is a list of BTBEntry in LRU order (index 0 = LRU),
        # with the entries' instruction words (pc // INSTRUCTION_SIZE,
        # which identify a branch as well as set + tag) in a parallel
        # list, so finding a branch is one C-level list search.
        self._sets: list[list[BTBEntry]] = [[] for _ in range(n_sets)]
        self._words: list[list[int]] = [[] for _ in range(n_sets)]
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def _locate(self, pc: int) -> tuple[int, int]:
        """``(set index, instruction word)`` of the branch at *pc*."""
        word = pc // INSTRUCTION_SIZE
        return word & self.set_mask, word

    def touch(self, set_idx: int, word: int) -> BTBEntry | None:
        """The entry for instruction *word* in set *set_idx*, moved to
        the MRU end of its set, or None; counts nothing (the lookup rule
        without its statistics)."""
        words = self._words[set_idx]
        if word not in words:
            return None
        ways = self._sets[set_idx]
        i = words.index(word)
        entry = ways[i]
        if words[-1] != word:
            del words[i]
            words.append(word)
            del ways[i]
            ways.append(entry)
        return entry

    def lookup(self, pc: int) -> BTBEntry | None:
        """Probe for *pc*; a hit refreshes LRU and returns the entry."""
        entry = self.touch(*self._locate(pc))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def peek(self, pc: int) -> BTBEntry | None:
        """Probe without touching LRU state or statistics.

        Used by the wrong-path walker, whose speculative probes must not
        perturb the predictor (the paper's machine reads the BTB on the
        wrong path too, but modelling that second-order effect would make
        runs non-reproducible across policies; see DESIGN.md)."""
        set_idx, word = self._locate(pc)
        words = self._words[set_idx]
        if word in words:
            return self._sets[set_idx][words.index(word)]
        return None

    def insert(self, pc: int, target: int) -> BTBEntry:
        """Insert/refresh the entry for a taken branch (decode-time update)."""
        set_idx, word = self._locate(pc)
        entry = self.touch(set_idx, word)
        if entry is None:
            return self.install(set_idx, word, target)
        entry.target = target
        return entry

    def install(self, set_idx: int, word: int, target: int) -> BTBEntry:
        """Add a new MRU entry for instruction *word*, which must be
        absent from set *set_idx*, evicting the set's LRU entry when the
        set is full."""
        ways = self._sets[set_idx]
        words = self._words[set_idx]
        if len(ways) >= self.assoc:
            del ways[0]  # evict LRU
            del words[0]
            self.evictions += 1
        entry = BTBEntry(word >> self._tag_shift, target, self.counter_init)
        ways.append(entry)
        words.append(word)
        self.insertions += 1
        return entry

    def update_counter(self, pc: int, taken: bool) -> None:
        """Resolve-time direction update for *coupled* designs."""
        entry = self.peek(pc)
        if entry is not None:
            if taken:
                if entry.counter < self.counter_max:
                    entry.counter += 1
            elif entry.counter > 0:
                entry.counter -= 1

    def counter_predicts_taken(self, entry: BTBEntry) -> bool:
        """Direction prediction from a coupled entry's counter."""
        return entry.counter >= self.counter_threshold

    def reset(self) -> None:
        """Empty the BTB and clear statistics."""
        self._sets = [[] for _ in range(self.n_sets)]
        self._words = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def __contains__(self, pc: int) -> bool:
        return self.peek(pc) is not None
