"""Instruction cache model.

The paper simulates blocking, direct-mapped I-caches (8K and 32K) with
32-byte lines.  We implement a general set-associative cache with LRU so
associativity can be ablated; the direct-mapped configuration the paper
uses is its one-way case, stored in the same way-major layout (see
:class:`InstructionCache`).

Each resident line carries:

* a **first-reference bit**, set when the line is loaded and cleared on the
  first subsequent fetch from it — the trigger condition of the paper's
  "maximal fetchahead and first time referenced" next-line prefetcher;
* a **provenance** tag recording *why* the line was loaded (right-path
  demand, wrong-path fill, prefetch), used to account prefetch usefulness
  and wrong-path pollution.

Timing (when a fill completes, who waits for the bus) is owned by the
engine; the cache itself is a purely functional tag store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


class LineOrigin(enum.Enum):
    """Why a resident line was brought into the cache."""

    DEMAND_RIGHT = "demand_right"
    DEMAND_WRONG = "demand_wrong"
    PREFETCH = "prefetch"


_PREFETCH = LineOrigin.PREFETCH


def lower_way_slot(tags: list[int], set_idx: int, tag: int, n_sets: int) -> int:
    """Slot of *tag* among the non-MRU ways of *set_idx* in a way-major
    tag column (way *k* at slot ``k * n_sets + set_idx``), or -1."""
    for slot in range(set_idx + n_sets, len(tags), n_sets):
        if tags[slot] == tag:
            return slot
    return -1


def move_to_mru(columns, set_idx: int, slot: int, n_sets: int) -> None:
    """Move the line at *slot* to the MRU way of *set_idx* in every
    way-major column, shifting the ways above it down one."""
    for column in columns:
        moved = column[slot]
        column[set_idx + n_sets : slot + 1 : n_sets] = column[set_idx:slot:n_sets]
        column[set_idx] = moved


@dataclass(slots=True)
class CacheStats:
    """Access statistics (demand probes only; fills counted separately)."""

    probes: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    prefetch_hits: int = 0  # demand hits on lines whose origin is PREFETCH
    wrongpath_hits: int = 0  # demand hits on lines filled from a wrong path
    #: First demand hit per prefetched fill (each prefetch counted once).
    prefetch_used: int = 0
    #: Prefetched fills displaced before any demand hit consumed them.
    prefetch_evicted_unused: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per probe (0.0 when nothing was probed)."""
        return self.misses / self.probes if self.probes else 0.0


class InstructionCache:
    """Set-associative I-cache tag store with LRU replacement.

    Per-line state lives in four flat, **way-major** columns: way *k* of
    set *s* is slot ``k * n_sets + s``, way 0 is the MRU way and an empty
    slot holds tag -1.  A direct-mapped cache is the one-way case, and
    for every associativity slot ``line & set_mask`` is the MRU way, so
    an MRU hit is one list index (the engine's fast path inlines it) and
    only an MRU miss scans the lower ways.  Empty ways always trail the
    resident ones: a fill shifts the set down one way from the MRU end.
    """

    def __init__(
        self,
        size_bytes: int,
        line_size: int = 32,
        assoc: int = 1,
    ) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ConfigError(f"line size must be a power of two, got {line_size}")
        if size_bytes <= 0 or size_bytes % line_size:
            raise ConfigError(
                f"cache size {size_bytes} not a multiple of line size {line_size}"
            )
        n_lines = size_bytes // line_size
        if assoc < 1 or n_lines % assoc:
            raise ConfigError(
                f"{n_lines} lines not divisible into {assoc}-way sets"
            )
        n_sets = n_lines // assoc
        if n_sets & (n_sets - 1):
            raise ConfigError(f"set count {n_sets} must be a power of two")
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.assoc = assoc
        self.n_sets = n_sets
        self.set_mask = n_sets - 1
        self._set_shift = n_sets.bit_length() - 1
        self._n_slots = n_lines
        #: Offset of a set's LRU way from its MRU way.
        self._lru_offset = n_lines - n_sets
        self.reset()

    # -- lookup ---------------------------------------------------------------

    def contains(self, line: int) -> bool:
        """Tag check only — no statistics, no LRU update."""
        set_idx = line & self.set_mask
        tag = line >> self._set_shift
        tags = self._tags
        if tags[set_idx] == tag:
            return True
        return self.assoc > 1 and lower_way_slot(tags, set_idx, tag, self.n_sets) >= 0

    def probe(self, line: int) -> bool:
        """Demand access: returns hit?, updates statistics and LRU."""
        stats = self.stats
        stats.probes += 1
        stats.hits += 1
        return self.probe_credited(line)

    def probe_credited(self, line: int) -> bool:
        """:meth:`probe` for a caller that has already counted this probe
        in ``stats.probes`` and ``stats.hits`` (the event loop credits a
        whole span's probes at once): a miss moves it from hits to
        misses."""
        set_idx = line & self.set_mask
        tag = line >> self._set_shift
        tags = self._tags
        if tags[set_idx] != tag:
            slot = (
                lower_way_slot(tags, set_idx, tag, self.n_sets)
                if self.assoc > 1
                else -1
            )
            if slot < 0:
                stats = self.stats
                stats.hits -= 1
                stats.misses += 1
                return False
            move_to_mru(self._columns, set_idx, slot, self.n_sets)
        origin = self._origins[set_idx]
        if origin is LineOrigin.PREFETCH:
            stats = self.stats
            stats.prefetch_hits += 1
            if self._pf_fresh[set_idx]:
                self._pf_fresh[set_idx] = False
                stats.prefetch_used += 1
        elif origin is LineOrigin.DEMAND_WRONG:
            self.stats.wrongpath_hits += 1
        return True

    # -- fill -----------------------------------------------------------------

    def fill(self, line: int, origin: LineOrigin) -> None:
        """Install *line* as MRU; sets the first-reference bit; evicts LRU.

        A refill of a resident line (e.g. a racing prefetch) refreshes it
        in place of an eviction.
        """
        stats = self.stats
        stats.fills += 1
        set_idx = line & self.set_mask
        tag = line >> self._set_shift
        tags = self._tags
        resident = tags[set_idx]
        if resident != tag:
            if self.assoc == 1:
                if resident != -1:
                    stats.evictions += 1
            else:
                slot = lower_way_slot(tags, set_idx, tag, self.n_sets)
                if slot < 0:
                    slot = set_idx + self._lru_offset
                    if tags[slot] != -1:
                        stats.evictions += 1
                move_to_mru(self._columns, set_idx, slot, self.n_sets)
        pf_fresh = self._pf_fresh
        if pf_fresh[set_idx]:
            # The displaced (or refilled) line was a prefetch that no
            # demand fetch ever consumed.
            stats.prefetch_evicted_unused += 1
        tags[set_idx] = tag
        self._first_ref[set_idx] = True
        self._origins[set_idx] = origin
        pf_fresh[set_idx] = origin is _PREFETCH

    # -- first-reference bit (prefetch trigger) --------------------------------

    def test_and_clear_first_ref(self, line: int) -> bool:
        """If *line* is resident with its first-ref bit set: clear it and
        return True (i.e. "this fetch should trigger a next-line prefetch")."""
        slot = line & self.set_mask
        tag = line >> self._set_shift
        if self._tags[slot] != tag:
            if self.assoc == 1:
                return False
            slot = lower_way_slot(self._tags, slot, tag, self.n_sets)
            if slot < 0:
                return False
        if self._first_ref[slot]:
            self._first_ref[slot] = False
            return True
        return False

    def consume_prefetch(self, line: int) -> None:
        """Mark a resident prefetched *line* as used without counting it.

        Called when a prefetched fill is consumed through a channel the
        demand-probe accounting cannot see (an in-flight merge, a stream-
        buffer install), so the usefulness partition counts it exactly
        once.
        """
        slot = line & self.set_mask
        tag = line >> self._set_shift
        if self._tags[slot] != tag:
            if self.assoc == 1:
                return
            slot = lower_way_slot(self._tags, slot, tag, self.n_sets)
            if slot < 0:
                return
        self._pf_fresh[slot] = False

    def fresh_prefetch_count(self) -> int:
        """Resident prefetched lines no demand fetch has consumed yet."""
        return sum(self._pf_fresh)

    # -- observability ---------------------------------------------------------

    def publish_metrics(self, registry, prefix: str = "cache") -> None:
        """Publish access statistics into a metrics registry."""
        stats = self.stats
        registry.inc(f"{prefix}.probes", stats.probes)
        registry.inc(f"{prefix}.hits", stats.hits)
        registry.inc(f"{prefix}.misses", stats.misses)
        registry.inc(f"{prefix}.fills", stats.fills)
        registry.inc(f"{prefix}.evictions", stats.evictions)
        registry.inc(f"{prefix}.prefetch_hits", stats.prefetch_hits)
        registry.inc(f"{prefix}.wrongpath_hits", stats.wrongpath_hits)
        registry.inc(f"{prefix}.prefetch_used", stats.prefetch_used)
        registry.inc(
            f"{prefix}.prefetch_evicted_unused", stats.prefetch_evicted_unused
        )

    def reset(self) -> None:
        """Empty the cache and clear statistics."""
        n_slots = self._n_slots
        self._tags: list[int] = [-1] * n_slots
        self._first_ref: list[bool] = [False] * n_slots
        self._origins: list[LineOrigin | None] = [None] * n_slots
        self._pf_fresh: list[bool] = [False] * n_slots
        self._columns = (self._tags, self._first_ref, self._origins, self._pf_fresh)
        self.stats = CacheStats()

    def resident_lines(self) -> set[int]:
        """The set of currently resident line numbers (diagnostics)."""
        set_mask = self.set_mask
        shift = self._set_shift
        return {
            (tag << shift) | (slot & set_mask)
            for slot, tag in enumerate(self._tags)
            if tag != -1
        }

    def __repr__(self) -> str:
        return (
            f"InstructionCache(size={self.size_bytes}, line={self.line_size}, "
            f"assoc={self.assoc})"
        )
