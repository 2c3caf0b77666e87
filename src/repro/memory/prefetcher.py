"""Instruction prefetching (§3 and §2.2 of the paper).

The paper's own prefetcher is **next-line, maximal fetchahead, first time
referenced** ("tagged" in Smith's terminology): when a line is loaded its
first-reference bit is set; the first subsequent fetch from it clears the
bit and prefetches the next sequential line, provided that line is absent
and the channel is free.  Prefetched lines install with their bit set, so
a sequential stream keeps prefetching ahead of itself.

Three further §2.2 variants are provided for ablation:

* ``always``  — every fetched line triggers a next-line attempt
  (Smith 82's unconditional prefetch);
* ``on-miss`` — only demand fills trigger the next-line attempt
  (Smith 82's prefetch-on-miss);
* ``fetchahead`` — the Smith & Hsu 92 trigger: prefetch line *i+1* when
  fetch comes within ``fetchahead_distance`` instructions of the end of
  line *i* (re-arming on every traversal, not just the first).

And, from the Smith & Hsu / Pierce & Mudge lineage, **target prefetching**
(:meth:`prefetch_target`): the engine may request a prefetch of the cache
line holding the *other* arm of a conditional branch — the path the
prediction did not follow.

All prefetches ride the background fill station, as the paper intends
("handled as in Resume").
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cache.icache import InstructionCache
from repro.errors import ConfigError
from repro.memory.bus import MemoryBus
from repro.memory.pending import FillOrigin, PendingFillStation
from repro.obs.events import PrefetchIssue

#: Valid next-line trigger variants.
VARIANTS = ("tagged", "always", "on-miss", "fetchahead")

#: Fill-time provider: a fixed slot count, or a per-line callable (used
#: when a second-level cache makes latencies line-dependent).
FillDuration = int | Callable[[int], int]


def _as_duration_fn(duration: FillDuration) -> Callable[[int], int]:
    if callable(duration):
        return duration
    return lambda line: duration


class NextLinePrefetcher:
    """Trigger and issue logic for sequential and target prefetching."""

    __slots__ = (
        "cache",
        "bus",
        "station",
        "fill_duration",
        "issued",
        "target_issued",
        "suppressed",
        "sink",
        "on_line_fetch",
        "on_demand_fill",
        "on_line_end_near",
    )

    def __init__(
        self,
        cache: InstructionCache,
        bus: MemoryBus,
        station: PendingFillStation,
        penalty_slots: FillDuration,
        variant: str = "tagged",
        next_line_enabled: bool = True,
        sink=None,
    ) -> None:
        if variant not in VARIANTS:
            raise ConfigError(
                f"unknown prefetch variant {variant!r}; expected one of {VARIANTS}"
            )
        self.cache = cache
        self.bus = bus
        self.station = station
        self.fill_duration = _as_duration_fn(penalty_slots)
        self.issued = 0
        self.target_issued = 0
        self.suppressed = 0
        self.sink = sink
        # The next-line triggers, ``hook(line, now)``, resolved once: on
        # every fetch that hits *line*, right after a demand fill of it,
        # and when fetch nears its end (fetchahead).  ``None`` where the
        # variant has none, so the engine makes no call.
        self.on_line_fetch = self.on_demand_fill = self.on_line_end_near = None
        if next_line_enabled:
            if variant == "tagged":
                self.on_line_fetch = self._on_tagged_fetch
            elif variant == "always":
                self.on_line_fetch = self._trigger
            elif variant == "on-miss":
                self.on_demand_fill = self._trigger
            else:
                self.on_line_end_near = self._trigger

    # -- shared issue path -----------------------------------------------------

    def _try_issue(self, candidate: int, now: int, kind: str = "next_line") -> bool:
        """Issue a prefetch of *candidate* if resources allow."""
        self.station.drain(now, self.cache)
        if self.cache.contains(candidate) or self.station.matches(candidate):
            return False
        if self.station.busy(now) or not self.bus.is_free(now):
            # The paper's prefetcher only fires when the channel is free.
            self.suppressed += 1
            return False
        _, done = self.bus.request(now, self.fill_duration(candidate))
        self.station.start(candidate, done, FillOrigin.PREFETCH)
        if self.sink is not None:
            self.sink.emit(
                PrefetchIssue(t=now, line=candidate, kind=kind, done=done)
            )
        return True

    # -- next-line triggers ------------------------------------------------------

    def _trigger(self, line: int, now: int) -> None:
        """Try to prefetch the line after *line*."""
        if self._try_issue(line + 1, now):
            self.issued += 1

    def _on_tagged_fetch(self, line: int, now: int) -> None:
        """The tagged trigger: the first fetch from *line* since it was
        loaded (its first-reference bit, cleared here) triggers."""
        if self.cache.test_and_clear_first_ref(line) and self._try_issue(
            line + 1, now
        ):
            self.issued += 1

    # -- target prefetching --------------------------------------------------------

    def prefetch_target(self, line: int, now: int) -> None:
        """Prefetch the line holding a branch's not-followed arm."""
        if self._try_issue(line, now, kind="target"):
            self.target_issued += 1

    def publish_metrics(self, registry, prefix: str = "prefetch") -> None:
        """Publish prefetch trigger/issue counters into a registry."""
        registry.inc(f"{prefix}.issued", self.issued)
        registry.inc(f"{prefix}.target_issued", self.target_issued)
        registry.inc(f"{prefix}.suppressed", self.suppressed)

    def reset(self) -> None:
        """Clear statistics (cache/bus/station are reset by their owners)."""
        self.issued = 0
        self.target_issued = 0
        self.suppressed = 0
