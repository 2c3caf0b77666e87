"""In-flight line fills: the resume buffer and prefetch buffer.

The paper's Resume policy needs "a buffer that can hold the missing cache
line when it is returned from memory as well as the index where it needs to
be stored" — a single-entry fill buffer that lets the front end keep
running while a wrong-path fill completes in the background.  Next-line
prefetching reuses the same mechanism for prefetched lines.

:class:`PendingFillStation` models that buffer.  The paper's machine has
exactly one entry (``capacity=1``, the default everywhere); the paper's
§6 names non-blocking I-caches with multiple outstanding requests as
future work, so the station generalises to ``capacity=N`` for the
``extension_nonblocking`` experiment.  Fills are installed into the cache
lazily once their completion time has passed.  Demand fills that the
processor blocks on never enter the station (the engine installs them
directly).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cache.icache import InstructionCache, LineOrigin
from repro.errors import ConfigError, SimulationError
from repro.obs.events import FillInstall


class FillOrigin(enum.Enum):
    """What initiated an in-flight background fill."""

    WRONG_PATH = "wrong_path"
    PREFETCH = "prefetch"


@dataclass(frozen=True, slots=True)
class PendingFill:
    """One in-flight background line fill."""

    line: int
    done_at: int
    origin: FillOrigin


class PendingFillStation:
    """Background-fill buffer (resume buffer + prefetch buffer).

    Holds at most ``capacity`` in-flight fills (1 = the paper's design).
    When *sink* is given, every install drained into the cache emits a
    :class:`repro.obs.events.FillInstall` event.
    """

    __slots__ = ("capacity", "_pending", "installed", "overwritten",
                 "overwritten_prefetch", "sink")

    def __init__(self, capacity: int = 1, sink=None) -> None:
        if capacity < 1:
            raise ConfigError(f"fill station needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self._pending: list[PendingFill] = []
        self.installed = 0
        self.overwritten = 0
        self.overwritten_prefetch = 0
        self.sink = sink

    @property
    def pending(self) -> PendingFill | None:
        """The oldest in-flight fill, if any (capacity-1 convenience)."""
        return self._pending[0] if self._pending else None

    @property
    def occupancy(self) -> int:
        """Number of fills currently buffered (completed or in flight)."""
        return len(self._pending)

    def busy(self, now: int) -> bool:
        """True if no buffer slot could accept a new fill at slot *now*.

        Completed-but-undrained fills do not block a slot (the caller is
        expected to :meth:`drain` first, which the engine does before
        every interaction).
        """
        in_flight = sum(1 for p in self._pending if p.done_at > now)
        return in_flight >= self.capacity

    def matches(self, line: int) -> bool:
        """True if *line* is currently buffered.

        This is the paper's "the index of the missing line and the index
        in the resume buffer should be checked in case they are the same
        to avoid an unnecessary memory request".
        """
        return any(p.line == line for p in self._pending)

    def done_at(self, line: int) -> int | None:
        """Completion slot of the buffered fill for *line* (None if absent)."""
        for p in self._pending:
            if p.line == line:
                return p.done_at
        return None

    def lookup(self, line: int) -> PendingFill | None:
        """The buffered fill for *line*, if any (completion time + origin)."""
        for p in self._pending:
            if p.line == line:
                return p
        return None

    def pending_prefetches(self) -> int:
        """Buffered fills of prefetch origin (used for end-of-run accounting)."""
        return sum(1 for p in self._pending if p.origin is FillOrigin.PREFETCH)

    def start(self, line: int, done_at: int, origin: FillOrigin) -> None:
        """Begin a background fill (the bus must already be reserved)."""
        if len(self._pending) >= self.capacity:
            raise SimulationError(
                "pending-fill station full; drain or check busy() first"
            )
        self._pending.append(PendingFill(line=line, done_at=done_at, origin=origin))

    def drain(self, now: int, cache: InstructionCache) -> list[PendingFill]:
        """Install every completed pending fill into *cache*.

        The paper writes the buffered line into the cache "at the next
        I-cache miss, without interference with the normal operation of
        the cache"; draining lazily before every cache interaction is
        equivalent.  Returns the fills installed.
        """
        pending = self._pending
        for fill in pending:
            if fill.done_at <= now:
                break
        else:
            return []  # nothing pending, or all still in flight
        done = [p for p in pending if p.done_at <= now]
        # Mutate in place so the list object is stable: the engine's fast
        # path holds a reference to it as its cheap "anything in flight?"
        # emptiness probe.
        if len(done) == len(pending):
            pending.clear()
        else:
            pending[:] = [p for p in pending if p.done_at > now]
        sink = self.sink
        for fill in done:
            origin = (
                LineOrigin.PREFETCH
                if fill.origin is FillOrigin.PREFETCH
                else LineOrigin.DEMAND_WRONG
            )
            cache.fill(fill.line, origin)
            self.installed += 1
            if sink is not None:
                sink.emit(
                    FillInstall(
                        t=fill.done_at, line=fill.line, origin=fill.origin.value
                    )
                )
        return done

    def discard(self, line: int | None = None) -> None:
        """Drop pending fill(s) without installing them.

        With *line* given, drops only that fill; otherwise drops all.
        Used when a demand fill overwrites the buffered frame before the
        background fill was consumed.
        """
        if line is None:
            self.overwritten += len(self._pending)
            self.overwritten_prefetch += self.pending_prefetches()
            self._pending.clear()
            return
        before = len(self._pending)
        dropped = [p for p in self._pending if p.line == line]
        self._pending[:] = [p for p in self._pending if p.line != line]
        self.overwritten += before - len(self._pending)
        self.overwritten_prefetch += sum(
            1 for p in dropped if p.origin is FillOrigin.PREFETCH
        )

    def publish_metrics(self, registry, prefix: str = "station") -> None:
        """Publish fill-station statistics into a metrics registry."""
        registry.inc(f"{prefix}.installed", self.installed)
        registry.inc(f"{prefix}.overwritten", self.overwritten)
        registry.inc(f"{prefix}.overwritten_prefetch", self.overwritten_prefetch)

    def reset(self) -> None:
        """Clear the station and statistics."""
        self._pending.clear()
        self.installed = 0
        self.overwritten = 0
        self.overwritten_prefetch = 0
