"""Named counters and histograms: the metrics side of the observability
layer.

A :class:`MetricsRegistry` is a flat namespace of named metrics that the
engine and every hardware model publish into at the end of a run (and, for
a handful of distribution-shaped quantities, during the run).  Two metric
kinds exist:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Histogram` — fixed-bound integer buckets plus count / total /
  min / max, for quantities like miss-service times.

Everything is integer-valued and insertion-order independent, so two
registries fed by the same simulations — whether in one process or merged
from parallel workers — serialise to *identical* dictionaries.  That
property underpins the serial-vs-parallel differential tests and the
golden metric snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import ObservabilityError

#: Default histogram bucket upper bounds (slots); one overflow bucket is
#: appended implicitly for samples above the last bound.
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Counter:
    """A named, monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (>= 0) to the counter."""
        if n < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {n})"
            )
        self.value += n

    def merge(self, other: Counter) -> None:
        """Fold another counter's value into this one."""
        self.value += other.value

    def as_value(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Fixed-bucket integer histogram (bounds are inclusive upper edges)."""

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[int] = DEFAULT_BOUNDS) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs >= 1 bound")
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be strictly increasing: {bounds}"
            )
        self.name = name
        self.bounds = bounds
        #: One bucket per bound plus an overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int, n: int = 1) -> None:
        """Record *n* samples of *value*."""
        self.counts[bisect_right(self.bounds, value - 1)] += n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: Histogram) -> None:
        """Fold another histogram (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ObservabilityError(
                f"cannot merge histogram {self.name!r}: bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def as_value(self) -> dict[str, Any]:
        """JSON-ready summary (integers only, deterministic key order)."""
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, total={self.total})"


Metric = Counter | Histogram


class MetricsRegistry:
    """A flat, mergeable namespace of named counters and histograms."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- creation / lookup -------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called *name*."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(name)
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise ObservabilityError(f"{name!r} is a histogram, not a counter")
        return metric

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_BOUNDS
    ) -> Histogram:
        """Get or create the histogram called *name*."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ObservabilityError(f"{name!r} is a counter, not a histogram")
        elif metric.bounds != tuple(bounds):
            raise ObservabilityError(
                f"histogram {name!r} already exists with bounds {metric.bounds}"
            )
        return metric

    def inc(self, name: str, n: int = 1) -> None:
        """Convenience: increment the counter called *name* by *n*."""
        self.counter(name).inc(n)

    def value(self, name: str) -> int:
        """Current value of counter *name* (0 if it was never touched)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if not isinstance(metric, Counter):
            raise ObservabilityError(f"{name!r} is a histogram, not a counter")
        return metric.value

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    # -- merging / serialisation -------------------------------------------

    def merge(self, other: MetricsRegistry) -> MetricsRegistry:
        """Fold *other* into this registry (sums counters/histograms).

        Merging is commutative and associative, so per-worker registries
        combine to the same result regardless of completion order.
        """
        for name in other.names():
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Counter):
                    self.counter(name).merge(theirs)
                else:
                    self.histogram(name, theirs.bounds).merge(theirs)
            elif isinstance(mine, Counter) and isinstance(theirs, Counter):
                mine.merge(theirs)
            elif isinstance(mine, Histogram) and isinstance(theirs, Histogram):
                mine.merge(theirs)
            else:
                raise ObservabilityError(
                    f"cannot merge {name!r}: metric kinds differ"
                )
        return self

    def diff(self, other: MetricsRegistry) -> dict[str, tuple[Any, Any]]:
        """Metric names whose values differ, as ``{name: (mine, theirs)}``.

        A metric present on one side only compares against ``None``.
        Used by the robustness suite to assert that a fault-injected
        sweep's registry differs from a clean sweep's only in the
        ``sweep.*`` / ``checkpoint.*`` / ``faults.*`` counters.
        """
        mine, theirs = self.as_dict(), other.as_dict()
        return {
            name: (mine.get(name), theirs.get(name))
            for name in sorted(set(mine) | set(theirs))
            if mine.get(name) != theirs.get(name)
        }

    def as_dict(self) -> dict[str, Any]:
        """Deterministic plain-data snapshot (sorted names, ints only)."""
        return {name: self._metrics[name].as_value() for name in self.names()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> MetricsRegistry:
        """Rebuild a registry from an :meth:`as_dict` snapshot."""
        registry = cls()
        for name, value in data.items():
            if isinstance(value, int):
                registry.counter(name).inc(value)
            elif isinstance(value, dict) and value.get("type") == "histogram":
                hist = registry.histogram(name, tuple(value["bounds"]))
                hist.counts = list(value["counts"])
                hist.count = value["count"]
                hist.total = value["total"]
                hist.min = value["min"]
                hist.max = value["max"]
            else:
                raise ObservabilityError(
                    f"cannot rebuild metric {name!r} from {value!r}"
                )
        return registry

    @staticmethod
    def merged(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
        """Merge many registries into a fresh one."""
        out = MetricsRegistry()
        for registry in registries:
            out.merge(registry)
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
