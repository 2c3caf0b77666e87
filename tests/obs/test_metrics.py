"""Counters, histograms, and the mergeable registry."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_inc_zero_allowed(self):
        c = Counter("x")
        c.inc(0)
        assert c.value == 0

    def test_negative_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter("x").inc(-1)

    def test_merge(self):
        a, b = Counter("x"), Counter("x")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper(self):
        h = Histogram("h", bounds=(1, 2, 4))
        for v in (1, 2, 3, 4, 5):
            h.observe(v)
        # buckets: <=1, <=2, <=4, overflow
        assert h.counts == [1, 1, 2, 1]
        assert h.count == 5
        assert h.total == 15
        assert (h.min, h.max) == (1, 5)

    def test_repeated_samples_equal_single_observes(self):
        folded, single = Histogram("h", bounds=(4, 8)), Histogram("h", bounds=(4, 8))
        for value, n in ((16, 3), (8, 2), (2, 1)):
            folded.observe(value, n)
            for _ in range(n):
                single.observe(value)
        assert folded.as_value() == single.as_value()

    def test_empty_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=())

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(2, 1))

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(1, 1, 2))

    def test_merge(self):
        a, b = Histogram("h", bounds=(4, 8)), Histogram("h", bounds=(4, 8))
        a.observe(3)
        b.observe(20)
        a.merge(b)
        assert a.counts == [1, 0, 1]
        assert a.count == 2
        assert a.total == 23
        assert (a.min, a.max) == (3, 20)

    def test_merge_bounds_mismatch(self):
        a, b = Histogram("h", bounds=(4,)), Histogram("h", bounds=(8,))
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_merge_empty_keeps_minmax(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(7)
        a.merge(b)
        assert (a.min, a.max) == (7, 7)


class TestRegistry:
    def test_counter_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")

    def test_kind_conflict(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ObservabilityError):
            r.histogram("a")
        r.histogram("h")
        with pytest.raises(ObservabilityError):
            r.counter("h")

    def test_histogram_bounds_conflict(self):
        r = MetricsRegistry()
        r.histogram("h", bounds=(1, 2))
        with pytest.raises(ObservabilityError):
            r.histogram("h", bounds=(1, 2, 3))

    def test_inc_and_value(self):
        r = MetricsRegistry()
        r.inc("a", 3)
        r.inc("a")
        assert r.value("a") == 4
        assert r.value("never_touched") == 0

    def test_names_sorted(self):
        r = MetricsRegistry()
        r.inc("z")
        r.inc("a")
        assert r.names() == ["a", "z"]

    def test_merge_is_commutative(self):
        def build(x, y):
            r = MetricsRegistry()
            r.inc("c", x)
            r.histogram("h").observe(y)
            return r

        ab = MetricsRegistry.merged([build(1, 5), build(2, 100)])
        ba = MetricsRegistry.merged([build(2, 100), build(1, 5)])
        assert ab.as_dict() == ba.as_dict()

    def test_merge_kind_conflict(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.histogram("m")
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_as_dict_roundtrip(self):
        r = MetricsRegistry()
        r.inc("c", 9)
        h = r.histogram("h", bounds=(2, 4))
        h.observe(1)
        h.observe(9)
        snapshot = r.as_dict()
        rebuilt = MetricsRegistry.from_dict(snapshot)
        assert rebuilt.as_dict() == snapshot

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry.from_dict({"m": "not-a-metric"})

    def test_default_bounds_are_increasing(self):
        assert list(DEFAULT_BOUNDS) == sorted(set(DEFAULT_BOUNDS))

    def test_as_dict_insertion_order_independent(self):
        a = MetricsRegistry()
        a.inc("x")
        a.inc("y")
        b = MetricsRegistry()
        b.inc("y")
        b.inc("x")
        assert list(a.as_dict()) == list(b.as_dict())
