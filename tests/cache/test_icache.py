"""Instruction cache tag store."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheStats, InstructionCache, LineOrigin
from repro.errors import ConfigError


def make_cache(size=8192, line=32, assoc=1):
    return InstructionCache(size, line_size=line, assoc=assoc)


class TestGeometry:
    def test_paper_8k(self):
        cache = make_cache()
        assert cache.n_sets == 256

    def test_paper_32k(self):
        cache = make_cache(size=32 * 1024)
        assert cache.n_sets == 1024

    def test_assoc_sets(self):
        cache = make_cache(assoc=4)
        assert cache.n_sets == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 1000},           # not a multiple of line size
            {"size": 8192, "line": 24},  # line not power of two
            {"size": 8192, "assoc": 3},  # lines not divisible
            {"size": 0},
        ],
    )
    def test_bad_geometry(self, kwargs):
        size = kwargs.get("size", 8192)
        line = kwargs.get("line", 32)
        assoc = kwargs.get("assoc", 1)
        with pytest.raises(ConfigError):
            InstructionCache(size, line_size=line, assoc=assoc)


class TestDirectMapped:
    def test_cold_miss(self):
        cache = make_cache()
        assert not cache.probe(5)
        assert cache.stats.misses == 1

    def test_fill_then_hit(self):
        cache = make_cache()
        cache.fill(5, LineOrigin.DEMAND_RIGHT)
        assert cache.probe(5)
        assert cache.stats.hits == 1

    def test_conflict_eviction(self):
        cache = make_cache()  # 256 sets
        cache.fill(5, LineOrigin.DEMAND_RIGHT)
        cache.fill(5 + 256, LineOrigin.DEMAND_RIGHT)  # same set
        assert not cache.contains(5)
        assert cache.contains(5 + 256)
        assert cache.stats.evictions == 1

    def test_non_conflicting_lines_coexist(self):
        cache = make_cache()
        cache.fill(5, LineOrigin.DEMAND_RIGHT)
        cache.fill(6, LineOrigin.DEMAND_RIGHT)
        assert cache.contains(5)
        assert cache.contains(6)

    def test_contains_does_not_count(self):
        cache = make_cache()
        cache.contains(5)
        assert cache.stats.probes == 0


class TestAssociative:
    def test_ways_coexist(self):
        cache = make_cache(assoc=4)  # 64 sets
        lines = [3 + i * 64 for i in range(4)]
        for line in lines:
            cache.fill(line, LineOrigin.DEMAND_RIGHT)
        assert all(cache.contains(line) for line in lines)

    def test_lru_eviction(self):
        cache = make_cache(assoc=2)  # 128 sets
        a, b, c = 1, 1 + 128, 1 + 256
        cache.fill(a, LineOrigin.DEMAND_RIGHT)
        cache.fill(b, LineOrigin.DEMAND_RIGHT)
        cache.probe(a)  # refresh a
        cache.fill(c, LineOrigin.DEMAND_RIGHT)  # evicts b
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_refill_refreshes_not_duplicates(self):
        cache = make_cache(assoc=2)
        cache.fill(1, LineOrigin.DEMAND_RIGHT)
        cache.fill(1, LineOrigin.PREFETCH)
        assert len(cache.resident_lines()) == 1


class TestFirstReferenceBit:
    def test_set_on_fill(self):
        cache = make_cache()
        cache.fill(7, LineOrigin.DEMAND_RIGHT)
        assert cache.test_and_clear_first_ref(7)

    def test_cleared_after_first_fetch(self):
        cache = make_cache()
        cache.fill(7, LineOrigin.DEMAND_RIGHT)
        cache.test_and_clear_first_ref(7)
        assert not cache.test_and_clear_first_ref(7)

    def test_refill_resets_bit(self):
        cache = make_cache()
        cache.fill(7, LineOrigin.DEMAND_RIGHT)
        cache.test_and_clear_first_ref(7)
        cache.fill(7, LineOrigin.PREFETCH)
        assert cache.test_and_clear_first_ref(7)

    def test_absent_line_false(self):
        cache = make_cache()
        assert not cache.test_and_clear_first_ref(99)

    def test_assoc_variant(self):
        cache = make_cache(assoc=4)
        cache.fill(7, LineOrigin.PREFETCH)
        assert cache.test_and_clear_first_ref(7)
        assert not cache.test_and_clear_first_ref(7)


class TestProvenance:
    def test_prefetch_hit_counted(self):
        cache = make_cache()
        cache.fill(7, LineOrigin.PREFETCH)
        cache.probe(7)
        assert cache.stats.prefetch_hits == 1

    def test_wrongpath_hit_counted(self):
        cache = make_cache()
        cache.fill(7, LineOrigin.DEMAND_WRONG)
        cache.probe(7)
        assert cache.stats.wrongpath_hits == 1

    def test_right_demand_hit_not_special(self):
        cache = make_cache()
        cache.fill(7, LineOrigin.DEMAND_RIGHT)
        cache.probe(7)
        assert cache.stats.prefetch_hits == 0
        assert cache.stats.wrongpath_hits == 0


class TestStatsAndReset:
    def test_miss_rate(self):
        cache = make_cache()
        cache.probe(1)
        cache.fill(1, LineOrigin.DEMAND_RIGHT)
        cache.probe(1)
        assert cache.stats.miss_rate == 0.5

    def test_miss_rate_empty(self):
        assert make_cache().stats.miss_rate == 0.0

    def test_reset(self):
        cache = make_cache()
        cache.fill(1, LineOrigin.DEMAND_RIGHT)
        cache.probe(1)
        cache.reset()
        assert not cache.contains(1)
        assert cache.stats.probes == 0

    def test_resident_lines_roundtrip(self):
        for assoc in (1, 2):
            cache = make_cache(assoc=assoc)
            lines = {1, 50, 300, 1000}
            for line in lines:
                cache.fill(line, LineOrigin.DEMAND_RIGHT)
            assert cache.resident_lines() == lines


class _ReferenceLRU:
    """Per-set ``OrderedDict`` LRU model (MRU last) of the cache's rules."""

    def __init__(self, n_sets: int, assoc: int) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        #: set -> tag -> [origin, first_ref, pf_fresh]
        self.sets = [OrderedDict() for _ in range(n_sets)]
        self.stats = CacheStats()

    def _way(self, line):
        ways = self.sets[line % self.n_sets]
        return ways, line // self.n_sets

    def contains(self, line):
        ways, tag = self._way(line)
        return tag in ways

    def probe(self, line):
        stats = self.stats
        stats.probes += 1
        ways, tag = self._way(line)
        if tag not in ways:
            stats.misses += 1
            return False
        ways.move_to_end(tag)
        stats.hits += 1
        state = ways[tag]
        if state[0] is LineOrigin.PREFETCH:
            stats.prefetch_hits += 1
            if state[2]:
                state[2] = False
                stats.prefetch_used += 1
        elif state[0] is LineOrigin.DEMAND_WRONG:
            stats.wrongpath_hits += 1
        return True

    def fill(self, line, origin):
        stats = self.stats
        stats.fills += 1
        ways, tag = self._way(line)
        if tag in ways:
            displaced = ways.pop(tag)
        elif len(ways) == self.assoc:
            _, displaced = ways.popitem(last=False)
            stats.evictions += 1
        else:
            displaced = None
        if displaced is not None and displaced[2]:
            stats.prefetch_evicted_unused += 1
        ways[tag] = [origin, True, origin is LineOrigin.PREFETCH]

    def test_and_clear_first_ref(self, line):
        ways, tag = self._way(line)
        state = ways.get(tag)
        if state is None or not state[1]:
            return False
        state[1] = False
        return True

    def consume_prefetch(self, line):
        ways, tag = self._way(line)
        if tag in ways:
            ways[tag][2] = False

    def resident_lines(self):
        return {
            tag * self.n_sets + set_idx
            for set_idx, ways in enumerate(self.sets)
            for tag in ways
        }

    def fresh_prefetch_count(self):
        return sum(state[2] for ways in self.sets for state in ways.values())


_OPS = st.one_of(
    st.tuples(
        st.sampled_from(
            ["probe", "contains", "test_and_clear_first_ref", "consume_prefetch"]
        ),
        st.integers(min_value=0, max_value=31),
    ),
    st.tuples(
        st.just("fill"),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(list(LineOrigin)),
    ),
)


class TestReferenceModel:
    """The way-major tag store against an ``OrderedDict`` LRU, op by op.

    The 4-way L2 (``SecondLevelCache``) is built on the same class, so
    this covers its tag store too.
    """

    @given(
        assoc=st.sampled_from([1, 2, 4]),
        ops=st.lists(_OPS, min_size=30, max_size=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_ordered_dict_lru(self, assoc, ops):
        n_sets = 4
        cache = InstructionCache(n_sets * assoc * 32, line_size=32, assoc=assoc)
        model = _ReferenceLRU(n_sets, assoc)
        for op, *args in ops:
            assert getattr(cache, op)(*args) == getattr(model, op)(*args)
            assert cache.stats == model.stats
            assert cache.resident_lines() == model.resident_lines()
            assert cache.fresh_prefetch_count() == model.fresh_prefetch_count()
