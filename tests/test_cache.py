"""Tests for the L2 cache (LRU, prefetch bits, eviction feedback).

The simulation loop is the only implementation of the cache protocol:
``handle_core`` does the demand lookup and ``handle_fill`` the fill and
eviction, over the sets ``L2Cache`` holds.  These tests run a ``System``
over hand-written traces and assert on the result and on the sets.
Accesses are ``GAP`` instructions (1,000 cycles) apart, so each fill lands
before the next access; the last access's own fill never lands.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheLine, L2Cache
from repro.core.trace import TraceEntry
from repro.params import CacheConfig, PrefetcherConfig
from tests.conftest import run_trace, trace_config, trace_system

GAP = 4_000

# One stream, one line per trigger, a two-line monitoring region: the
# accesses 100, 101, 102 train the stream and prefetch line 103.
STREAM = PrefetcherConfig(kind="stream", num_streams=1, degree=1, distance=2)


def reads(*lines):
    return [TraceEntry(GAP, line, 0) for line in lines]


def resident(system, set_index=0):
    """The lines of one L2 set, LRU first."""
    return list(system._caches[0]._sets[set_index])


def hits_and_misses(result):
    core = result.cores[0]
    return core.l2_hits, core.l2_misses


def stream_config():
    return trace_config(ways=2, policy="demand-first", prefetcher=STREAM)


class TestLookup:
    def test_miss_on_empty(self):
        _, result = run_trace(trace_config(), reads(0x10))
        assert hits_and_misses(result) == (0, 1)

    def test_hit_after_fill(self):
        system, result = run_trace(trace_config(), reads(0x10, 0x10))
        assert hits_and_misses(result) == (1, 1)
        assert resident(system) == [0x10]

    def test_contains_and_probe_do_not_count(self):
        # The runahead path's residency probe leaves LRU and the P bit be.
        cache = L2Cache(CacheConfig(size_bytes=2 * 64, associativity=2))
        cache._sets[0][0] = CacheLine(True, 0, False)
        cache._sets[0][1] = CacheLine(False, 0, False)
        assert cache.touch_for_prefetcher(0)
        assert not cache.touch_for_prefetcher(2)
        assert list(cache._sets[0]) == [0, 1]
        assert cache.unused_prefetched_by_core() == {0: 1}

    def test_hit_rate(self):
        _, result = run_trace(trace_config(), reads(0x10, 0x10, 0x20, 0x10))
        hits, misses = hits_and_misses(result)
        assert hits / (hits + misses) == 0.5


class TestPrefetchBit:
    def test_first_use_reports_prefetch_metadata(self):
        system, result = run_trace(stream_config(), reads(100, 101, 102, 103))
        core = result.cores[0]
        assert hits_and_misses(result) == (1, 3)
        assert core.pf_used == core.prefetch_fills_used == 1
        # 103 shares the DRAM row demand 102 left open.
        assert core.useful_prefetch_row_hits == 1
        line = system._caches[0]._sets[0][103]
        assert not line.prefetched and line.ever_used
        assert line.core_id == 0 and line.row_hit_fill

    def test_second_use_is_plain_hit(self):
        system, result = run_trace(stream_config(), reads(100, 101, 102, 103, 103))
        core = result.cores[0]
        assert hits_and_misses(result) == (2, 3)
        assert core.pf_used == 1
        assert core.pf_sent == 3  # 103, then 104 and 105 on the two hits

    def test_demand_fill_never_reports_prefetch(self):
        system, result = run_trace(trace_config(), reads(0x10, 0x10))
        assert result.cores[0].pf_used == 0
        line = system._caches[0]._sets[0][0x10]
        assert not line.prefetched and line.ever_used


class TestEviction:
    def test_lru_victim(self):
        # A B A C A B in one 2-way set: the A hit makes B the LRU line, so
        # C evicts B and the final B misses.
        system, result = run_trace(trace_config(), reads(0, 1, 0, 2, 0, 1))
        assert hits_and_misses(result) == (2, 4)
        assert resident(system) == [2, 0]

    def test_eviction_reports_unused_prefetch(self):
        # 500 and 900 replace the stream, and their fills evict 102, then
        # the unused prefetched 103.
        system, result = run_trace(
            stream_config(), reads(100, 101, 102, 500, 900, 5_000)
        )
        core = result.cores[0]
        assert (core.pf_sent, core.pf_used, core.pf_evicted_unused) == (1, 0, 1)
        assert resident(system) == [500, 900]

    def test_used_prefetch_not_reported_unused(self):
        system, result = run_trace(
            stream_config(), reads(100, 101, 102, 500, 103, 900, 901, 5_000)
        )
        core = result.cores[0]
        assert (core.pf_sent, core.pf_used, core.pf_evicted_unused) == (1, 1, 0)
        assert resident(system) == [900, 901]

    def test_redundant_fill_keeps_line(self):
        # Plant line 0 at the LRU end while its miss is in flight: the fill
        # keeps the planted line and moves it to the MRU end, so line 1's
        # fill evicts 5 instead.
        planted = CacheLine(False, 0, False)
        system = trace_system(trace_config())
        sets = system._caches[0]._sets

        def trace():
            yield from reads(5, 0)
            line_5 = sets[0].pop(5)
            sets[0][0] = planted
            sets[0][5] = line_5
            yield from reads(1, 7)

        system.cores[0].trace = trace()
        result = system.run(4)
        assert hits_and_misses(result) == (0, 4)
        assert resident(system) == [0, 1]
        assert sets[0][0] is planted


class TestSetMapping:
    def test_lines_map_to_distinct_sets(self):
        system, result = run_trace(
            trace_config(sets=4, ways=1), reads(0, 1, 2, 3, 0, 1, 2, 3)
        )
        assert hits_and_misses(result) == (4, 4)
        assert [resident(system, index) for index in range(4)] == [[0], [1], [2], [3]]

    def test_same_set_conflict(self):
        system, result = run_trace(trace_config(sets=4, ways=1), reads(0, 4, 0, 9))
        assert hits_and_misses(result) == (0, 4)
        assert resident(system, 0) == [0]


def lru_model(lines, sets, ways):
    """Hits and final sets (LRU first) of an LRU cache replaying ``lines``.

    Every fill lands before the next access except the last access's.
    """
    cache = [OrderedDict() for _ in range(sets)]
    hits = 0
    for index, line in enumerate(lines):
        cache_set = cache[line % sets]
        if line in cache_set:
            hits += 1
            cache_set.move_to_end(line)
        elif index < len(lines) - 1:
            if len(cache_set) >= ways:
                cache_set.popitem(last=False)
            cache_set[line] = None
    return hits, [list(cache_set) for cache_set in cache]


class TestCacheProperties:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        system = trace_system(trace_config(sets=8, ways=2))
        sets = system._caches[0]._sets

        def trace():
            for line in lines:
                yield TraceEntry(GAP, line, 0)
                assert all(len(cache_set) <= 2 for cache_set in sets)

        system.cores[0].trace = trace()
        system.run(len(lines))

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_most_recent_fill_always_resident(self, lines):
        system = trace_system(trace_config(sets=8, ways=2))
        sets = system._caches[0]._sets

        def trace():
            for index, line in enumerate(lines):
                yield TraceEntry(GAP, line, 0)
                # Access ``index`` was just handled; its predecessor's
                # line has filled (or hit) since and nothing has evicted
                # it yet.
                if index:
                    previous = lines[index - 1]
                    assert previous in sets[previous % 8]

        system.cores[0].trace = trace()
        system.run(len(lines))

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_stats_consistency(self, lines):
        system, result = run_trace(trace_config(sets=8, ways=2), reads(*lines))
        hits, final_sets = lru_model(lines, sets=8, ways=2)
        assert hits_and_misses(result) == (hits, len(lines) - hits)
        assert [resident(system, index) for index in range(8)] == final_sets
