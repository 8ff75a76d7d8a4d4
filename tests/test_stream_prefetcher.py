"""Tests for the POWER4/5-style stream prefetcher (paper §2.3)."""

from repro.prefetch.stream import StreamPrefetcher


def make_prefetcher(**kwargs):
    defaults = dict(num_streams=4, degree=4, distance=64)
    defaults.update(kwargs)
    return StreamPrefetcher(**defaults)


class TestAllocationAndTraining:
    def test_miss_allocates_stream(self):
        prefetcher = make_prefetcher()
        assert prefetcher.on_access(100, was_hit=False) == []
        assert len(prefetcher.entries) == 1
        assert prefetcher.entries[0].start == 100

    def test_hit_does_not_allocate(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=True)
        assert prefetcher.entries == []

    def test_only_train_mode_does_not_allocate(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False, allocate=False)
        assert prefetcher.entries == []

    def test_direction_detection_ascending(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        assert prefetcher.on_access(102, was_hit=False) == []
        entry = prefetcher.entries[0]
        assert entry.direction == 1
        assert (entry.lo, entry.hi) == (100, 164)
        assert entry.mon_end == 164

    def test_direction_detection_descending(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(98, was_hit=False)
        entry = prefetcher.entries[0]
        assert entry.direction == -1
        # The match window is normalized: lo <= hi whatever the direction.
        assert (entry.lo, entry.hi) == (36, 100)
        assert entry.mon_end == 36

    def test_repeated_start_access_stays_training(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(100, was_hit=True)
        assert prefetcher.entries[0].direction == 0

    def test_far_miss_allocates_second_stream(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(100_000, was_hit=False)
        assert len(prefetcher.entries) == 2

    def test_lru_replacement_when_full(self):
        prefetcher = make_prefetcher(num_streams=2)
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(10_000, was_hit=False)
        prefetcher.on_access(20_000, was_hit=False)
        assert len(prefetcher.entries) == 2
        assert all(e.start != 100 for e in prefetcher.entries)


class TestPrefetchIssue:
    def issue_sequence(self, prefetcher, start=100):
        prefetcher.on_access(start, was_hit=False)
        prefetcher.on_access(start + 1, was_hit=False)  # sets direction
        return prefetcher.on_access(start + 2, was_hit=True)  # in region

    def test_monitored_access_issues_degree_prefetches(self):
        prefetcher = make_prefetcher()
        candidates = self.issue_sequence(prefetcher)
        # Region [100, 164]: prefetch 165..168 (degree 4 past the edge).
        assert candidates == [165, 166, 167, 168]

    def test_region_shifts_by_degree(self):
        prefetcher = make_prefetcher()
        self.issue_sequence(prefetcher)
        entry = prefetcher.entries[0]
        assert (entry.lo, entry.hi) == (104, 168)
        assert entry.mon_end == 168

    def test_access_behind_region_does_not_trigger(self):
        prefetcher = make_prefetcher()
        self.issue_sequence(prefetcher)  # region now [104, 168]
        assert prefetcher.on_access(103, was_hit=True) == []

    def test_steady_state_issue_rate_matches_consumption(self):
        """One line prefetched per line consumed, on average."""
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(101, was_hit=False)
        issued = 0
        for line in range(102, 302):
            issued += len(prefetcher.on_access(line, was_hit=True))
        assert abs(issued - 200) <= 2 * prefetcher.degree

    def test_negative_addresses_filtered(self):
        prefetcher = make_prefetcher(distance=8, degree=4)
        prefetcher.on_access(10, was_hit=False)
        prefetcher.on_access(9, was_hit=False)  # descending
        candidates = prefetcher.on_access(8, was_hit=True)
        assert all(address >= 0 for address in candidates)


class TestRewind:
    def test_rewind_retreats_region(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(101, was_hit=False)
        prefetcher.on_access(102, was_hit=True)
        entry = prefetcher.entries[0]
        end_before = entry.mon_end
        prefetcher.rewind(2)
        assert entry.mon_end == end_before - 2

    def test_rewound_lines_reissued_on_next_trigger(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(101, was_hit=False)
        first = prefetcher.on_access(102, was_hit=True)
        prefetcher.rewind(4)  # nothing was accepted
        second = prefetcher.on_access(104, was_hit=True)
        assert second == first

    def test_rewind_without_trigger_is_noop(self):
        prefetcher = make_prefetcher()
        prefetcher.rewind(4)  # no stream yet; must not crash

    def test_rewind_capped_at_degree(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(101, was_hit=False)
        prefetcher.on_access(102, was_hit=True)
        entry = prefetcher.entries[0]
        end_before = entry.mon_end
        prefetcher.rewind(100)
        assert entry.mon_end == end_before - prefetcher.degree


class TestAggressiveness:
    def test_set_aggressiveness(self):
        prefetcher = make_prefetcher()
        prefetcher.set_aggressiveness(2, 16)
        assert (prefetcher.degree, prefetcher.distance) == (2, 16)
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(101, was_hit=False)
        candidates = prefetcher.on_access(102, was_hit=True)
        assert len(candidates) == 2
