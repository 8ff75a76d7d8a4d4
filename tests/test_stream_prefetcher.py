"""Tests for the POWER4/5-style stream prefetcher (paper §2.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_direction_detection_descending(self):
        prefetcher = make_prefetcher()
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(98, was_hit=False)
        entry = prefetcher.entries[0]
        assert entry.direction == -1
        # The match window is normalized: lo <= hi whatever the direction.
        assert (entry.lo, entry.hi) == (36, 100)

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


class TestAggressiveness:
    def test_set_aggressiveness(self):
        prefetcher = make_prefetcher()
        prefetcher.set_aggressiveness(2, 16)
        assert (prefetcher.degree, prefetcher.distance) == (2, 16)
        prefetcher.on_access(100, was_hit=False)
        prefetcher.on_access(101, was_hit=False)
        candidates = prefetcher.on_access(102, was_hit=True)
        assert len(candidates) == 2


class ReferenceStreams:
    """The stream table as a linear scan: the semantics StreamPrefetcher keeps.

    Entries are ``[start, direction, edge, last_use, lo, hi]`` lists in
    allocation order; the first entry whose ``[lo, hi]`` window holds the
    line matches, and a full table evicts the least recently used entry.
    """

    def __init__(self, num_streams, degree, distance, train_distance):
        self.num_streams = num_streams
        self.degree = degree
        self.distance = distance
        self.train_distance = train_distance
        self.entries = []
        self.tick = 0

    def set_aggressiveness(self, degree, distance):
        self.degree = degree
        self.distance = distance

    def on_access(self, line, was_hit, allocate=True):
        self.tick += 1
        match = next((e for e in self.entries if e[4] <= line <= e[5]), None)
        if match is None:
            if not was_hit and allocate:
                if len(self.entries) >= self.num_streams:
                    self.entries.remove(min(self.entries, key=lambda e: e[3]))
                low, high = line - self.train_distance, line + self.train_distance
                self.entries.append([line, 0, line, self.tick, low, high])
            return []
        match[3] = self.tick
        start, direction, edge = match[0], match[1], match[2]
        if direction == 0:
            if line != start:
                direction = 1 if line > start else -1
                edge = start + self.distance * direction
                match[1:3] = [direction, edge]
                match[4:6] = sorted((start, edge))
            return []
        shift = self.degree * direction
        match[2] += shift
        match[4] += shift
        match[5] += shift
        batch = [edge + step * direction for step in range(1, self.degree + 1)]
        return [address for address in batch if address >= 0]


# Accesses come from a few walkers that step through lines, mostly a
# few lines at a time in either direction and sometimes far, so streams
# train, trigger, cross 64-line buckets, overlap, get evicted and run
# into line 0.
_steps = st.one_of(
    st.integers(-4, 8),
    st.integers(-4, 8),
    st.integers(-70, 70),
    st.integers(-400, 400),
)
_access = st.tuples(
    st.just("access"), st.integers(0, 3), _steps, st.booleans(), st.booleans()
)
_aggressiveness = st.tuples(
    st.just("aggressiveness"), st.integers(1, 80), st.integers(4, 160)
)
# Six accesses to each aggressiveness move; a list long enough for the
# table to fill and its windows to move.
_operations = st.lists(
    st.one_of(*[_access] * 6, _aggressiveness), min_size=60, max_size=250
)


def _entries(prefetcher):
    return [
        (entry.start, entry.lo, entry.hi, entry.direction)
        for entry in prefetcher.entries
    ]


class TestAgainstLinearScan:
    @given(
        num_streams=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 32]),
        degree=st.integers(1, 80),
        distance=st.integers(4, 160),
        train_distance=st.integers(0, 40),
        starts=st.lists(st.integers(0, 300), min_size=4, max_size=4),
        operations=_operations,
    )
    @settings(max_examples=100, deadline=None)
    def test_same_batches_and_streams_as_a_linear_scan(
        self, num_streams, degree, distance, train_distance, starts, operations
    ):
        prefetcher = StreamPrefetcher(num_streams, degree, distance, train_distance)
        reference = ReferenceStreams(num_streams, degree, distance, train_distance)
        lines = list(starts)
        for operation in operations:
            if operation[0] == "access":
                _, walker, step, was_hit, allocate = operation
                line = lines[walker] = max(0, lines[walker] + step)
                assert prefetcher.on_access(
                    line, was_hit, allocate=allocate
                ) == reference.on_access(line, was_hit, allocate)
            else:
                prefetcher.set_aggressiveness(*operation[1:])
                reference.set_aggressiveness(*operation[1:])
            assert _entries(prefetcher) == [
                (e[0], e[4], e[5], e[1]) for e in reference.entries
            ]
