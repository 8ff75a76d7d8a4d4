"""Tests for per-core prefetch accuracy measurement (PSC/PUC/PAR)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.aps import AdaptivePrefetchScheduler
from repro.controller.request import MemRequest


def make_tracker(num_cores=2, **kwargs):
    return PrefetchAccuracyTracker(num_cores=num_cores, **kwargs)


def make_request(core, is_prefetch):
    return MemRequest(0x100, core, is_prefetch, 0, 0, 0, 0)


class TestCounters:
    def test_initial_state_is_optimistic(self):
        tracker = make_tracker()
        assert tracker.par == [1.0, 1.0]
        assert tracker.prefetch_critical == [True, True]

    def test_par_updates_at_interval(self):
        tracker = make_tracker()
        for _ in range(10):
            tracker.record_sent(0)
        for _ in range(3):
            tracker.record_used(0)
        tracker.end_interval()
        assert tracker.par[0] == 0.3
        assert tracker.psc[0] == 0
        assert tracker.puc[0] == 0

    def test_par_retained_when_no_prefetches(self):
        tracker = make_tracker()
        tracker.record_sent(0)
        tracker.record_used(0)
        tracker.end_interval()
        assert tracker.par[0] == 1.0
        tracker.end_interval()  # no samples this interval
        assert tracker.par[0] == 1.0

    def test_cores_are_independent(self):
        tracker = make_tracker()
        tracker.record_sent(0)
        tracker.record_sent(1)
        tracker.record_used(1)
        tracker.end_interval()
        assert tracker.par[0] == 0.0
        assert tracker.par[1] == 1.0

    def test_history_records_every_interval(self):
        tracker = make_tracker()
        tracker.record_sent(0)
        tracker.end_interval()
        tracker.record_sent(0)
        tracker.record_used(0)
        tracker.end_interval()
        assert tracker.history[0] == [0.0, 1.0]


class TestDerivedFlags:
    def test_criticality_threshold(self):
        tracker = make_tracker(promotion_threshold=0.85)
        for _ in range(100):
            tracker.record_sent(0)
        for _ in range(86):
            tracker.record_used(0)
        tracker.end_interval()
        assert tracker.prefetch_critical[0]

    def test_below_threshold_not_critical(self):
        tracker = make_tracker(promotion_threshold=0.85)
        for _ in range(100):
            tracker.record_sent(0)
        for _ in range(84):
            tracker.record_used(0)
        tracker.end_interval()
        assert not tracker.prefetch_critical[0]

    # APS reads the C and U bits off the tracker's per-core flag; its
    # priority tuple starts (C, RH, U, ...).

    def test_demands_always_critical(self):
        tracker = make_tracker()
        tracker.record_sent(0)
        tracker.end_interval()  # core 0 accuracy -> 0
        assert not tracker.prefetch_critical[0]
        aps = AdaptivePrefetchScheduler(tracker)
        assert aps.priority(make_request(core=0, is_prefetch=False), False)[0]
        assert not aps.priority(make_request(core=0, is_prefetch=True), False)[0]

    def test_urgency_is_demand_of_inaccurate_core(self):
        tracker = make_tracker()
        tracker.record_sent(0)
        tracker.end_interval()  # core 0 accuracy -> 0
        aps = AdaptivePrefetchScheduler(tracker)
        assert aps.priority(make_request(core=0, is_prefetch=False), False)[2]
        assert not aps.priority(make_request(core=0, is_prefetch=True), False)[2]
        assert not aps.priority(make_request(core=1, is_prefetch=False), False)[2]


class TestDropThresholds:
    def test_table6_bands(self):
        tracker = make_tracker()
        cases = [(0.05, 100), (0.2, 1_500), (0.5, 50_000), (0.9, 100_000)]
        for accuracy, expected in cases:
            assert tracker._lookup_drop_threshold(accuracy) == expected

    def test_threshold_updates_with_par(self):
        tracker = make_tracker()
        for _ in range(100):
            tracker.record_sent(0)
        for _ in range(5):
            tracker.record_used(0)
        tracker.end_interval()
        assert tracker.drop_threshold[0] == 100

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_threshold_monotone_in_accuracy(self, accuracy):
        tracker = make_tracker()
        lower = tracker._lookup_drop_threshold(accuracy * 0.5)
        upper = tracker._lookup_drop_threshold(accuracy)
        assert lower <= upper

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=20
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_par_always_in_unit_interval(self, events):
        tracker = make_tracker(num_cores=1)
        for sent, used in events:
            for _ in range(sent):
                tracker.record_sent(0)
            for _ in range(min(used, sent)):
                tracker.record_used(0)
            tracker.end_interval()
            assert 0.0 <= tracker.par[0] <= 1.0
