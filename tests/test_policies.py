"""Tests for rigid scheduling policies and APS priority ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.aps import AdaptivePrefetchScheduler
from repro.controller.policies import (
    DemandFirstPolicy,
    DemandPrefetchEqualPolicy,
    PrefetchFirstPolicy,
    make_policy,
)
from repro.controller.request import MemRequest
from repro.params import POLICY_TABLE


def request(is_prefetch, arrival, core=0):
    return MemRequest(
        line_addr=arrival,
        core_id=core,
        is_prefetch=is_prefetch,
        arrival=arrival,
        channel=0,
        bank=0,
        row=0,
    )


class TestDemandFirst:
    def test_demand_beats_row_hit_prefetch(self):
        policy = DemandFirstPolicy()
        demand = policy.priority(request(False, 10), row_hit=False)
        prefetch = policy.priority(request(True, 5), row_hit=True)
        assert demand > prefetch

    def test_row_hit_breaks_tie_among_demands(self):
        policy = DemandFirstPolicy()
        hit = policy.priority(request(False, 10), row_hit=True)
        conflict = policy.priority(request(False, 5), row_hit=False)
        assert hit > conflict

    def test_fcfs_last(self):
        policy = DemandFirstPolicy()
        older = policy.priority(request(False, 5), row_hit=True)
        younger = policy.priority(request(False, 10), row_hit=True)
        assert older > younger


class TestDemandPrefetchEqual:
    def test_ignores_p_bit(self):
        policy = DemandPrefetchEqualPolicy()
        prefetch = policy.priority(request(True, 5), row_hit=True)
        demand = policy.priority(request(False, 5), row_hit=True)
        assert prefetch == demand

    def test_row_hit_first(self):
        policy = DemandPrefetchEqualPolicy()
        hit = policy.priority(request(True, 10), row_hit=True)
        conflict = policy.priority(request(False, 5), row_hit=False)
        assert hit > conflict


class TestPrefetchFirst:
    def test_prefetch_beats_demand(self):
        policy = PrefetchFirstPolicy()
        prefetch = policy.priority(request(True, 10), row_hit=False)
        demand = policy.priority(request(False, 5), row_hit=True)
        assert prefetch > demand


class TestAPSPriorities:
    def make_aps(self, accuracies, use_urgency=True, use_ranking=False):
        tracker = PrefetchAccuracyTracker(num_cores=len(accuracies))
        for core, accuracy in enumerate(accuracies):
            for _ in range(100):
                tracker.record_sent(core)
            for _ in range(int(accuracy * 100)):
                tracker.record_used(core)
        tracker.end_interval()
        return AdaptivePrefetchScheduler(
            tracker, use_urgency=use_urgency, use_ranking=use_ranking
        )

    def test_accurate_prefetch_is_critical(self):
        aps = self.make_aps([0.95, 0.10])
        critical_pref = aps.priority(request(True, 10, core=0), row_hit=True)
        demand_conflict = aps.priority(request(False, 5, core=1), row_hit=False)
        assert critical_pref > demand_conflict

    def test_inaccurate_prefetch_loses_to_demand(self):
        aps = self.make_aps([0.10, 0.95])
        useless_pref = aps.priority(request(True, 5, core=0), row_hit=True)
        demand = aps.priority(request(False, 10, core=1), row_hit=False)
        assert demand > useless_pref

    def test_urgency_boosts_inaccurate_cores_demands(self):
        aps = self.make_aps([0.95, 0.10])
        accurate_core_demand = aps.priority(request(False, 5, core=0), row_hit=False)
        urgent_demand = aps.priority(request(False, 10, core=1), row_hit=False)
        assert urgent_demand > accurate_core_demand

    def test_urgency_disabled(self):
        aps = self.make_aps([0.95, 0.10], use_urgency=False)
        accurate_core_demand = aps.priority(request(False, 5, core=0), row_hit=False)
        other_demand = aps.priority(request(False, 10, core=1), row_hit=False)
        assert accurate_core_demand > other_demand  # pure FCFS tie-break

    def test_row_hit_decides_among_criticals(self):
        aps = self.make_aps([0.95, 0.95])
        hit = aps.priority(request(True, 10, core=0), row_hit=True)
        conflict = aps.priority(request(False, 5, core=1), row_hit=False)
        assert hit > conflict


class TestAPSRanking:
    def test_fewer_critical_requests_ranks_higher(self):
        tracker = PrefetchAccuracyTracker(num_cores=2)
        aps = AdaptivePrefetchScheduler(tracker, use_ranking=True)
        queues = [
            [request(False, 1, core=0)],
            [request(False, 2, core=1), request(False, 3, core=1)],
        ]
        aps.begin_tick(queues, now=10)
        light = aps.priority(request(False, 10, core=0), row_hit=False)
        heavy = aps.priority(request(False, 5, core=1), row_hit=False)
        assert light > heavy

    def test_non_critical_requests_get_rank_zero(self):
        tracker = PrefetchAccuracyTracker(num_cores=2)
        for _ in range(10):
            tracker.record_sent(0)
            tracker.record_sent(1)
        tracker.end_interval()  # both cores accuracy 0 -> prefetches non-critical
        aps = AdaptivePrefetchScheduler(tracker, use_ranking=True)
        aps.begin_tick([[], []], now=0)
        older = aps.priority(request(True, 5, core=0), row_hit=False)
        younger = aps.priority(request(True, 9, core=1), row_hit=False)
        assert older > younger  # FCFS among equally-ranked non-criticals

    def test_name_reflects_ranking(self):
        tracker = PrefetchAccuracyTracker(num_cores=1)
        assert AdaptivePrefetchScheduler(tracker).name == "aps"
        assert (
            AdaptivePrefetchScheduler(tracker, use_ranking=True).name == "aps-rank"
        )


class TestMakePolicy:
    def test_known_policies(self):
        tracker = PrefetchAccuracyTracker(num_cores=1)
        assert make_policy("demand-first").name == "demand-first"
        assert make_policy("no-pref").name == "demand-first"
        assert make_policy("demand-first-apd").name == "demand-first"
        assert make_policy("demand-prefetch-equal").name == "demand-prefetch-equal"
        assert make_policy("prefetch-first").name == "prefetch-first"
        assert make_policy("aps", tracker).name == "aps"
        assert make_policy("padc", tracker).name == "aps"

    def test_aps_requires_tracker(self):
        with pytest.raises(ValueError):
            make_policy("aps")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("magic")


# -- packed key vs tuple ---------------------------------------------------

CORES = 3

# (core, is_prefetch, arrival, row hit)
request_fields = st.tuples(
    st.integers(min_value=0, max_value=CORES - 1),
    st.booleans(),
    st.integers(min_value=0, max_value=1_000),
    st.booleans(),
)
per_core_counts = st.lists(
    st.integers(min_value=0, max_value=256), min_size=CORES, max_size=CORES
)


def packed(policy, request, row_hit):
    """The key the fast round compares (DESIGN.md §10)."""
    key = policy.priority_key(request, row_hit)
    if policy.rank_add is not None and key >= policy.critical_bit:
        key += policy.rank_add[request.core_id]
    return key


class TestPackedKeyOrdersLikePriority:
    """The packed key plus ``rank_add`` orders requests as ``priority`` does."""

    @pytest.mark.parametrize("name", sorted(POLICY_TABLE))
    @given(
        drawn=st.lists(request_fields, min_size=2, max_size=8),
        critical=st.lists(st.booleans(), min_size=CORES, max_size=CORES),
        demands=per_core_counts,
        prefetches=per_core_counts,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_order(self, name, drawn, critical, demands, prefetches):
        tracker = PrefetchAccuracyTracker(num_cores=CORES)
        tracker.prefetch_critical[:] = critical
        policy = make_policy(name, tracker, num_cores=CORES)
        candidates = [
            (MemRequest(seq, core, is_prefetch, arrival, 0, 0, 0, seq=seq), hit)
            for seq, (core, is_prefetch, arrival, hit) in enumerate(drawn, start=1)
        ]
        if policy.census_based:
            policy.begin_tick_census(demands, prefetches)
        else:
            # PAR-BS marks and ranks from the queue: pad it with each
            # core's drawn demand count (at most 8, above the marking cap).
            queue = [request for request, _ in candidates]
            for core, count in enumerate(demands):
                for _ in range(count % 9):
                    seq = len(queue) + 1
                    queue.append(MemRequest(seq, core, False, seq, 0, 0, 0, seq=seq))
            policy.begin_tick([queue], now=0)
        by_key = sorted(candidates, key=lambda pair: packed(policy, *pair))
        by_tuple = sorted(candidates, key=lambda pair: policy.priority(*pair))
        assert by_key == by_tuple
