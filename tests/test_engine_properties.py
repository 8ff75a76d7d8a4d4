"""Property-based tests: random request streams through the engine.

Invariants checked over arbitrary admission/tick sequences:

* every admitted request is eventually serviced or dropped, never both;
* completions are causally consistent (no service before arrival, data
  after service);
* the data bus never carries two bursts at once;
* buffer occupancy never exceeds its capacity;
* the fast scheduling round and the naive reference round service the
  same requests at the same cycles and drop the same prefetches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.apd import AdaptivePrefetchDropper
from repro.controller.engine import ControllerStats, DRAMControllerEngine
from repro.controller.policies import make_policy
from repro.params import DRAMConfig

# (is_prefetch, line_addr, delay-to-next-event)
request_stream = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=0, max_value=300),
    ),
    min_size=1,
    max_size=60,
)


def drive(engine, stream, cores=1):
    """Admit the stream with interleaved ticks; then drain.

    Requests are spread over ``cores`` cores by line address.
    """
    serviced = []
    now = 0
    seen_lines = set()
    for is_prefetch, line, delay in stream:
        if line in seen_lines:
            continue  # MSHRs upstream would have merged duplicates
        seen_lines.add(line)
        request = engine.build_request(line, line % cores, is_prefetch, now)
        if is_prefetch:
            engine.enqueue_prefetch(request)
        else:
            engine.enqueue_demand(request)
        done, _wake = engine.tick(0, now)
        serviced.extend(done)
        now += delay
    # Drain: keep ticking until nothing is queued anywhere.
    for _ in range(10_000):
        if not engine.queued_requests(0) and engine.occupancy(0) == 0:
            break
        done, wake = engine.tick(0, now)
        serviced.extend(done)
        now = max(now + 1, wake if wake is not None else now + 1)
    return serviced, now


class TestEngineProperties:
    @given(request_stream)
    @settings(max_examples=80, deadline=None)
    def test_everything_serviced_under_demand_first(self, stream):
        engine = DRAMControllerEngine(
            DRAMConfig(request_buffer_size=16), make_policy("demand-first")
        )
        serviced, _ = drive(engine, stream)
        admitted = (
            engine.stats.scheduled_demands + engine.stats.scheduled_prefetches
        )
        assert len(serviced) == admitted
        assert engine.occupancy(0) == 0

    @given(request_stream)
    @settings(max_examples=80, deadline=None)
    def test_causality(self, stream):
        engine = DRAMControllerEngine(
            DRAMConfig(request_buffer_size=16), make_policy("demand-prefetch-equal")
        )
        serviced, _ = drive(engine, stream)
        for request in serviced:
            assert request.service_start >= request.arrival
            assert request.completion > request.service_start

    @given(request_stream)
    @settings(max_examples=80, deadline=None)
    def test_lines_transferred_match_services(self, stream):
        engine = DRAMControllerEngine(
            DRAMConfig(request_buffer_size=16), make_policy("demand-first")
        )
        serviced, _ = drive(engine, stream)
        assert engine.total_lines_transferred() == len(serviced)

    @given(request_stream)
    @settings(max_examples=60, deadline=None)
    def test_serviced_plus_dropped_equals_admitted_under_padc(self, stream):
        tracker = PrefetchAccuracyTracker(num_cores=1)
        for _ in range(10):
            tracker.record_sent(0)
        tracker.end_interval()  # accuracy 0 -> 100-cycle drop threshold
        dropped = []
        engine = DRAMControllerEngine(
            DRAMConfig(request_buffer_size=16),
            make_policy("padc", tracker),
            dropper=AdaptivePrefetchDropper(tracker),
            on_drop=dropped.append,
        )
        serviced, _ = drive(engine, stream)
        admitted = (
            engine.stats.scheduled_demands
            + engine.stats.scheduled_prefetches
            + engine.stats.dropped_prefetches
        )
        assert len(serviced) + len(dropped) == admitted
        assert not (set(id(r) for r in serviced) & set(id(r) for r in dropped))
        for victim in dropped:
            assert victim.is_prefetch
            assert victim.dropped

    @given(request_stream)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_bounded(self, stream):
        engine = DRAMControllerEngine(
            DRAMConfig(request_buffer_size=8), make_policy("demand-first")
        )
        now = 0
        seen = set()
        for is_prefetch, line, delay in stream:
            if line in seen:
                continue
            seen.add(line)
            request = engine.build_request(line, 0, is_prefetch, now)
            if is_prefetch:
                engine.enqueue_prefetch(request)
            else:
                engine.enqueue_demand(request)
            assert engine.occupancy(0) <= 8
            engine.tick(0, now)
            now += delay

    @given(request_stream)
    @settings(max_examples=40, deadline=None)
    def test_bus_bursts_never_overlap(self, stream):
        engine = DRAMControllerEngine(
            DRAMConfig(request_buffer_size=16), make_policy("demand-first")
        )
        serviced, _ = drive(engine, stream)
        burst = engine.config.timings.burst
        cl = engine.config.timings.cl
        # With pipelined CAS, completion = burst_end + CL; reconstruct the
        # burst windows and check pairwise disjointness.
        windows = sorted(
            (request.completion - cl - burst, request.completion - cl)
            for request in serviced
        )
        for (start_a, end_a), (start_b, _end_b) in zip(windows, windows[1:]):
            assert start_b >= end_a


# -- fast round vs reference round ------------------------------------------

# Denser than ``request_stream``: short gaps and eight rows per bank keep
# several requests queued per bank, so row-hit selection, tie-breaks and
# APD drops all decide outcomes.
dense_stream = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=4_095),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=1,
    max_size=80,
)

# name -> (policy, with dropper, cores, open-row policy)
DIFFERENTIAL_CONFIGS = {
    "demand-first": ("demand-first", False, 1, True),
    "padc": ("padc", True, 2, True),
    "padc-rank": ("padc-rank", True, 2, True),
    "padc-closed-row": ("padc", True, 2, False),
}


def _differential_engine(name, reference):
    policy, with_dropper, cores, open_row = DIFFERENTIAL_CONFIGS[name]
    # Core 0's prefetches measure inaccurate (short drop threshold, not
    # critical), core 1's accurate: APS, ranking and APD all see two
    # distinct cores.
    tracker = PrefetchAccuracyTracker(num_cores=cores)
    for core in range(cores):
        for _ in range(10):
            tracker.record_sent(core)
            if core == 1:
                tracker.record_used(core)
    tracker.end_interval()
    dropped = []
    engine = DRAMControllerEngine(
        DRAMConfig(request_buffer_size=16, open_row_policy=open_row),
        make_policy(policy, tracker, num_cores=cores),
        dropper=AdaptivePrefetchDropper(tracker) if with_dropper else None,
        on_drop=dropped.append,
        reference=reference,
    )
    return engine, dropped, cores


def _observed(name, reference, stream):
    engine, dropped, cores = _differential_engine(name, reference)
    serviced, end = drive(engine, stream, cores=cores)
    return {
        "serviced": [
            (r.line_addr, r.service_start, r.completion, r.row_hit_service)
            for r in serviced
        ],
        "dropped": sorted(r.line_addr for r in dropped),
        "stats": {
            slot: getattr(engine.stats, slot) for slot in ControllerStats.__slots__
        },
        "end": end,
    }


class TestFastRoundMatchesReference:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
    @given(stream=dense_stream)
    @settings(max_examples=200, deadline=None)
    def test_same_services_stats_and_drops(self, name, stream):
        assert _observed(name, False, stream) == _observed(name, True, stream)
