"""Full-system assembly and the cold paths of the simulation loop.

The :class:`System` builds the paper's testbed from a
:class:`~repro.params.SystemConfig` and a list of benchmark profiles (one
per core); :meth:`System.run` hands it to the discrete-event loop of
:mod:`repro.sim.loop`, which owns the hot handlers.  The rare events —
writebacks, APD drops, refresh, the end of an accuracy interval — and
result collection are ``System`` methods the loop calls.

Model notes (see DESIGN.md §5): L2 hit latency is assumed hidden by the
out-of-order window; the core stalls only when the ROB fills behind the
oldest outstanding demand miss.  Prefetches may never occupy the last
``_DEMAND_MSHR_RESERVE`` MSHR entries (:mod:`repro.sim.loop`).
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Union

from repro.cache.cache import L2Cache
from repro.cache.mshr import MSHR
from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.apd import AdaptivePrefetchDropper
from repro.controller.engine import DRAMControllerEngine
from repro.controller.policies import make_policy
from repro.controller.request import MemRequest
from repro.core.core import CoreState
from repro.dram.refresh import RefreshScheduler
from repro.params import SystemConfig, resolve_backend
from repro.prefetch.base import make_prefetcher
from repro.prefetch.ddpf import DDPFFilter
from repro.prefetch.fdp import FDPController
from repro.sim.loop import (
    _CORE,
    _FILL,
    _INTERVAL,
    _REFRESH,
    _RETRY,
    _TICK,
    run_loop,
)
from repro.sim.results import CoreResult, SimResult
from repro.telemetry.collector import NoopCollector, as_collector
from repro.validate.checker import InvariantChecker, check_enabled
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.resolve import resolve_workload
from repro.workloads.synthetic import SyntheticTraceGenerator

# Cores get disjoint line-address spaces (separate processes).
_CORE_ADDR_SHIFT = 54

# A workload per core: a benchmark name, a ``trace:<name-or-path>`` spec,
# a BenchmarkProfile, or a resolved repro.trace.TraceWorkload.
ProfileLike = Union[str, BenchmarkProfile, object]


class System:
    """One simulated CMP: cores, caches, prefetchers and the controller."""

    def __init__(
        self,
        config: SystemConfig,
        benchmarks: Sequence[ProfileLike],
        seed: int = 0,
        collect_service_times: bool = False,
        check: Optional[bool] = None,
        telemetry: Union[None, bool, NoopCollector] = None,
        backend: Optional[str] = None,
    ):
        if len(benchmarks) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores but {len(benchmarks)} benchmarks"
            )
        self.config = config
        # Synthetic profiles and trace workloads, one per core — every
        # spelling (name, "trace:" spec, profile, TraceWorkload) funnels
        # through the shared resolver.
        self.profiles: List = [resolve_workload(workload) for workload in benchmarks]
        self.seed = seed
        self.collect_service_times = collect_service_times

        padc = config.padc
        self.prefetch_enabled = config.prefetcher.enabled and config.policy != "no-pref"
        self.tracker = PrefetchAccuracyTracker(
            num_cores=config.num_cores,
            interval=padc.accuracy_interval,
            promotion_threshold=padc.promotion_threshold,
            drop_thresholds=padc.drop_thresholds,
        )
        policy = make_policy(
            config.policy,
            tracker=self.tracker,
            use_urgency=padc.use_urgency,
            use_ranking=padc.use_ranking,
            num_cores=config.num_cores,
        )
        dropper = (
            AdaptivePrefetchDropper(self.tracker, padc.age_granularity)
            if config.policy in ("padc", "demand-first-apd")
            else None
        )
        # Simulation backend: the scheduling round the one loop runs —
        # the cached-key round by default, the naive reference round (the
        # oracle) on request.  Both produce byte-identical results; the
        # golden-equivalence tests, the differential fuzzer and the stored
        # loop digests pin this (DESIGN.md §10–11).  Resolution order:
        # explicit ``backend=`` arg > ``$REPRO_BACKEND`` > the package
        # default.
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or None
        backend = resolve_backend(backend)
        self.backend = backend
        self.engine = DRAMControllerEngine(
            config.dram,
            policy,
            dropper=dropper,
            on_drop=self._on_drop,
            reference=backend == "reference",
        )

        if config.cache.shared:
            shared_cache = L2Cache(config.cache)
            shared_mshr = MSHR(config.cache.mshr_entries)
            self._caches = [shared_cache] * config.num_cores
            self._mshrs = [shared_mshr] * config.num_cores
        else:
            self._caches = [L2Cache(config.cache) for _ in range(config.num_cores)]
            self._mshrs = [
                MSHR(config.cache.mshr_entries) for _ in range(config.num_cores)
            ]

        self._prefetchers = []
        self._ddpf: List[Optional[DDPFFilter]] = []
        self._fdp: List[Optional[FDPController]] = []
        for core_id in range(config.num_cores):
            if self.prefetch_enabled:
                prefetcher = make_prefetcher(config.prefetcher)
            else:
                prefetcher = None
            self._prefetchers.append(prefetcher)
            filter_kind = config.prefetcher.filter_kind if prefetcher else None
            self._ddpf.append(DDPFFilter() if filter_kind == "ddpf" else None)
            self._fdp.append(
                FDPController(prefetcher) if filter_kind == "fdp" else None
            )

        self.cores: List[CoreState] = []
        self.results: List[CoreResult] = []
        for core_id, workload in enumerate(self.profiles):
            offset = (core_id + 1) << _CORE_ADDR_SHIFT
            if isinstance(workload, BenchmarkProfile):
                trace = SyntheticTraceGenerator(
                    workload, seed=seed + core_id
                ).generate(offset=offset)
            else:
                # TraceWorkload: deterministic file replay — the seed does
                # not perturb it, but the per-core offset contract holds.
                trace = workload.entries(offset=offset)
            self.cores.append(
                CoreState(core_id, config.core, trace, target_accesses=0)
            )
            self.results.append(CoreResult(core_id=core_id, benchmark=workload.name))

        self._heap: List = []
        self._seq = 0
        self._now = 0
        self._active_cores = config.num_cores
        # The time of each channel's one live tick (None when idle).
        self._tick_pending: List[Optional[int]] = [None] * config.dram.num_channels
        # One wake queue per distinct MSHR file, prebuilt so the MSHR-full
        # stall path appends to an existing deque instead of paying a
        # setdefault + deque() allocation per stall (DESIGN.md §15).
        self._mshr_waiters: Dict[int, Deque[int]] = {}
        for mshr in self._mshrs:
            self._mshr_waiters.setdefault(id(mshr), deque())
        self._pf_service_pending: List[Dict[int, int]] = [
            {} for _ in range(config.num_cores)
        ]
        self._refresh: List[RefreshScheduler] = [
            RefreshScheduler(config.dram) for _ in range(config.dram.num_channels)
        ]
        # Checked mode: audit conservation laws at interval boundaries and
        # end-of-sim.  ``check=None`` defers to the $REPRO_CHECK knob.
        if check is None:
            check = check_enabled()
        self.checker: Optional[InvariantChecker] = (
            InvariantChecker(self) if check else None
        )
        # Interval telemetry (DESIGN.md §9).  The per-tick hook is guarded
        # by ``_telemetry_on`` so the disabled path costs one branch; the
        # interval hooks run unconditionally (they are off the hot path).
        self.telemetry = as_collector(telemetry)
        self._telemetry_on = self.telemetry.enabled
        self._ran = False

    # -- event plumbing ------------------------------------------------------

    def _push(self, time: int, kind: int, arg) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, arg))

    def _schedule_tick(self, channel: int, time: int) -> None:
        pending = self._tick_pending[channel]
        if pending is not None and pending <= time:
            return
        self._tick_pending[channel] = time
        self._push(time, _TICK, channel)

    # -- public API ------------------------------------------------------------

    def run(
        self, max_accesses_per_core: int = 20_000, max_cycles: Optional[int] = None
    ) -> SimResult:
        """Run the simulation and return the collected results.

        Each core executes ``max_accesses_per_core`` L2 accesses of its
        trace (the stand-in for the paper's 200M-instruction Pinpoint
        slices); ``max_cycles`` is a safety bound.
        """
        if self._ran:
            raise RuntimeError(
                "System.run() called twice: a System holds run state (event "
                "heap, counters, trace cursors) and cannot be re-run; build "
                "a fresh System, or use repro.api.simulate() which does"
            )
        self._ran = True
        return run_loop(self, max_accesses_per_core, max_cycles)

    # -- cold paths ------------------------------------------------------------

    def _issue_writeback(self, core_id: int, line: int, now: int) -> None:
        """Send a dirty evicted line back to DRAM.

        Writebacks travel through an (unbounded) write buffer rather than
        the MSHR file, schedule as demands, and wake nobody on completion.
        """
        request = self.engine.build_request(
            line, core_id, False, now, is_write=True
        )
        self.engine.enqueue_demand(request)
        self._schedule_tick(
            request.channel, self.engine.earliest_service(request, now)
        )

    def _note_unused_prefetch(self, core_id: int, line: int) -> None:
        """A prefetched line left the cache (or was dropped) unused."""
        ddpf = self._ddpf[core_id]
        if ddpf is not None:
            ddpf.train(line, useful=False)
        if self.collect_service_times:
            pending = self._pf_service_pending[core_id]
            service = pending.pop(line, None)
            if service is not None:
                self.results[core_id].useless_service_times.append(service)

    def _wake_mshr_waiters(self, mshr: MSHR, now: int) -> None:
        waiters = self._mshr_waiters.get(id(mshr))
        if not waiters or mshr.full:
            return
        core_id = waiters.popleft()
        self._push(now, _RETRY, core_id)

    def _on_drop(self, request: MemRequest) -> None:
        """APD dropped a prefetch: invalidate its MSHR entry (paper §4.4)."""
        core_id = request.core_id
        self._mshrs[core_id].free(request.line_addr)
        self.results[core_id].pf_dropped += 1
        self._note_unused_prefetch(core_id, request.line_addr)
        self._wake_mshr_waiters(self._mshrs[core_id], self._now)

    def _handle_refresh(self, channel_id: int, now: int) -> None:
        scheduler = self._refresh[channel_id]
        done = scheduler.apply(self.engine.channels[channel_id], now)
        self._schedule_tick(channel_id, done)
        if self._active_cores > 0:
            self._push(scheduler.next_refresh_after(now), _REFRESH, channel_id)

    # -- interval events -------------------------------------------------------------

    def _handle_interval(self, now: int) -> None:
        if self.checker is not None:
            # Audit before end_interval resets PSC/PUC: the checker compares
            # the live interval counters against the per-core stat deltas.
            self.checker.on_interval(now)
        # Telemetry brackets the PAR recomputation: the pre-hook reads the
        # interval's live PSC/PUC, the post-hook the derived PAR state.
        self.telemetry.on_interval_pre(self, now)
        self.tracker.end_interval()
        # New PAR/threshold values: invalidate cached priority keys and
        # force the APD drop deadlines to be re-derived.
        self.engine.note_interval()
        for fdp in self._fdp:
            if fdp is not None:
                fdp.adjust()
        self.telemetry.on_interval_post(self, now)
        if self._active_cores > 0:
            self._check_progress(now)
            self._push(now + self.tracker.interval, _INTERVAL, None)

    def _check_progress(self, now: int) -> None:
        """Raise if no active core can ever run again.

        A core waits for its next access (``CORE``), a free MSHR entry
        (``RETRY``) or a fill (``FILL``), and a fill can only come from a
        request the engine holds.  With none of these left, the interval
        and refresh events would re-arm until ``max_cycles``.
        """
        if any(event[2] in (_CORE, _RETRY, _FILL) for event in self._heap):
            return
        engine = self.engine
        for channel in range(self.config.dram.num_channels):
            if engine.occupancy(channel) or engine.overflow_requests(channel):
                return
        stalled = [core.core_id for core in self.cores if not core.done]
        raise RuntimeError(
            f"cores {stalled} are stalled with nothing in flight at cycle {now}: "
            "no core, retry or fill event is pending and the controller holds "
            "no request"
        )

    # -- results --------------------------------------------------------------------

    def _collect(self, max_cycles: Optional[int]) -> SimResult:
        end_time = self._now if max_cycles is None else min(self._now, max_cycles)
        for core, stats in zip(self.cores, self.results):
            if not core.done:
                # Charge an unfinished stall up to the end of simulation.
                if core.stalled:
                    core.stall_cycles += max(0, end_time - core.stall_start)
                core.finish_time = max(end_time, 1)
            stats.instructions = core.instructions_retired
            stats.cycles = core.finish_time
            stats.loads = core.loads
            stats.stall_cycles = core.stall_cycles
            stats.l2_hits = core.l2_hits
            stats.l2_misses = core.l2_misses
            stats.mshr_stalls = core.mshr_stalls
        engine_stats = self.engine.stats
        total_row_hits = sum(
            bank.hits for channel in self.engine.channels for bank in channel.banks
        )
        total_accesses = sum(
            bank.total_accesses
            for channel in self.engine.channels
            for bank in channel.banks
        )
        if self.checker is not None:
            self.checker.on_end(end_time)
        trace = self.telemetry.finalize(self, end_time)
        return SimResult(
            policy=self.config.policy,
            cores=self.results,
            total_cycles=max((core.finish_time for core in self.cores), default=0),
            bus_traffic_lines=self.engine.total_lines_transferred(),
            row_buffer_hit_rate=(
                total_row_hits / total_accesses if total_accesses else 0.0
            ),
            dropped_prefetches=engine_stats.dropped_prefetches,
            prefetches_rejected_full=engine_stats.prefetches_rejected_full,
            demand_overflows=engine_stats.demand_overflows,
            accuracy_history=[list(h) for h in self.tracker.history],
            trace=trace,
        )


def simulate(
    config: SystemConfig,
    benchmarks: Sequence[ProfileLike],
    max_accesses_per_core: int = 20_000,
    *,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    collect_service_times: bool = False,
    check: Optional[bool] = None,
    telemetry: Union[None, bool, NoopCollector] = None,
    backend: Optional[str] = None,
) -> SimResult:
    """Build a :class:`System` and run it — the one-call entry point.

    The tuning knobs are keyword-only.  ``check=True`` (or
    ``$REPRO_CHECK=1`` with ``check=None``) runs the simulation under the
    :mod:`repro.validate` invariant auditor; ``telemetry=True`` (or a
    collector instance) attaches an interval-sampled
    :class:`~repro.telemetry.trace.SimTrace` to the result.
    ``backend`` selects the scheduling round the loop runs (``"event"``
    or ``"reference"``) — both produce byte-identical results.
    """
    system = System(
        config,
        benchmarks,
        seed=seed,
        collect_service_times=collect_service_times,
        check=check,
        telemetry=telemetry,
        backend=backend,
    )
    return system.run(max_accesses_per_core, max_cycles=max_cycles)
