"""DRAM controller engine: request buffers + channels + a scheduling policy.

The engine owns one request buffer per channel (organized as per-bank
queues plus a line-address index for demand matching) and performs the
scheduling rounds:

* a *tick* considers every bank that is free at the current cycle, lets the
  policy pick the best request per bank, and services the winners in
  global priority order (so the shared data bus is granted by priority);
* Adaptive Prefetch Dropping, when enabled, removes over-age prefetches
  during the same queue scan, invalidating their MSHR entries through the
  ``on_drop`` callback (paper §4.3–4.4);
* demand requests that find the buffer full wait in an overflow FIFO
  (modelling the back-pressure the paper describes in §6.1); prefetches
  that find it full are simply not sent — which is exactly the coverage
  loss the paper attributes to full request buffers.

Two interchangeable scheduling rounds share all of the above
(DESIGN.md §10):

* the **fast** round (default; :meth:`make_event_ticker`) caches *two*
  packed integer priority keys per request — one for each row-buffer
  outcome — so a bank's open row changing invalidates nothing; only the
  policy's key epoch (bumped on interval boundaries and PAR-BS batch
  formation) and promotion do.  Each free bank's winner comes from one
  pass over its queue comparing the cached keys (re-deriving stale
  ones), plus the policy's selection-time ``rank_add`` under APS
  ranking.  Winner removal is an index-tracked swap-pop; the APD age
  scan is skipped until the bank's earliest drop deadline; closed-row
  precharge queries are answered from per-bank open-row refcounts;
* the **reference** round (:meth:`_tick_reference`) re-derives every
  priority tuple from scratch each round; it is the oracle the fast
  round is checked against.

Both produce byte-identical simulation results — priorities are totally
ordered (the admission sequence number breaks every tie), so winner
selection does not depend on queue order or on how keys are represented.
Select the reference round with ``DRAMControllerEngine(...,
reference=True)`` or system-wide with ``$REPRO_BACKEND=reference``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.controller.apd import AdaptivePrefetchDropper
from repro.controller.policies import SchedulingPolicy
from repro.controller.request import MemRequest
from repro.dram.address import AddressMapping
from repro.dram.bank import RowBufferState
from repro.dram.channel import Channel
from repro.params import DRAMConfig

# Sentinel for "no queued prefetch can ever go over-age": later than any
# reachable simulation cycle.
_NEVER = 1 << 62


class ControllerStats:
    """Aggregate counters kept by the engine."""

    __slots__ = (
        "scheduled_demands",
        "scheduled_prefetches",
        "demand_row_hits",
        "prefetch_row_hits",
        "dropped_prefetches",
        "prefetches_rejected_full",
        "demand_overflows",
        "enqueued_total",
        "rounds",
    )

    def __init__(self):
        self.scheduled_demands = 0
        self.scheduled_prefetches = 0
        self.demand_row_hits = 0
        self.prefetch_row_hits = 0
        self.dropped_prefetches = 0
        self.prefetches_rejected_full = 0
        self.demand_overflows = 0
        # Every request accepted into the controller (buffer or overflow
        # FIFO).  Closes the lifecycle conservation law audited by
        # repro.validate: enqueued == serviced + dropped + still queued.
        self.enqueued_total = 0
        # Scheduling rounds executed (one per tick, across channels and
        # backends).  Not part of SimResult — it pins *work done*, not
        # simulated behavior: the regression test for the APS-rank census
        # path asserts the round count for a fixed seed is unchanged, so
        # a perf fix cannot silently alter how often the scheduler runs.
        self.rounds = 0

    @property
    def serviced_total(self) -> int:
        return self.scheduled_demands + self.scheduled_prefetches


class DRAMControllerEngine:
    """Schedules memory requests onto DRAM channels."""

    def __init__(
        self,
        config: DRAMConfig,
        policy: SchedulingPolicy,
        dropper: Optional[AdaptivePrefetchDropper] = None,
        on_drop: Optional[Callable[[MemRequest], None]] = None,
        reference: bool = False,
    ):
        self.config = config
        self.policy = policy
        self.dropper = dropper
        self.on_drop = on_drop
        self.reference = reference
        self.mapping = AddressMapping(config)
        # Decode constants hoisted for the inlined decode in
        # build_request (AddressMapping validates banks_per_channel).
        self._dec_lines = config.lines_per_row
        self._dec_channels = config.num_channels
        self._dec_banks = config.banks_per_channel
        self._dec_perm = config.permutation_interleaving
        self._dec_bank_mask = config.banks_per_channel - 1
        self.channels: List[Channel] = [
            Channel(config, channel_id) for channel_id in range(config.num_channels)
        ]
        banks = config.banks_per_channel
        self._queues: List[List[List[MemRequest]]] = [
            [[] for _ in range(banks)] for _ in range(config.num_channels)
        ]
        self._index: List[Dict[int, MemRequest]] = [
            {} for _ in range(config.num_channels)
        ]
        self._occupancy: List[int] = [0] * config.num_channels
        self._overflow: List[deque] = [deque() for _ in range(config.num_channels)]
        # Per-channel occupancy high-water marks since the telemetry
        # layer last sampled them (one compare per admission).
        self.peak_occupancy: List[int] = [0] * config.num_channels
        self.stats = ControllerStats()
        # Admission sequence counter: the universal priority tie-break.
        self._seq = 0
        # Per-bank earliest cycle at which a queued prefetch may go
        # over-age; ticks before it skip the APD scan.  0 forces a scan
        # (and a deadline recomputation) on the next round.
        self._drop_check: List[List[int]] = [
            [0] * banks for _ in range(config.num_channels)
        ]
        # Closed-row policy: per-bank refcounts of queued requests per row,
        # so "does any queued request still hit this row?" is O(1).
        self._row_refs: Optional[List[List[Dict[int, int]]]] = (
            None
            if config.open_row_policy
            else [[{} for _ in range(banks)] for _ in range(config.num_channels)]
        )
        # Critical-census counters for ranking policies (APS Rule 2): the
        # per-channel, per-core counts of queued demands and queued
        # prefetches.  ``begin_tick`` needs the per-core number of
        # *critical* requests every round; maintaining these two splits
        # incrementally (admission, service, drop, promotion) turns that
        # from an O(queued) queue scan per round into an O(cores) read —
        # criticality only depends on the demand/prefetch split and the
        # tracker's per-core flags.  Reference path keeps the scan (it is
        # the spec the census is checked against).
        if policy.census_based and not reference:
            cores = policy.tracker.num_cores
            self._census_demand: Optional[List[List[int]]] = [
                [0] * cores for _ in range(config.num_channels)
            ]
            self._census_prefetch: Optional[List[List[int]]] = [
                [0] * cores for _ in range(config.num_channels)
            ]
        else:
            self._census_demand = None
            self._census_prefetch = None
        # Per-channel fused scheduling rounds behind ``tick``, built on
        # first use.  A reference engine shadows ``tick`` with the naive
        # round instead (bound on the instance: one less call layer).
        self._tickers: List[Optional[Callable]] = [None] * config.num_channels
        if reference:
            self.tick = self._tick_reference

    # -- admission ---------------------------------------------------------

    def build_request(
        self,
        line_addr: int,
        core_id: int,
        is_prefetch: bool,
        now: int,
        is_write: bool = False,
        is_runahead: bool = False,
    ) -> MemRequest:
        """Decode the address and construct a request (not yet enqueued)."""
        # Inlined AddressMapping.decode_coords (constants hoisted at
        # construction); the column index is not part of the request, so
        # its modulo is skipped too.
        rest = line_addr // self._dec_lines
        channel = rest % self._dec_channels
        rest //= self._dec_channels
        bank = rest % self._dec_banks
        row = rest // self._dec_banks
        if self._dec_perm:
            bank = (bank ^ row) & self._dec_bank_mask
        self._seq += 1
        return MemRequest(
            line_addr=line_addr,
            core_id=core_id,
            is_prefetch=is_prefetch,
            arrival=now,
            channel=channel,
            bank=bank,
            row=row,
            is_write=is_write,
            is_runahead=is_runahead,
            seq=self._seq,
        )

    def enqueue_prefetch(self, request: MemRequest) -> bool:
        """Admit a prefetch; returns False (not sent) if the buffer is full."""
        channel = request.channel
        if self._occupancy[channel] >= self.config.request_buffer_size:
            self.stats.prefetches_rejected_full += 1
            return False
        self.stats.enqueued_total += 1
        self._admit(request)
        return True

    def enqueue_demand(self, request: MemRequest) -> None:
        """Admit a demand; overflows wait in FIFO order for a free entry."""
        channel = request.channel
        self.stats.enqueued_total += 1
        if self._occupancy[channel] >= self.config.request_buffer_size:
            self.stats.demand_overflows += 1
            self._overflow[channel].append(request)
        else:
            self._admit(request)

    def _admit(self, request: MemRequest) -> None:
        channel = request.channel
        bank_idx = request.bank
        queue = self._queues[channel][bank_idx]
        request.qpos = len(queue)
        queue.append(request)
        # Writebacks stay out of the line-address index: they never match a
        # demand, and indexing them let a writeback to line X silently evict
        # the index entry of a queued read/prefetch to the same line, making
        # find_queued lie about in-buffer requests.
        if not request.is_write:
            self._index[channel][request.line_addr] = request
        if request.is_prefetch and self.dropper is not None:
            checks = self._drop_check[channel]
            deadline = self.dropper.drop_deadline(request)
            if deadline < checks[bank_idx]:
                checks[bank_idx] = deadline
        if self._row_refs is not None:
            refs = self._row_refs[channel][bank_idx]
            refs[request.row] = refs.get(request.row, 0) + 1
        # The request arrives unkeyed (prio_stamp -1); the next round that
        # scans its bank keys it.
        if self._census_demand is not None:
            if request.is_prefetch:
                self._census_prefetch[channel][request.core_id] += 1
            else:
                self._census_demand[channel][request.core_id] += 1
        self._occupancy[channel] += 1
        if self._occupancy[channel] > self.peak_occupancy[channel]:
            self.peak_occupancy[channel] = self._occupancy[channel]

    def _unindex(self, request: MemRequest) -> None:
        """Drop ``request`` from the line-address index (identity-guarded)."""
        if request.is_write:
            return
        index = self._index[request.channel]
        if index.get(request.line_addr) is request:
            del index[request.line_addr]

    def _unref_row(self, request: MemRequest) -> None:
        if self._row_refs is not None:
            refs = self._row_refs[request.channel][request.bank]
            remaining = refs[request.row] - 1
            if remaining:
                refs[request.row] = remaining
            else:
                del refs[request.row]

    def _remove(self, request: MemRequest) -> None:
        self._unindex(request)
        self._unref_row(request)
        self._occupancy[request.channel] -= 1
        self._drain_overflow(request.channel)

    # -- demand matching -----------------------------------------------------

    def find_queued(self, line_addr: int, channel: int) -> Optional[MemRequest]:
        """Look up an in-buffer read/prefetch by line address (for promotion).

        Writebacks are not indexed — a queued writeback to the same line
        never shadows the read/prefetch entry.
        """
        return self._index[channel].get(line_addr)

    def earliest_service(self, request: MemRequest, now: int) -> int:
        """First cycle at which ``request``'s bank could service it.

        Used by the simulator to schedule the admission tick at the bank's
        free time instead of immediately — a round before that provably
        cannot service the new request, and every other bank is already
        covered by its own tick chain.
        """
        busy_until = self.channels[request.channel].banks[request.bank].busy_until
        return busy_until if busy_until > now else now

    # -- priority-cache maintenance ------------------------------------------

    def note_promotion(self, request: MemRequest) -> None:
        """A queued prefetch was promoted to demand status.

        ``promote()`` already invalidated the request's cached keys, so the
        next round that scans its bank re-keys it; this hook moves its
        census count across the demand/prefetch split.  No-op for
        requests that already left the queue and for engines without a
        census (the reference round re-derives everything per round).
        """
        if self._census_demand is None or request.qpos < 0:
            return
        self._census_prefetch[request.channel][request.core_id] -= 1
        self._census_demand[request.channel][request.core_id] += 1

    def note_interval(self) -> None:
        """An accuracy interval ended: per-core scheduler inputs may move.

        Bumps the policy's key epoch (criticality/urgency flags feed APS
        keys) and forces one APD rescan per bank (drop thresholds are
        re-picked from Table 6, so every cached drop deadline is suspect).
        """
        self.policy.notify_interval()
        if self.dropper is not None:
            for checks in self._drop_check:
                for bank_idx in range(len(checks)):
                    checks[bank_idx] = 0

    # -- scheduling ----------------------------------------------------------

    def tick(self, channel_id: int, now: int) -> Tuple[List[MemRequest], Optional[int]]:
        """Run one scheduling round on ``channel_id`` at cycle ``now``.

        Returns the list of requests serviced this round (each with
        ``completion`` and ``row_hit_service`` filled in) and the next
        cycle at which this channel should be ticked again, or ``None`` if
        it is idle until the next arrival.
        """
        ticker = self._tickers[channel_id]
        if ticker is None:
            ticker = self._tickers[channel_id] = self.make_event_ticker(channel_id)
        return ticker(now)

    def make_event_ticker(
        self, channel_id: int
    ) -> Callable[[int], Tuple[List[MemRequest], Optional[int]]]:
        """Build the fast scheduling round for one channel.

        :meth:`tick` builds one per channel on first use and routes every
        round of a non-reference engine through it, which is how the
        simulation loop (DESIGN.md §11) reaches it.  Per-channel state —
        queues, drop deadlines, census splits, the channel's timing
        constants — is bound once instead of re-resolved every round,
        and :meth:`Channel.service` is inlined into the service loop.
        Its byte-identity with :meth:`_tick_reference` is certified by
        the golden-equivalence matrix, the engine-level differential
        property test, the stored loop digests and the differential
        fuzzer.
        """
        channel = self.channels[channel_id]
        banks = channel.banks
        queues = self._queues[channel_id]
        policy = self.policy
        stats = self.stats
        dropper = self.dropper
        drop_checks = self._drop_check[channel_id] if dropper is not None else None
        drop_deadline = dropper.drop_deadline if dropper is not None else None
        priority_key = policy.priority_key
        hit_delta = policy.hit_delta
        critical_bit = policy.critical_bit
        index_map = self._index[channel_id]
        occupancy = self._occupancy
        overflow = self._overflow[channel_id]
        census_d = (
            self._census_demand[channel_id]
            if self._census_demand is not None
            else None
        )
        census_p = (
            self._census_prefetch[channel_id]
            if self._census_prefetch is not None
            else None
        )
        row_refs_ch = None if self._row_refs is None else self._row_refs[channel_id]
        drop = self._drop
        drain = self._drain_overflow
        begin_census = (
            policy.begin_tick_census
            if policy.needs_begin_tick and census_d is not None
            else None
        )
        begin_scan = (
            policy.begin_tick
            if policy.needs_begin_tick and census_d is None
            else None
        )
        # Channel timing constants (Channel.service inlined below).
        burst = channel._burst
        post_burst = channel._post_burst
        hit_work = channel._hit[1]
        closed_work = channel._closed[1]
        conflict_work = channel._conflict[1]

        def tick_event(now):
            stats.rounds += 1
            if begin_census is not None:
                begin_census(census_d, census_p)
            elif begin_scan is not None:
                begin_scan(queues, now)
            epoch = policy.epoch
            rank_add = policy.rank_add
            # Next-wake time is folded into the scan: busy banks contribute
            # here, serviced banks contribute their new busy time below,
            # and overflow draining (which can repopulate any queue) falls
            # back to a full recomputation.
            wake = _NEVER
            drained = False
            # (key, bank_idx, request); keys are unique, so sorting the
            # bare tuples never falls through to comparing requests.
            winners = []
            for bank_idx, queue in enumerate(queues):
                if not queue:
                    continue
                bank = banks[bank_idx]
                busy_until = bank.busy_until
                if busy_until > now:
                    if busy_until < wake:
                        wake = busy_until
                    continue
                if drop_checks is not None and now >= drop_checks[bank_idx]:
                    # Age-scan round: drop over-age prefetches, compact the
                    # queue (fixing queue positions), and re-derive the
                    # bank's earliest drop deadline from the survivors.
                    next_check = _NEVER
                    write = 0
                    for request in queue:
                        if request.is_prefetch:
                            deadline = drop_deadline(request)
                            if now >= deadline:
                                request.qpos = -1
                                drop(request)
                                continue
                            if deadline < next_check:
                                next_check = deadline
                        request.qpos = write
                        queue[write] = request
                        write += 1
                    del queue[write:]
                    drop_checks[bank_idx] = next_check
                    if not queue:
                        continue
                # One pass over the queue: re-key requests whose stamp is
                # stale (new, promoted, or keyed under an older epoch), take
                # the hit key for open-row requests and the miss key
                # otherwise, and apply the selection-time core rank to
                # critical keys.  Keys are unique, so the winner does not
                # depend on queue order.
                open_row = bank.open_row
                best_key = -1
                for request in queue:
                    if request.prio_stamp != epoch:
                        request.prio_base = key = priority_key(request, False)
                        request.prio_hit = key + hit_delta
                        request.prio_stamp = epoch
                    if request.row == open_row:
                        key = request.prio_hit
                    else:
                        key = request.prio_base
                    if rank_add is not None and key >= critical_bit:
                        key += rank_add[request.core_id]
                    if key > best_key:
                        best_key = key
                        best = request
                winners.append((best_key, bank_idx, best))
            if overflow:
                drain(channel_id)
                drained = True
            if len(winners) > 1:
                winners.sort(reverse=True)

            serviced = []
            for key, bank_idx, request in winners:
                row = request.row
                # Channel.service inlined (constants prebound): the bank
                # is occupied for the command sequence, then one burst on
                # the shared bus, granted in scheduling order.
                bank = banks[bank_idx]
                open_row = bank.open_row
                if open_row == row:
                    bank.hits += 1
                    row_hit = True
                    work = hit_work
                elif open_row is None:
                    bank.closed_accesses += 1
                    row_hit = False
                    work = closed_work
                    bank.open_row = row
                else:
                    bank.conflicts += 1
                    row_hit = False
                    work = conflict_work
                    bank.open_row = row
                data_ready = now + work
                bus = channel.bus_busy_until
                burst_end = (data_ready if data_ready > bus else bus) + burst
                channel.bus_busy_until = burst_end
                channel.bus_busy_cycles += burst
                completion = burst_end + post_burst
                bank.busy_until = burst_end
                bank.busy_cycles += burst_end - now
                channel.lines_transferred += 1

                # Swap-pop by tracked position (overflow draining, the only
                # mutation since selection, appends and so never moves it).
                queue = queues[bank_idx]
                pos = request.qpos
                last = queue.pop()
                if last is not request:
                    queue[pos] = last
                    last.qpos = pos
                request.qpos = -1
                if (
                    not request.is_write
                    and index_map.get(request.line_addr) is request
                ):
                    del index_map[request.line_addr]
                if row_refs_ch is not None:
                    refs = row_refs_ch[bank_idx]
                    remaining = refs[row] - 1
                    if remaining:
                        refs[row] = remaining
                    else:
                        del refs[row]
                if census_d is not None:
                    if request.is_prefetch:
                        census_p[request.core_id] -= 1
                    else:
                        census_d[request.core_id] -= 1
                occupancy[channel_id] -= 1
                if overflow:
                    # Drain before the precharge decision: an admitted
                    # demand may re-reference the just-released row.
                    drain(channel_id)
                    drained = True
                if row_refs_ch is not None and row not in row_refs_ch[bank_idx]:
                    bank.open_row = None
                request.service_start = now
                request.completion = completion
                request.row_hit_service = row_hit
                if request.is_prefetch:
                    stats.scheduled_prefetches += 1
                    if row_hit:
                        stats.prefetch_row_hits += 1
                else:
                    stats.scheduled_demands += 1
                    if row_hit:
                        stats.demand_row_hits += 1
                serviced.append(request)
                if queue:
                    # The serviced bank still has work: it wakes when this
                    # service completes its bank occupancy.
                    busy_until = bank.busy_until
                    if busy_until < wake:
                        wake = busy_until

            if drained:
                wake = _NEVER
                bank_idx = 0
                for queue in queues:
                    if queue:
                        busy_until = banks[bank_idx].busy_until
                        if busy_until < wake:
                            wake = busy_until
                    bank_idx += 1
            return serviced, None if wake == _NEVER else wake

        return tick_event

    def _tick_reference(
        self, channel_id: int, now: int
    ) -> Tuple[List[MemRequest], Optional[int]]:
        """The naive scheduling round: every priority re-derived per tick.

        The differential oracle for :meth:`make_event_ticker`: same
        policy semantics, same tie-breaks, none of the caching.
        """
        channel = self.channels[channel_id]
        queues = self._queues[channel_id]
        self.stats.rounds += 1
        self.policy.begin_tick(queues, now)
        winners: List[Tuple[Tuple, int, MemRequest]] = []
        for bank_idx, queue in enumerate(queues):
            if not queue:
                continue
            bank = channel.banks[bank_idx]
            if bank.busy_until > now:
                continue
            open_row = bank.open_row
            best = None
            best_key = None
            write_index = 0
            for request in queue:
                if self.dropper is not None and self.dropper.should_drop(request, now):
                    self._drop(request)
                    continue
                queue[write_index] = request
                write_index += 1
                key = self.policy.priority(request, request.row == open_row)
                if best_key is None or key > best_key:
                    best, best_key = request, key
            del queue[write_index:]
            if best is not None:
                winners.append((best_key, bank_idx, best))
        self._drain_overflow(channel_id)
        winners.sort(key=lambda item: item[0], reverse=True)

        serviced: List[MemRequest] = []
        for _key, bank_idx, request in winners:
            state, completion = channel.service(bank_idx, request.row, now)
            queues[bank_idx].remove(request)
            self._remove(request)
            request.service_start = now
            request.completion = completion
            request.row_hit_service = state is RowBufferState.HIT
            self._record_service(request, state)
            if not self.config.open_row_policy:
                self._maybe_precharge(channel_id, bank_idx, request.row)
            serviced.append(request)

        return serviced, self._next_wake(channel_id)

    def _drop(self, request: MemRequest) -> None:
        # Overflow draining is deferred to the end of the scan: admitting a
        # waiting demand here could append to the bank queue being iterated.
        self._unindex(request)
        self._unref_row(request)
        if self._census_prefetch is not None:
            # Only prefetches are ever dropped.
            self._census_prefetch[request.channel][request.core_id] -= 1
        self._occupancy[request.channel] -= 1
        self.dropper.record_drop(request)
        self.stats.dropped_prefetches += 1
        if self.on_drop is not None:
            self.on_drop(request)

    def _drain_overflow(self, channel_id: int) -> None:
        overflow = self._overflow[channel_id]
        while overflow and self._occupancy[channel_id] < self.config.request_buffer_size:
            self._admit(overflow.popleft())

    def _maybe_precharge(self, channel_id: int, bank_idx: int, row: int) -> None:
        """Closed-row policy, reference form: scan the queue for a row hit."""
        for request in self._queues[channel_id][bank_idx]:
            if request.row == row:
                return
        self.channels[channel_id].banks[bank_idx].precharge()

    def _record_service(self, request: MemRequest, state: RowBufferState) -> None:
        row_hit = state is RowBufferState.HIT
        if request.is_prefetch:
            self.stats.scheduled_prefetches += 1
            if row_hit:
                self.stats.prefetch_row_hits += 1
        else:
            self.stats.scheduled_demands += 1
            if row_hit:
                self.stats.demand_row_hits += 1

    def _next_wake(self, channel_id: int) -> Optional[int]:
        banks = self.channels[channel_id].banks
        wake = None
        bank_idx = 0
        for queue in self._queues[channel_id]:
            if queue:
                busy_until = banks[bank_idx].busy_until
                if wake is None or busy_until < wake:
                    wake = busy_until
            bank_idx += 1
        return wake

    # -- introspection -------------------------------------------------------

    def occupancy(self, channel_id: int) -> int:
        return self._occupancy[channel_id]

    def queued_requests(self, channel_id: int) -> List[MemRequest]:
        return [request for queue in self._queues[channel_id] for request in queue]

    def bank_queues(self, channel_id: int) -> List[List[MemRequest]]:
        """Per-bank queues of one channel (read-only; used by validation)."""
        return self._queues[channel_id]

    def overflow_requests(self, channel_id: int) -> List[MemRequest]:
        """Demands waiting in the overflow FIFO (used by validation)."""
        return list(self._overflow[channel_id])

    def indexed_requests(self, channel_id: int) -> Dict[int, MemRequest]:
        """Snapshot of the line-address index (used by validation)."""
        return dict(self._index[channel_id])

    def census_counts(
        self, channel_id: int
    ) -> Optional[Tuple[List[int], List[int]]]:
        """Per-core queued (demand, prefetch) counts, or ``None`` if not kept.

        Snapshot for validation; only ranking policies on the fast round
        keep the census.
        """
        if self._census_demand is None:
            return None
        return (
            list(self._census_demand[channel_id]),
            list(self._census_prefetch[channel_id]),
        )

    def row_refcounts(self, channel_id: int) -> Optional[List[Dict[int, int]]]:
        """Per-bank queued-request counts by row, or ``None`` if not kept.

        Snapshot for validation; only the closed-row policy keeps them.
        """
        if self._row_refs is None:
            return None
        return [dict(refs) for refs in self._row_refs[channel_id]]

    def total_lines_transferred(self) -> int:
        return sum(channel.lines_transferred for channel in self.channels)
