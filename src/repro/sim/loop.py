"""The simulation loop (DESIGN.md §11).

:func:`run_loop` runs a :class:`~repro.sim.system.System` to the end of
its run.  One heap orders every event as a ``(time, seq, kind, arg)``
tuple, with six kinds:

* ``CORE`` — a core reaches its next L2 access;
* ``RETRY`` — a core retries an access that stalled on a full MSHR file;
* ``FILL`` — a DRAM service completes and fills the L2;
* ``TICK`` — a DRAM channel runs a scheduling round;
* ``INTERVAL`` — the accuracy-sampling interval elapses (PAR update,
  FDP adjustment);
* ``REFRESH`` — a channel's periodic refresh is due.

A global sequence number breaks every equal-time tie, so events at one
cycle run in push order.  A channel has at most one live tick: arming an
earlier one leaves the later tuple in the heap, and a popped tick whose
time is no longer the channel's pending time is discarded.

The hot handlers (core access, prefetch issue, runahead, fill) are
closures over hoisted locals, with the engine's request admission fused
into them.  They are the only implementation of the L2 lookup and fill,
the core's trace consumption and ROB stall test, and demand-to-prefetch
promotion; ``L2Cache`` and ``CoreState`` hold the state they work on.
The cold paths (writebacks, drops, refresh, interval end, result
collection) are single ``System`` methods.  Those push through
``system._seq``, so the closures' local ``seq`` is written back before,
and reloaded after, every call that can push.  The scheduling round is
``engine.tick``: the cached-key round, or the naive reference round on a
``reference`` engine, so both backends run this one loop.
"""

from __future__ import annotations

import gc
import heapq
from typing import Optional

from repro.cache.cache import CacheLine
from repro.cache.mshr import MSHREntry
from repro.controller.request import MemRequest
from repro.sim.results import SimResult

_CORE, _RETRY, _FILL, _TICK, _INTERVAL, _REFRESH = range(6)

# MSHR entries that prefetches may never occupy, kept free for demands.
_DEMAND_MSHR_RESERVE = 4

_NEVER = 1 << 62


def run_loop(
    system, max_accesses_per_core: int, max_cycles: Optional[int]
) -> SimResult:
    """Run ``system`` to completion and return its collected results."""
    config = system.config
    telemetry = system.telemetry
    telemetry.on_start(system)

    heap = system._heap
    heappush = heapq.heappush
    heappop = heapq.heappop
    cores = system.cores
    caches = system._caches
    mshrs = system._mshrs
    prefetchers = system._prefetchers
    ddpfs = system._ddpf
    fdps = system._fdp
    results = system.results
    engine = system.engine
    tracker = system.tracker
    # Looked up once per run, so a wrapper installed on the engine before
    # the run (the speed harness's round timer) sees every round.
    tick = engine.tick
    note_promotion = engine.note_promotion
    # Engine admission state, prebound for the fused admission path (the
    # forks of build_request + enqueue_* + _admit + earliest_service
    # below; every behavioral line is a direct port of those methods).
    e_queues = engine._queues
    e_occupancy = engine._occupancy
    e_overflow = engine._overflow
    e_peak = engine.peak_occupancy
    e_drop_check = engine._drop_check
    e_drop_deadline = (
        engine.dropper.drop_deadline if engine.dropper is not None else None
    )
    e_row_refs = engine._row_refs
    e_census_d = engine._census_demand
    e_census_p = engine._census_prefetch
    e_stats = engine.stats
    e_channels = engine.channels
    buffer_size = engine.config.request_buffer_size
    # AddressMapping.decode_coords, inlined below with its constants
    # hoisted; the column index is not part of a request, so its modulo
    # is skipped too.
    dram = engine.config
    dec_lines = dram.lines_per_row
    dec_channels = dram.num_channels
    dec_banks = dram.banks_per_channel
    dec_perm = dram.permutation_interleaving
    dec_bank_mask = dram.banks_per_channel - 1
    record_sent = tracker.record_sent
    record_used = tracker.record_used
    telemetry_on = system._telemetry_on
    runahead = config.core.runahead
    runahead_depth = config.core.runahead_max_depth
    collect_service_times = system.collect_service_times
    pf_service_pending = system._pf_service_pending
    mshr_waiters = system._mshr_waiters
    tick_pending = system._tick_pending
    # Per-core structure tables for the cache/MSHR/ROB fast paths.
    sets_by_core = [c._sets for c in caches]
    nsets_by_core = [c.num_sets for c in caches]
    assoc_by_core = [c.assoc for c in caches]
    rob_by_core = [c.config.rob_size for c in cores]
    pf_on_access = [None if p is None else p.on_access for p in prefetchers]

    seq = system._seq
    active = system._active_cores

    # -- hot handlers --------------------------------------------------------

    def finish_core(core, now):
        nonlocal active
        if not core.done:
            core.done = True
            core.finish_time = max(now, 1)
            active -= 1
            system._active_cores = active

    def schedule_core_next(core, now):
        nonlocal seq
        if core.accesses_done >= core.target_accesses:
            finish_core(core, now)
            return
        if core.lookahead:
            entry = core.lookahead.popleft()
        else:
            entry = next(core.trace, None)
        if entry is None:
            finish_core(core, now)
            return
        core.pending_entry = entry
        width = core.retire_width
        seq += 1
        heappush(
            heap,
            (now + (entry[0] + width - 1) // width, seq, _CORE, core.core_id),
        )

    def admit(request, channel, bank_idx):
        # Fork of DRAMControllerEngine._admit with the engine state
        # prebound.  The request arrives unkeyed; the next scheduling
        # round that scans its bank keys it.  A reference engine keeps no
        # census, so the census update below is skipped there.
        queue = e_queues[channel][bank_idx]
        request.qpos = len(queue)
        queue.append(request)
        if e_drop_deadline is not None and request.is_prefetch:
            checks = e_drop_check[channel]
            deadline = e_drop_deadline(request)
            if deadline < checks[bank_idx]:
                checks[bank_idx] = deadline
        if e_row_refs is not None:
            refs = e_row_refs[channel][bank_idx]
            refs[request.row] = refs.get(request.row, 0) + 1
        if e_census_d is not None:
            if request.is_prefetch:
                e_census_p[channel][request.core_id] += 1
            else:
                e_census_d[channel][request.core_id] += 1
        occ = e_occupancy[channel] + 1
        e_occupancy[channel] = occ
        if occ > e_peak[channel]:
            e_peak[channel] = occ

    def issue_prefetches(core_id, candidates, pc, now):
        nonlocal seq
        cache = caches[core_id]
        mshr = mshrs[core_id]
        ddpf = ddpfs[core_id]
        fdp = fdps[core_id]
        stats = results[core_id]
        sets = cache._sets
        num_sets = cache.num_sets
        mshr_entries = mshr._entries
        mshr_cap = mshr.capacity - _DEMAND_MSHR_RESERVE
        for index, candidate in enumerate(candidates):
            # Direct membership probes: a resident or in-flight line is
            # never requested again.
            if candidate in sets[candidate % num_sets] or candidate in mshr_entries:
                continue
            if ddpf is not None and not ddpf.allow(candidate, pc):
                stats.pf_filtered += 1
                continue
            # A full MSHR file or request buffer drops the rest of the
            # batch; the stream has already moved past it (paper §6.1).
            if len(mshr_entries) >= mshr_cap:
                stats.pf_mshr_rejected += len(candidates) - index
                break
            # Fused fork of build_request + enqueue_prefetch +
            # earliest_service (decode constants prebound; the engine's
            # admission seq is bumped for rejected prefetches too, as in
            # build_request).
            engine._seq = eseq = engine._seq + 1
            rest = candidate // dec_lines
            channel = rest % dec_channels
            rest //= dec_channels
            bank_idx = rest % dec_banks
            row = rest // dec_banks
            if dec_perm:
                bank_idx = (bank_idx ^ row) & dec_bank_mask
            request = MemRequest(
                candidate, core_id, True, now, channel, bank_idx, row,
                False, False, eseq,
            )
            if e_occupancy[channel] >= buffer_size:
                e_stats.prefetches_rejected_full += 1
                stats.pf_rejected_full += len(candidates) - index
                break
            e_stats.enqueued_total += 1
            admit(request, channel, bank_idx)
            # Fork of MSHR.allocate (capacity and duplicate were checked
            # at the top of the iteration; nothing between mutates the
            # file).
            mshr_entries[candidate] = MSHREntry(candidate, request)
            mshr.total_allocated += 1
            if len(mshr_entries) > mshr.peak_occupancy:
                mshr.peak_occupancy = len(mshr_entries)
            record_sent(core_id)
            stats.pf_sent += 1
            if fdp is not None:
                fdp.sent += 1
            # System._schedule_tick, inlined.
            busy = e_channels[channel].banks[bank_idx].busy_until
            time = busy if busy > now else now
            pending = tick_pending[channel]
            if pending is None or pending > time:
                tick_pending[channel] = time
                seq += 1
                heappush(heap, (time, seq, _TICK, channel))

    def run_runahead(core, now):
        # Runahead execution (paper §6.14): issue the core's future
        # accesses as runahead requests while it is stalled.
        nonlocal seq
        core_id = core.core_id
        cache = caches[core_id]
        mshr = mshrs[core_id]
        on_access = pf_on_access[core_id]
        for entry in core.peek_ahead(runahead_depth):
            line = entry.line_addr
            if cache.touch_for_prefetcher(line) or mshr.contains(line):
                continue
            if mshr.occupancy >= mshr.capacity - _DEMAND_MSHR_RESERVE:
                break
            request = engine.build_request(
                line, core_id, False, now, is_runahead=True
            )
            mshr.allocate(line, request)
            engine.enqueue_demand(request)
            system._seq = seq
            system._schedule_tick(
                request.channel, engine.earliest_service(request, now)
            )
            seq = system._seq
            core.runahead_issued += 1
            if on_access is not None:
                # Only-train policy: existing streams keep training, no new
                # allocations (paper §6.14, [18]).
                candidates = on_access(
                    line, was_hit=False, pc=entry.pc, allocate=False
                )
                if candidates:
                    issue_prefetches(core_id, candidates, entry.pc, now)

    def handle_core(core_id, now, retry):
        nonlocal seq
        core = cores[core_id]
        if core.done:
            return
        entry = core.pending_entry
        if entry is None:
            return
        if retry:
            core.stall_cycles += now - core.stall_start
            core.stalled = False
            core.waiting_mshr = False
        else:
            core.instructions_issued += entry.gap
            core.loads += 1
            core.accesses_done += 1

        mshr = mshrs[core_id]
        line = entry[1]
        is_write = entry[3]
        # The L2 demand lookup (L2Cache holds only the sets).
        cache_set = sets_by_core[core_id][line % nsets_by_core[core_id]]
        line_obj = cache_set.pop(line, None)
        if line_obj is not None:
            cache_set[line] = line_obj  # reinsert at the MRU end
            if is_write:
                line_obj.dirty = True
            if not retry:
                core.l2_hits += 1
            if line_obj.prefetched and not line_obj.ever_used:
                line_obj.ever_used = True
                line_obj.prefetched = False
                count_useful(line_obj.core_id, line, line_obj.row_hit_fill, False)
            on_access = pf_on_access[core_id]
            if on_access is not None:
                candidates = on_access(line, True, pc=entry[2])
                if candidates:
                    issue_prefetches(core_id, candidates, entry[2], now)
        else:
            if not retry:
                # FDP feedback counts architectural misses, so it shares
                # the retry guard: an access that stalled on a full MSHR
                # file and came back is still *one* miss (and the
                # pollution filter probe is consuming, so it must not run
                # twice either).
                core.l2_misses += 1
                fdp = fdps[core_id]
                if fdp is not None:
                    fdp.demand_misses += 1
                    if fdp.pollution_filter.check_miss(line):
                        fdp.pollution_misses += 1
            mshr_entries = mshr._entries
            mshr_entry = mshr_entries.get(line)
            if mshr_entry is not None:
                request = mshr_entry.request
                if request.is_prefetch:
                    # promote() drops the cached keys; note_promotion moves
                    # the request across the rank census (no-op if it
                    # already left the request buffer).
                    request.promote()
                    note_promotion(request)
                    count_useful(request.core_id, line, None, True)
                if is_write:
                    mshr_entry.dirty_on_fill = True
                mshr_entry.waiters.append(core_id)
                # Delete-then-set keeps the dict ordered by send time, the
                # invariant the ROB test's O(1) oldest read below needs.
                od = core.outstanding_demand
                if line in od:
                    del od[line]
                od[line] = core.instructions_issued
            else:
                if len(mshr_entries) >= mshr.capacity:
                    core.stalled = True
                    core.waiting_mshr = True
                    core.stall_start = now
                    core.mshr_stalls += 1
                    # Wake queues are prebuilt per MSHR file in
                    # System.__init__ — plain indexing, no setdefault
                    # allocation on the stall path.
                    mshr_waiters[id(mshr)].append(core_id)
                    return
                # Fused fork of build_request + MSHR.allocate +
                # enqueue_demand + earliest_service (decode constants
                # prebound; MSHR capacity and duplicate just checked).
                engine._seq = eseq = engine._seq + 1
                rest = line // dec_lines
                channel = rest % dec_channels
                rest //= dec_channels
                bank_idx = rest % dec_banks
                row = rest // dec_banks
                if dec_perm:
                    bank_idx = (bank_idx ^ row) & dec_bank_mask
                request = MemRequest(
                    line, core_id, False, now, channel, bank_idx, row,
                    False, False, eseq,
                )
                mshr_entry = MSHREntry(line, request)
                mshr_entries[line] = mshr_entry
                mshr.total_allocated += 1
                if len(mshr_entries) > mshr.peak_occupancy:
                    mshr.peak_occupancy = len(mshr_entries)
                mshr_entry.dirty_on_fill = is_write
                mshr_entry.waiters.append(core_id)
                e_stats.enqueued_total += 1
                if e_occupancy[channel] >= buffer_size:
                    e_stats.demand_overflows += 1
                    e_overflow[channel].append(request)
                else:
                    admit(request, channel, bank_idx)
                # System._schedule_tick, inlined.
                busy = e_channels[channel].banks[bank_idx].busy_until
                time = busy if busy > now else now
                pending = tick_pending[channel]
                if pending is None or pending > time:
                    tick_pending[channel] = time
                    seq += 1
                    heappush(heap, (time, seq, _TICK, channel))
                od = core.outstanding_demand
                if line in od:
                    del od[line]
                od[line] = core.instructions_issued
            on_access = pf_on_access[core_id]
            if on_access is not None:
                candidates = on_access(line, False, pc=entry[2])
                if candidates:
                    issue_prefetches(core_id, candidates, entry[2], now)

        core.pending_entry = None
        # The ROB test: the core stalls once rob_size instructions have
        # issued behind its oldest outstanding miss (the first entry of
        # the send-ordered outstanding_demand).
        od = core.outstanding_demand
        if od and core.instructions_issued - next(iter(od.values())) >= rob_by_core[
            core_id
        ]:
            core.stalled = True
            core.stall_start = now
            if runahead:
                run_runahead(core, now)
        else:
            # schedule_core_next(), inlined.
            if core.accesses_done >= core.target_accesses:
                finish_core(core, now)
                return
            if core.lookahead:
                nxt = core.lookahead.popleft()
            else:
                nxt = next(core.trace, None)
            if nxt is None:
                finish_core(core, now)
                return
            core.pending_entry = nxt
            width = core.retire_width
            seq += 1
            heappush(
                heap,
                (now + (nxt[0] + width - 1) // width, seq, _CORE, core_id),
            )

    def handle_fill(request, now):
        nonlocal seq
        core_id = request.core_id
        mshr = mshrs[core_id]
        stats = results[core_id]
        line = request.line_addr
        if request.is_write:
            # Writeback completion: the data left the chip; nothing fills.
            stats.writeback_fills += 1
            return
        # Fork of MSHR.free.
        mshr_entries = mshr._entries
        mshr_entry = mshr_entries.pop(line, None)
        if mshr_entry is not None:
            mshr.total_freed += 1
        row_hit = bool(request.row_hit_service)

        is_prefetch = request.is_prefetch
        if is_prefetch:
            stats.prefetch_fills += 1
            if row_hit:
                stats.prefetch_row_hits += 1
            if collect_service_times:
                pf_service_pending[core_id][line] = now - request.arrival
        elif request.promoted:
            stats.promoted_fills += 1
            if row_hit:
                stats.promoted_row_hits += 1
        elif request.is_runahead:
            stats.runahead_fills += 1
            if row_hit:
                stats.demand_row_hits += 1
        else:
            stats.demand_fills += 1
            if row_hit:
                stats.demand_row_hits += 1

        # The L2 fill.  The new line lands before the victim's side
        # effects (writeback, unused-prefetch accounting) run.
        dirty_fill = bool(mshr_entry is not None and mshr_entry.dirty_on_fill)
        cache_set = sets_by_core[core_id][line % nsets_by_core[core_id]]
        resident = cache_set.pop(line, None)
        if resident is not None:
            cache_set[line] = resident  # reinsert at the MRU end
            if dirty_fill:
                resident.dirty = True
        else:
            victim = None
            if len(cache_set) >= assoc_by_core[core_id]:
                victim_addr = next(iter(cache_set))
                victim = cache_set.pop(victim_addr)
            cache_set[line] = CacheLine(is_prefetch, core_id, row_hit, dirty_fill)
            if victim is not None:
                if victim.dirty:
                    system._seq = seq
                    system._issue_writeback(victim.core_id, victim_addr, now)
                    seq = system._seq
                if victim.prefetched and not victim.ever_used:
                    results[victim.core_id].pf_evicted_unused += 1
                    system._note_unused_prefetch(victim.core_id, victim_addr)
                elif is_prefetch:
                    fdp = fdps[core_id]
                    if fdp is not None:
                        fdp.pollution_filter.record_eviction(victim_addr)

        if mshr_entry is not None and mshr_entry.waiters:
            waiters_list = mshr_entry.waiters
            if len(waiters_list) == 1:
                # Single waiter (the overwhelmingly common case): skip the
                # order-preserving dedupe dict allocation entirely.
                waiter_ids = waiters_list
            else:
                # A core can appear twice (demand then retry), and wake
                # order must not depend on hash order.
                waiter_ids = dict.fromkeys(waiters_list)
            for waiter_id in waiter_ids:
                waiter = cores[waiter_id]
                od = waiter.outstanding_demand
                od.pop(line, None)
                if waiter.stalled and not waiter.waiting_mshr and not waiter.done:
                    # The ROB test again: resume once the window reopens.
                    if (
                        not od
                        or waiter.instructions_issued - next(iter(od.values()))
                        < rob_by_core[waiter_id]
                    ):
                        waiter.stall_cycles += now - waiter.stall_start
                        waiter.stalled = False
                        schedule_core_next(waiter, now)
        # Fork of System._wake_mshr_waiters (inlined at its only hot call
        # site; the drop path wakes through the System method).
        waiters = mshr_waiters.get(id(mshr))
        if waiters and len(mshr_entries) < mshr.capacity:
            seq += 1
            heappush(heap, (now, seq, _RETRY, waiters.popleft()))

    def count_useful(core_id, line, row_hit_fill, late):
        # A prefetch from ``core_id`` proved useful (PUC += 1).
        record_used(core_id)
        stats = results[core_id]
        stats.pf_used += 1
        if late:
            stats.pf_late += 1
        else:
            stats.prefetch_fills_used += 1
            if row_hit_fill:
                stats.useful_prefetch_row_hits += 1
            if collect_service_times:
                service = pf_service_pending[core_id].pop(line, None)
                if service is not None:
                    stats.useful_service_times.append(service)
        ddpf = ddpfs[core_id]
        if ddpf is not None:
            ddpf.train(line, useful=True)
        fdp = fdps[core_id]
        if fdp is not None:
            fdp.used += 1
            if late:
                fdp.late += 1

    # -- initial events ------------------------------------------------------
    # Cores first, then the interval, then one refresh per channel.
    for core in cores:
        core.target_accesses = max_accesses_per_core
        schedule_core_next(core, 0)
    seq += 1
    heappush(heap, (tracker.interval, seq, _INTERVAL, None))
    if config.dram.refresh_enabled:
        for channel_id, scheduler in enumerate(system._refresh):
            seq += 1
            heappush(
                heap,
                (scheduler.next_refresh_after(0), seq, _REFRESH, channel_id),
            )

    # -- the loop --------------------------------------------------------------
    # The loop allocates no reference cycles, so collection is deferred to
    # the end of the run: the generational GC otherwise pauses every few
    # hundred net allocations to scan tuples that refcounting alone
    # already reclaims.
    cycle_cap = _NEVER if max_cycles is None else max_cycles
    now = system._now
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while heap and active > 0:
            now, _seq, kind, arg = heappop(heap)
            if now > cycle_cap:
                break
            if kind == _CORE:
                handle_core(arg, now, False)
            elif kind == _FILL:
                handle_fill(arg, now)
            elif kind == _TICK:
                # Only the earliest pending tick per channel is live; a
                # popped tick that no longer matches was superseded by an
                # earlier one whose wake chain already covers every
                # serviceable bank, so the round would be a no-op scan.
                if tick_pending[arg] != now:
                    continue
                tick_pending[arg] = None
                # The round may drop prefetches; the drop callback reads
                # system._now and pushes its retry through system._seq.
                system._now = now
                system._seq = seq
                if telemetry_on:
                    telemetry.on_tick(system, arg, now)
                serviced, next_wake = tick(arg, now)
                seq = system._seq
                for request in serviced:
                    seq += 1
                    heappush(heap, (request.completion, seq, _FILL, request))
                if next_wake is not None:
                    # System._schedule_tick, inlined: nothing has re-armed this
                    # channel since its pending tick was cleared above.
                    wake = next_wake if next_wake > now else now + 1
                    tick_pending[arg] = wake
                    seq += 1
                    heappush(heap, (wake, seq, _TICK, arg))
            elif kind == _RETRY:
                handle_core(arg, now, True)
            else:
                system._seq = seq
                if kind == _REFRESH:
                    system._handle_refresh(arg, now)
                else:
                    system._handle_interval(now)
                seq = system._seq
    finally:
        if gc_was_enabled:
            gc.enable()

    system._now = now
    system._seq = seq
    return system._collect(max_cycles)
