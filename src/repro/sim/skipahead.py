"""The skip-ahead event backend (DESIGN.md §11).

:func:`run_event` is a fused alternative to :meth:`System.run`'s event
heap.  Instead of pushing TICK/INTERVAL/REFRESH tuples through the heap
and discarding the superseded ones on pop, it keeps those recurring
events as *scalar* next-fire slots (one per channel for ticks and
refreshes, one global for the accuracy interval) and, each iteration,
advances the clock directly to the earliest timestamp among the heap
front and the scalar slots.  Only the irregular events — core progress,
MSHR retries, DRAM fills — still travel through the heap.

On top of the scalar slots, the hot handlers (core access, prefetch
issue, fill) are forked from :class:`System` with every cross-call
attribute hoisted into closure locals; cold paths (runahead, writebacks,
drops, checker, refresh) delegate to the shared ``System`` methods so
there is exactly one implementation of each rare behavior.

Byte-identity with the reference heap loop (certified by the golden
equivalence matrix and the differential fuzzer) rests on two rules:

* **Sequence parity** — ties between equal-time events are broken by a
  global sequence counter, so this loop must consume sequence numbers at
  exactly the program points the heap version pushes events, including
  for events that end up superseded (the heap version burns a number on
  the push it later discards).  ``System._schedule_tick_event`` and the
  inline arms below mirror every such point.
* **Discard equivalence** — a superseded heap tick is popped, bumps
  ``_now`` and is dropped without side effects; since a later real event
  always follows while cores are active (the interval event re-arms
  itself), the transient ``_now`` value is never observed, so the scalar
  slots may simply be overwritten.

Cold helpers called from here mutate ``system._seq`` through the shared
``System`` methods, so the closure-local ``seq`` is written back before
— and reloaded after — every such call.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Optional

from repro.cache.cache import CacheLine
from repro.cache.mshr import MSHREntry
from repro.controller.request import MemRequest
from repro.prefetch.stream import _ALLOCATED, _MONITORING, StreamPrefetcher
from repro.sim.results import SimResult
from repro.sim.system import (
    _CORE,
    _DEMAND_MSHR_RESERVE,
    _FILL,
    _RETRY,
)

_NEVER = 1 << 62


def run_event(
    system, max_accesses_per_core: int, max_cycles: Optional[int]
) -> SimResult:
    """Run ``system`` to completion with the skip-ahead loop."""
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
    # One fused scheduling-round closure per channel (per-channel engine
    # state prebound, Channel.service inlined), called directly rather
    # than through engine.tick.
    tickers = [engine.make_event_ticker(ch) for ch in range(config.dram.num_channels)]
    note_promotion = engine.note_promotion
    # Engine admission state, prebound for the fused admission path (the
    # forks of build_request + enqueue_* + _admit + earliest_service
    # below; every behavioral line is a direct port of those methods).
    e_queues = engine._queues
    e_index = engine._index
    e_occupancy = engine._occupancy
    e_overflow = engine._overflow
    e_peak = engine.peak_occupancy
    e_drop_check = engine._drop_check
    e_drop_deadline = (
        engine.dropper.drop_deadline if engine.dropper is not None else None
    )
    e_row_refs = engine._row_refs
    e_base_heaps = engine._base_heaps
    e_row_buckets = engine._row_buckets
    e_bank_epoch = engine._bank_epoch
    e_census_d = engine._census_demand
    e_census_p = engine._census_prefetch
    e_stats = engine.stats
    e_policy = engine.policy
    # priority_key / hit_delta are fixed at policy construction (only the
    # epoch moves at interval boundaries), so the keying fork below can
    # bind them once.
    e_priority_key = e_policy.priority_key
    e_hit_delta = e_policy.hit_delta
    e_channels = engine.channels
    buffer_size = engine.config.request_buffer_size
    dec_lines = engine._dec_lines
    dec_channels = engine._dec_channels
    dec_banks = engine._dec_banks
    dec_perm = engine._dec_perm
    dec_bank_mask = engine._dec_bank_mask
    record_sent = tracker.record_sent
    record_used = tracker.record_used
    telemetry_on = system._telemetry_on
    checker = system.checker
    runahead = config.core.runahead
    skipless = config.prefetcher.skipless
    mshr_waiters = system._mshr_waiters
    tick_pending = system._tick_pending
    tick_seq = system._tick_seq
    tick_stale = system._tick_stale
    nch = config.dram.num_channels
    channels = range(nch)
    # Per-core structure tables for the forked cache/MSHR/ROB fast paths.
    sets_by_core = [c._sets for c in caches]
    nsets_by_core = [c.num_sets for c in caches]
    assoc_by_core = [c.assoc for c in caches]
    rob_by_core = [c.config.rob_size for c in cores]
    def make_stream_access(pf):
        # Fork of StreamPrefetcher.on_access with _find inlined (one frame
        # per access instead of two) for the exact base class; subclasses
        # and other prefetchers keep their own on_access below.  The hot
        # call sites always run the default allocate=True policy (only
        # runahead passes allocate=False, and that goes through the shared
        # System path).  Ascending batches come back as a ``range`` — the
        # issue loop only enumerates and len()s them.
        entries = pf.entries
        allocate = pf._allocate

        def stream_access(line_addr, was_hit, pc):
            pf._tick = tick = pf._tick + 1
            found = None
            for entry in entries:
                if entry.lo <= line_addr <= entry.hi:
                    found = entry
                    break
            if found is None:
                if not was_hit:
                    allocate(line_addr)
                return ()
            found.last_use = tick
            if found.state == _ALLOCATED:
                start = found.start
                if line_addr == start:
                    return ()
                found.direction = direction = 1 if line_addr > start else -1
                end = start + pf.distance * direction
                found.mon_start = start
                found.mon_end = end
                found.state = _MONITORING
                if direction > 0:
                    found.lo = start
                    found.hi = end
                else:
                    found.lo = end
                    found.hi = start
                return ()
            direction = found.direction
            edge = found.mon_end
            degree = pf.degree
            shift = degree * direction
            found.mon_end = edge + shift
            found.mon_start += shift
            found.lo += shift
            found.hi += shift
            pf._last_triggered = found
            if direction > 0:
                return range(edge + 1, edge + degree + 1)
            return [
                address
                for address in range(edge - 1, edge - degree - 1, -1)
                if address >= 0
            ]

        return stream_access

    # The fused fork is gated on the exact class AND on ``on_access`` not
    # being shadowed on the instance: tests and telemetry wrap prefetchers
    # by assigning a spy to ``p.on_access``, and the fork would silently
    # bypass it.
    pf_on_access = [
        None
        if p is None
        else (
            make_stream_access(p)
            if type(p) is StreamPrefetcher and "on_access" not in p.__dict__
            else p.on_access
        )
        for p in prefetchers
    ]

    seq = system._seq

    # -- forked hot handlers -------------------------------------------------
    # Byte-for-byte ports of the System methods of the same names; every
    # behavioral line matches — only the attribute loads are hoisted.

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

    def schedule_tick(channel, time):
        # Mirrors System._schedule_tick_event (see its docstring for the
        # sequence-parity and stale-revival rules) over closure locals,
        # folding the arm into the cached scalar minimum: an arm only ever
        # moves a slot *earlier* (later times return at the guard), so a
        # single compare keeps ``sc_*`` equal to the true minimum without
        # rescanning.
        nonlocal seq, sc_time, sc_seq, sc_src, sc_ch
        pending = tick_pending[channel]
        if pending is not None and pending <= time:
            return
        seq += 1
        stale = tick_stale[channel]
        if pending is not None and pending not in stale:
            stale[pending] = tick_seq[channel]
        revived = stale.get(time)
        eff = seq if revived is None else revived
        tick_pending[channel] = time
        tick_seq[channel] = eff
        if time < sc_time or (time == sc_time and eff < sc_seq):
            sc_time = time
            sc_seq = eff
            sc_src = 2
            sc_ch = channel

    def admit(request, channel, bank_idx):
        # Fork of DRAMControllerEngine._admit (non-reference form) with
        # the engine state prebound.
        queue = e_queues[channel][bank_idx]
        request.qpos = len(queue)
        queue.append(request)
        if not request.is_write:
            e_index[channel][request.line_addr] = request
        if e_drop_deadline is not None and request.is_prefetch:
            checks = e_drop_check[channel]
            deadline = e_drop_deadline(request)
            if deadline < checks[bank_idx]:
                checks[bank_idx] = deadline
        if e_row_refs is not None:
            refs = e_row_refs[channel][bank_idx]
            refs[request.row] = refs.get(request.row, 0) + 1
        epoch = e_policy.epoch
        if e_bank_epoch[channel][bank_idx] == epoch:
            # Fork of DRAMControllerEngine._push_keyed.
            key = e_priority_key(request, False)
            request.prio_base = key
            hit_key = key + e_hit_delta
            request.prio_hit = hit_key
            request.prio_stamp = epoch
            heappush(e_base_heaps[channel][bank_idx], (-key, request))
            buckets = e_row_buckets[channel][bank_idx]
            row = request.row
            bucket = buckets.get(row)
            if bucket is None:
                buckets[row] = bucket = []
            heappush(bucket, (-hit_key, request))
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
        nonlocal seq, sc_time, sc_seq, sc_src, sc_ch
        cache = caches[core_id]
        mshr = mshrs[core_id]
        ddpf = ddpfs[core_id]
        fdp = fdps[core_id]
        stats = results[core_id]
        prefetcher = prefetchers[core_id]
        sets = cache._sets
        num_sets = cache.num_sets
        mshr_entries = mshr._entries
        mshr_cap = mshr.capacity - _DEMAND_MSHR_RESERVE
        rejected_tail = 0
        for index, candidate in enumerate(candidates):
            if candidate in sets[candidate % num_sets] or candidate in mshr_entries:
                continue
            if ddpf is not None and not ddpf.allow(candidate, pc):
                stats.pf_filtered += 1
                continue
            if len(mshr_entries) >= mshr_cap:
                stats.pf_mshr_rejected += len(candidates) - index
                rejected_tail = len(candidates) - index
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
                rejected_tail = len(candidates) - index
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
            # schedule_tick(), inlined.
            busy = e_channels[channel].banks[bank_idx].busy_until
            time = busy if busy > now else now
            pending = tick_pending[channel]
            if pending is None or pending > time:
                seq += 1
                stale = tick_stale[channel]
                if pending is not None and pending not in stale:
                    stale[pending] = tick_seq[channel]
                revived = stale.get(time)
                eff = seq if revived is None else revived
                tick_pending[channel] = time
                tick_seq[channel] = eff
                if time < sc_time or (time == sc_time and eff < sc_seq):
                    sc_time = time
                    sc_seq = eff
                    sc_src = 2
                    sc_ch = channel
        if rejected_tail and prefetcher is not None and skipless:
            prefetcher.rewind(rejected_tail)

    def handle_core(core_id, now, retry):
        nonlocal seq, sc_time, sc_seq, sc_src, sc_ch
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

        cache = caches[core_id]
        mshr = mshrs[core_id]
        line = entry[1]
        is_write = entry[3]
        # Fork of L2Cache.lookup — the branch bodies consume the line's
        # fields directly, so no LookupResult is ever built.
        cache_set = sets_by_core[core_id][line % nsets_by_core[core_id]]
        line_obj = cache_set.pop(line, None)
        if line_obj is not None:
            cache_set[line] = line_obj  # reinsert at the MRU end
            cache.demand_hits += 1
            if is_write:
                line_obj.dirty = True
            if not retry:
                core.l2_hits += 1
            if line_obj.prefetched and not line_obj.ever_used:
                line_obj.ever_used = True
                line_obj.prefetched = False
                cache.useful_prefetch_hits += 1
                count_useful(line_obj.core_id, line, line_obj.row_hit_fill, False)
            on_access = pf_on_access[core_id]
            if on_access is not None:
                candidates = on_access(line, True, pc=entry[2])
                if candidates:
                    issue_prefetches(core_id, candidates, entry[2], now)
        else:
            cache.demand_misses += 1
            if not retry:
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
                    request.promote()
                    note_promotion(request)
                    mshr_entry.promoted_late = True
                    count_useful(request.core_id, line, None, True)
                if is_write:
                    mshr_entry.dirty_on_fill = True
                mshr_entry.waiters.append(core_id)
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
                    # System.__init__/run — plain indexing, no setdefault
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
                # schedule_tick(), inlined.
                busy = e_channels[channel].banks[bank_idx].busy_until
                time = busy if busy > now else now
                pending = tick_pending[channel]
                if pending is None or pending > time:
                    seq += 1
                    stale = tick_stale[channel]
                    if pending is not None and pending not in stale:
                        stale[pending] = tick_seq[channel]
                    revived = stale.get(time)
                    eff = seq if revived is None else revived
                    tick_pending[channel] = time
                    tick_seq[channel] = eff
                    if time < sc_time or (time == sc_time and eff < sc_seq):
                        sc_time = time
                        sc_seq = eff
                        sc_src = 2
                        sc_ch = channel
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
        # Fork of CoreState.rob_blocked (first outstanding entry is the
        # oldest; see that method's ordering comment).
        od = core.outstanding_demand
        if od and core.instructions_issued - next(iter(od.values())) >= rob_by_core[
            core_id
        ]:
            core.stalled = True
            core.stall_start = now
            if runahead:
                system._seq = seq
                system._run_runahead(core, now)
                seq = system._seq
                # Runahead arms ticks through System._schedule_tick_event,
                # bypassing the incremental min — refresh the cache.
                rescan_scalars()
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

        # Fork of L2Cache.fill — victim fields are consumed right here, so
        # no EvictionInfo is built.  The new line lands before the victim's
        # side effects run, matching fill-then-handle-eviction order.
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
                    # Writebacks arm ticks through
                    # System._schedule_tick_event, bypassing the
                    # incremental min — refresh the cache.
                    rescan_scalars()
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
                waiter_ids = dict.fromkeys(waiters_list)
            for waiter_id in waiter_ids:
                waiter = cores[waiter_id]
                od = waiter.outstanding_demand
                od.pop(line, None)
                if waiter.stalled and not waiter.waiting_mshr and not waiter.done:
                    # Fork of CoreState.rob_blocked.
                    if (
                        not od
                        or waiter.instructions_issued - next(iter(od.values()))
                        < rob_by_core[waiter_id]
                    ):
                        waiter.stall_cycles += now - waiter.stall_start
                        waiter.stalled = False
                        schedule_core_next(waiter, now)
        # Fork of System._wake_mshr_waiters (inlined at its only hot call
        # site; the drop path wakes through the shared System method).
        waiters = mshr_waiters.get(id(mshr))
        if waiters and len(mshr_entries) < mshr.capacity:
            seq += 1
            heappush(heap, (now, seq, _RETRY, waiters.popleft()))

    collect_service_times = system.collect_service_times
    pf_service_pending = system._pf_service_pending

    def count_useful(core_id, line, row_hit_fill, late):
        # Fork of System._count_useful.
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

    # -- cached scalar minimum ----------------------------------------------
    # ``sc_*`` caches the earliest (time, seq) among the scalar slots
    # (interval, per-channel ticks, per-channel refreshes).  Between
    # rescans a slot only ever moves *earlier* (arms at later times bail
    # at the guard; interval/refresh slots change only inside their own
    # fire branches, which rescan), so ``schedule_tick``'s single compare
    # keeps the cache exact and the common heap-event iteration pays one
    # (time, seq) compare instead of a scan over every slot.
    sc_time = _NEVER
    sc_seq = _NEVER
    sc_src = 1
    sc_ch = 0

    def rescan_scalars():
        nonlocal sc_time, sc_seq, sc_src, sc_ch
        bt = interval_time
        bs = interval_seq
        bk = 1
        bc = 0
        for ch in channels:
            t = tick_pending[ch]
            if t is not None and (t < bt or (t == bt and tick_seq[ch] < bs)):
                bt = t
                bs = tick_seq[ch]
                bk = 2
                bc = ch
            t = refresh_time[ch]
            if t < bt or (t == bt and refresh_seq[ch] < bs):
                bt = t
                bs = refresh_seq[ch]
                bk = 3
                bc = ch
        sc_time = bt
        sc_seq = bs
        sc_src = bk
        sc_ch = bc

    # -- initial events ------------------------------------------------------
    # Same arming (and sequence-consumption) order as System.run: cores,
    # then the interval, then one refresh slot per channel.
    active = system._active_cores
    now = 0
    for core in cores:
        core.target_accesses = max_accesses_per_core
        schedule_core_next(core, 0)
    seq += 1
    interval_time = tracker.interval
    interval_seq = seq
    refresh_time = [_NEVER] * nch
    refresh_seq = [0] * nch
    refreshers = system._refresh
    if config.dram.refresh_enabled:
        for channel_id, scheduler in enumerate(refreshers):
            seq += 1
            refresh_time[channel_id] = scheduler.next_refresh_after(0)
            refresh_seq[channel_id] = seq
    rescan_scalars()

    # -- skip-ahead loop -----------------------------------------------------
    # The loop allocates no reference cycles, so collection is deferred to
    # the end of the run: the generational GC otherwise pauses every few
    # hundred net allocations to scan tuples that refcounting alone
    # already reclaims.
    cycle_cap = _NEVER if max_cycles is None else max_cycles
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while active > 0:
            # Earliest of: heap front vs the cached scalar minimum,
            # strictly by (time, seq).  The interval slot re-arms itself
            # while cores are active, so there is always a candidate.
            if heap:
                event = heap[0]
                t = event[0]
                if t < sc_time or (t == sc_time and event[1] < sc_seq):
                    if t > cycle_cap:
                        # The heap version pops the over-cap event
                        # (bumping _now) before breaking; _collect clamps
                        # to the cap either way.
                        now = t
                        break
                    now = t
                    heappop(heap)
                    kind = event[2]
                    if kind == _CORE:
                        handle_core(event[3], now, False)
                    elif kind == _FILL:
                        handle_fill(event[3], now)
                    else:
                        handle_core(event[3], now, True)
                    continue
            if sc_time > cycle_cap:
                now = sc_time
                break
            system._now = now = sc_time
            if sc_src == 2:
                best_ch = sc_ch
                tick_pending[best_ch] = None
                stale = tick_stale[best_ch]
                if stale:
                    # Every outstanding tuple at or before the fire time
                    # is dead in the heap version too (popped and
                    # discarded, or the one that just fired); only future
                    # times can revive.
                    for t in [t for t in stale if t <= now]:
                        del stale[t]
                system._seq = seq
                if telemetry_on:
                    telemetry.on_tick(system, best_ch, now)
                # The round may drop prefetches; the _on_drop callback
                # wakes MSHR waiters through system._seq, hence the sync.
                serviced, next_wake = tickers[best_ch](now)
                seq = system._seq
                if serviced:
                    for request in serviced:
                        seq += 1
                        heappush(heap, (request.completion, seq, _FILL, request))
                if next_wake is not None:
                    # schedule_tick(), inlined — minus the sc_* update,
                    # which the rescan below recomputes anyway.
                    time = next_wake if next_wake > now else now + 1
                    pending = tick_pending[best_ch]
                    if pending is None or pending > time:
                        seq += 1
                        stale = tick_stale[best_ch]
                        if pending is not None and pending not in stale:
                            stale[pending] = tick_seq[best_ch]
                        revived = stale.get(time)
                        tick_pending[best_ch] = time
                        tick_seq[best_ch] = seq if revived is None else revived
            elif sc_src == 1:
                system._seq = seq
                if checker is not None:
                    checker.on_interval(now)
                telemetry.on_interval_pre(system, now)
                tracker.end_interval()
                engine.note_interval()
                for fdp in fdps:
                    if fdp is not None:
                        fdp.adjust()
                telemetry.on_interval_post(system, now)
                seq = system._seq
                if active > 0:
                    seq += 1
                    interval_time = now + tracker.interval
                    interval_seq = seq
                else:
                    interval_time = _NEVER
            else:
                best_ch = sc_ch
                scheduler = refreshers[best_ch]
                done = scheduler.apply(engine.channels[best_ch], now)
                schedule_tick(best_ch, done)
                if active > 0:
                    seq += 1
                    refresh_time[best_ch] = scheduler.next_refresh_after(now)
                    refresh_seq[best_ch] = seq
                else:
                    refresh_time[best_ch] = _NEVER
            # rescan_scalars(), inlined at the loop's only hot call site.
            bt = interval_time
            bs = interval_seq
            bk = 1
            bc = 0
            for ch in channels:
                t = tick_pending[ch]
                if t is not None and (t < bt or (t == bt and tick_seq[ch] < bs)):
                    bt = t
                    bs = tick_seq[ch]
                    bk = 2
                    bc = ch
                t = refresh_time[ch]
                if t < bt or (t == bt and refresh_seq[ch] < bs):
                    bt = t
                    bs = refresh_seq[ch]
                    bk = 3
                    bc = ch
            sc_time = bt
            sc_seq = bs
            sc_src = bk
            sc_ch = bc
    finally:
        if gc_was_enabled:
            gc.enable()

    system._now = now
    system._seq = seq
    return system._collect(max_cycles)
