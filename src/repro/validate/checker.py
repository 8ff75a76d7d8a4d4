"""The checked-mode invariant auditor.

:class:`InvariantChecker` attaches to a :class:`~repro.sim.system.System`
and re-derives, from first principles, the conservation laws the
simulator's counters must satisfy.  The system calls :meth:`on_interval`
at every accuracy-interval boundary (before the tracker resets PSC/PUC)
and :meth:`on_end` once the final per-core stats are collected; each call
runs every audit and raises :class:`InvariantViolation` listing *all*
failures at once.

The audited laws (see DESIGN.md §7 for the why):

* **Request lifecycle** — every request admitted to the controller is
  serviced, dropped, or still queued (bank queues + overflow FIFO),
  exactly once; one line crosses the bus per service.
* **Buffer reconciliation** — per-channel occupancy equals the sum of
  the bank-queue lengths, never exceeds the buffer size, and the
  line-address index is a bijection onto the queued non-writeback
  requests (the promotion path cannot lie).
* **Round bookkeeping** — what the fast scheduling round trusts instead
  of rescanning: every queued request's ``qpos`` is its queue index
  (swap-pop removes by it), the per-core demand/prefetch census (the
  rank's only input) and the closed-row per-row refcounts match the
  queues, and a request stamped with the current key epoch carries the
  keys ``priority_key`` gives it now.
* **MSHR** — occupancy equals lifetime allocations minus frees, never
  exceeds capacity, and every queued read/prefetch has a live MSHR entry
  pointing back at that exact request.
* **Per-core stats** — every access is exactly one of an L2 hit or an L2
  miss; stall time fits inside wall-clock time.
* **Prefetch conservation** — every sent prefetch is dropped, promoted
  (late use), filled, or still in flight; every filled prefetch is used,
  evicted unused, or still resident with its P bit set.
* **PSC/PUC** — the tracker's interval counters move in lockstep with
  the per-core stats, and cumulative PUC never exceeds cumulative PSC.
  (Within a *single* interval PUC may exceed PSC: a prefetch sent late
  in interval N is legitimately used in interval N+1.)
"""

from __future__ import annotations

import os
from typing import Dict, List


class InvariantViolation(AssertionError):
    """One or more simulator invariants failed an audit."""


def check_enabled(default: bool = False) -> bool:
    """Resolve the ``REPRO_CHECK`` environment knob."""
    value = os.environ.get("REPRO_CHECK")
    if value is None:
        return default
    return value.strip().lower() in {"1", "on", "true", "yes"}


class InvariantChecker:
    """Audits a live ``System`` at interval boundaries and end-of-sim."""

    def __init__(self, system):
        self.system = system
        self.audits = 0
        num_cores = system.config.num_cores
        # Cumulative pf_sent/pf_used at the last PSC/PUC reset, and the
        # running totals across completed intervals.
        self._pf_sent_base = [0] * num_cores
        self._pf_used_base = [0] * num_cores
        self._cum_sent = [0] * num_cores
        self._cum_used = [0] * num_cores

    # -- hooks called by System ---------------------------------------------

    def on_interval(self, now: int) -> None:
        """Audit at an interval boundary, *before* the PSC/PUC reset."""
        self.audit("interval", now)
        tracker = self.system.tracker
        for core in range(self.system.config.num_cores):
            self._cum_sent[core] += tracker.psc[core]
            self._cum_used[core] += tracker.puc[core]
            self._pf_sent_base[core] = self.system.results[core].pf_sent
            self._pf_used_base[core] = self.system.results[core].pf_used

    def on_end(self, now: int) -> None:
        """Audit after ``_collect`` populated the final per-core stats."""
        self.audit("end", now)

    # -- the audit ----------------------------------------------------------

    def audit(self, phase: str, now: int) -> None:
        violations: List[str] = []
        violations += self._check_buffers()
        violations += self._check_round_bookkeeping()
        violations += self._check_lifecycle()
        violations += self._check_mshr()
        violations += self._check_core_counters(phase, now)
        violations += self._check_prefetch_conservation()
        violations += self._check_drop_accounting()
        violations += self._check_tracker()
        self.audits += 1
        if violations:
            details = "\n  - ".join(violations)
            raise InvariantViolation(
                f"invariant audit #{self.audits} failed "
                f"(phase={phase}, cycle={now}, {len(violations)} violation(s)):"
                f"\n  - {details}"
            )

    # -- individual laws -----------------------------------------------------

    def _check_buffers(self) -> List[str]:
        engine = self.system.engine
        buffer_size = engine.config.request_buffer_size
        out: List[str] = []
        for channel_id in range(engine.config.num_channels):
            queues = engine.bank_queues(channel_id)
            queued = [request for queue in queues for request in queue]
            occupancy = engine.occupancy(channel_id)
            if occupancy != len(queued):
                out.append(
                    f"ch{channel_id}: occupancy counter {occupancy} != "
                    f"{len(queued)} requests in bank queues"
                )
            if occupancy > buffer_size:
                out.append(
                    f"ch{channel_id}: occupancy {occupancy} exceeds "
                    f"request buffer size {buffer_size}"
                )
            for bank_idx, queue in enumerate(queues):
                for request in queue:
                    if request.channel != channel_id or request.bank != bank_idx:
                        out.append(
                            f"ch{channel_id}/bank{bank_idx}: misfiled {request!r}"
                        )
                    if request.completion is not None or request.dropped:
                        out.append(
                            f"ch{channel_id}: already-resolved request still "
                            f"queued: {request!r}"
                        )
            index = engine.indexed_requests(channel_id)
            non_writes = [request for request in queued if not request.is_write]
            for request in non_writes:
                if index.get(request.line_addr) is not request:
                    out.append(
                        f"ch{channel_id}: queued {request!r} missing from or "
                        f"shadowed in the line-address index"
                    )
            if len(index) != len(non_writes):
                out.append(
                    f"ch{channel_id}: index holds {len(index)} entries but "
                    f"{len(non_writes)} non-writeback requests are queued"
                )
            overflow = engine.overflow_requests(channel_id)
            for request in overflow:
                if request.is_prefetch:
                    out.append(
                        f"ch{channel_id}: prefetch in the overflow FIFO: "
                        f"{request!r} (prefetches must be rejected, not queued)"
                    )
                if request.completion is not None or request.dropped:
                    out.append(
                        f"ch{channel_id}: already-resolved request in "
                        f"overflow: {request!r}"
                    )
            if overflow and occupancy < buffer_size:
                out.append(
                    f"ch{channel_id}: overflow FIFO holds {len(overflow)} "
                    f"requests while the buffer has free entries "
                    f"({occupancy}/{buffer_size})"
                )
        return out

    def _check_round_bookkeeping(self) -> List[str]:
        engine = self.system.engine
        policy = engine.policy
        epoch = policy.epoch
        num_cores = self.system.config.num_cores
        out: List[str] = []
        for channel_id in range(engine.config.num_channels):
            census = engine.census_counts(channel_id)
            row_refs = engine.row_refcounts(channel_id)
            demands = [0] * num_cores
            prefetches = [0] * num_cores
            for bank_idx, queue in enumerate(engine.bank_queues(channel_id)):
                rows: Dict[int, int] = {}
                for position, request in enumerate(queue):
                    # The reference round removes by value, not by qpos.
                    if not engine.reference and request.qpos != position:
                        out.append(
                            f"ch{channel_id}/bank{bank_idx}: qpos "
                            f"{request.qpos} != queue index {position} for "
                            f"{request!r}"
                        )
                    if request.prio_stamp == epoch:
                        key = policy.priority_key(request, False)
                        if (
                            request.prio_base != key
                            or request.prio_hit != key + policy.hit_delta
                        ):
                            out.append(
                                f"ch{channel_id}: cached key of {request!r} "
                                f"stamped with epoch {epoch} is stale"
                            )
                    rows[request.row] = rows.get(request.row, 0) + 1
                    if request.is_prefetch:
                        prefetches[request.core_id] += 1
                    else:
                        demands[request.core_id] += 1
                if row_refs is not None and row_refs[bank_idx] != rows:
                    out.append(
                        f"ch{channel_id}/bank{bank_idx}: row refcounts "
                        f"{row_refs[bank_idx]} != queued rows {rows}"
                    )
            if census is not None and census != (demands, prefetches):
                out.append(
                    f"ch{channel_id}: census (demands, prefetches) {census} "
                    f"!= queued {(demands, prefetches)}"
                )
        return out

    def _check_lifecycle(self) -> List[str]:
        engine = self.system.engine
        stats = engine.stats
        queued = sum(
            len(queue)
            for channel_id in range(engine.config.num_channels)
            for queue in engine.bank_queues(channel_id)
        )
        overflowed = sum(
            len(engine.overflow_requests(channel_id))
            for channel_id in range(engine.config.num_channels)
        )
        accounted = (
            stats.serviced_total + stats.dropped_prefetches + queued + overflowed
        )
        out: List[str] = []
        if stats.enqueued_total != accounted:
            out.append(
                f"request lifecycle leak: enqueued {stats.enqueued_total} != "
                f"serviced {stats.serviced_total} + dropped "
                f"{stats.dropped_prefetches} + queued {queued} + overflow "
                f"{overflowed}"
            )
        transferred = engine.total_lines_transferred()
        if transferred != stats.serviced_total:
            out.append(
                f"bus accounting: {transferred} lines transferred != "
                f"{stats.serviced_total} requests serviced"
            )
        return out

    def _distinct_mshrs(self):
        seen: Dict[int, object] = {}
        for mshr in self.system._mshrs:
            seen.setdefault(id(mshr), mshr)
        return list(seen.values())

    def _check_mshr(self) -> List[str]:
        out: List[str] = []
        for mshr in self._distinct_mshrs():
            expected = mshr.total_allocated - mshr.total_freed
            if mshr.occupancy != expected:
                out.append(
                    f"MSHR occupancy {mshr.occupancy} != allocated "
                    f"{mshr.total_allocated} - freed {mshr.total_freed}"
                )
            if mshr.occupancy > mshr.capacity:
                out.append(
                    f"MSHR occupancy {mshr.occupancy} exceeds capacity "
                    f"{mshr.capacity}"
                )
            for entry in mshr.entries():
                if entry.request.line_addr != entry.line_addr:
                    out.append(
                        f"MSHR entry line 0x{entry.line_addr:x} holds request "
                        f"for 0x{entry.request.line_addr:x}"
                    )
        engine = self.system.engine
        for channel_id in range(engine.config.num_channels):
            pending = engine.queued_requests(channel_id) + engine.overflow_requests(
                channel_id
            )
            for request in pending:
                if request.is_write:
                    continue  # writebacks do not occupy MSHRs
                mshr = self.system._mshrs[request.core_id]
                entry = mshr.get(request.line_addr)
                if entry is None:
                    out.append(
                        f"queued {request!r} has no MSHR entry (fill would "
                        f"be orphaned)"
                    )
                elif entry.request is not request:
                    out.append(
                        f"queued {request!r} and MSHR entry for line "
                        f"0x{request.line_addr:x} disagree on the request"
                    )
        return out

    def _check_core_counters(self, phase: str, now: int) -> List[str]:
        out: List[str] = []
        for core in self.system.cores:
            label = f"core{core.core_id}"
            if core.loads != core.accesses_done:
                out.append(
                    f"{label}: loads {core.loads} != accesses_done "
                    f"{core.accesses_done}"
                )
            if core.l2_hits + core.l2_misses != core.accesses_done:
                out.append(
                    f"{label}: l2_hits {core.l2_hits} + l2_misses "
                    f"{core.l2_misses} != accesses_done {core.accesses_done} "
                    f"(an access must be exactly one of the two)"
                )
            if phase == "end":
                stats = self.system.results[core.core_id]
                if stats.stall_cycles > stats.cycles:
                    out.append(
                        f"{label}: stall_cycles {stats.stall_cycles} exceed "
                        f"total cycles {stats.cycles}"
                    )
                if stats.stall_cycles < 0:
                    out.append(f"{label}: negative stall_cycles")
            else:
                stalled_now = (
                    now - core.stall_start if core.stalled and not core.done else 0
                )
                if core.stall_cycles < 0 or stalled_now < 0:
                    out.append(f"{label}: negative stall accumulation")
                elif core.stall_cycles + stalled_now > now:
                    out.append(
                        f"{label}: stall_cycles {core.stall_cycles} (+{stalled_now} "
                        f"in progress) exceed elapsed cycles {now}"
                    )
        return out

    def _check_prefetch_conservation(self) -> List[str]:
        in_flight: Dict[int, int] = {}
        for mshr in self._distinct_mshrs():
            for entry in mshr.entries():
                if entry.request.is_prefetch:
                    core_id = entry.request.core_id
                    in_flight[core_id] = in_flight.get(core_id, 0) + 1
        resident: Dict[int, int] = {}
        seen_caches: Dict[int, object] = {}
        for cache in self.system._caches:
            seen_caches.setdefault(id(cache), cache)
        for cache in seen_caches.values():
            for core_id, count in cache.unused_prefetched_by_core().items():
                resident[core_id] = resident.get(core_id, 0) + count
        out: List[str] = []
        for stats in self.system.results:
            label = f"core{stats.core_id}"
            if stats.pf_used != stats.pf_late + stats.prefetch_fills_used:
                out.append(
                    f"{label}: pf_used {stats.pf_used} != pf_late "
                    f"{stats.pf_late} + prefetch_fills_used "
                    f"{stats.prefetch_fills_used}"
                )
            flight = in_flight.get(stats.core_id, 0)
            accounted = (
                stats.pf_dropped + stats.pf_late + stats.prefetch_fills + flight
            )
            if stats.pf_sent != accounted:
                out.append(
                    f"{label}: pf_sent {stats.pf_sent} != dropped "
                    f"{stats.pf_dropped} + promoted-late {stats.pf_late} + "
                    f"filled {stats.prefetch_fills} + in-flight {flight}"
                )
            fills_accounted = (
                stats.prefetch_fills_used
                + stats.pf_evicted_unused
                + resident.get(stats.core_id, 0)
            )
            if stats.prefetch_fills != fills_accounted:
                out.append(
                    f"{label}: prefetch_fills {stats.prefetch_fills} != used "
                    f"{stats.prefetch_fills_used} + evicted-unused "
                    f"{stats.pf_evicted_unused} + resident-unused "
                    f"{resident.get(stats.core_id, 0)}"
                )
        return out

    def _check_drop_accounting(self) -> List[str]:
        engine = self.system.engine
        per_core = sum(stats.pf_dropped for stats in self.system.results)
        out: List[str] = []
        if per_core != engine.stats.dropped_prefetches:
            out.append(
                f"per-core pf_dropped sum {per_core} != engine "
                f"dropped_prefetches {engine.stats.dropped_prefetches}"
            )
        if engine.dropper is not None:
            if engine.dropper.total_dropped != engine.stats.dropped_prefetches:
                out.append(
                    f"dropper counted {engine.dropper.total_dropped} drops, "
                    f"engine counted {engine.stats.dropped_prefetches}"
                )
        return out

    def _check_tracker(self) -> List[str]:
        tracker = self.system.tracker
        out: List[str] = []
        for core in range(self.system.config.num_cores):
            stats = self.system.results[core]
            sent_delta = stats.pf_sent - self._pf_sent_base[core]
            used_delta = stats.pf_used - self._pf_used_base[core]
            if tracker.psc[core] != sent_delta:
                out.append(
                    f"core{core}: PSC {tracker.psc[core]} != pf_sent delta "
                    f"{sent_delta} this interval"
                )
            if tracker.puc[core] != used_delta:
                out.append(
                    f"core{core}: PUC {tracker.puc[core]} != pf_used delta "
                    f"{used_delta} this interval"
                )
            cum_sent = self._cum_sent[core] + tracker.psc[core]
            cum_used = self._cum_used[core] + tracker.puc[core]
            if cum_used > cum_sent:
                out.append(
                    f"core{core}: cumulative PUC {cum_used} exceeds "
                    f"cumulative PSC {cum_sent} (used a prefetch never sent)"
                )
        return out
