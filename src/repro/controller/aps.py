"""Adaptive Prefetch Scheduling (paper §4.2 Rule 1, §6.5 Rule 2).

Priority order (highest first):

1. **Critical** (C) — demands, and prefetches from cores whose measured
   accuracy is at or above ``promotion_threshold``.
2. **Row-hit** (RH).
3. **Urgent** (U) — demands from cores with *low* prefetch accuracy, so
   that they are not starved by the flood of critical requests coming from
   accurate-prefetcher cores.
4. **Rank** (optional, Rule 2) — PAR-BS-style shortest-job-first: critical
   requests from the core with the fewest outstanding critical requests
   win.  Non-critical requests all carry rank 0.
5. **FCFS** — oldest first (admission order breaks exact ties).

Epoch discipline (DESIGN.md §10): the C/U bits read the tracker's
per-core criticality flags, which only move at accuracy-interval
boundaries — ``notify_interval`` bumps the epoch then, and nothing else
does.  The rank never enters a cached key: it moves almost every round,
so ``priority_key`` leaves the rank field at its bias and the policy
publishes ``rank_add``, the per-core rank shifted into that field, which
the fast round adds to every key carrying the C bit when it compares.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.cost import FCFS_BITS, RANK_BIAS, RANK_BITS
from repro.controller.policies import SchedulingPolicy
from repro.controller.request import MemRequest


class AdaptivePrefetchScheduler(SchedulingPolicy):
    """APS: accuracy-adaptive demand/prefetch prioritization."""

    def __init__(
        self,
        tracker: PrefetchAccuracyTracker,
        use_urgency: bool = True,
        use_ranking: bool = False,
    ):
        super().__init__()
        self.tracker = tracker
        self.use_urgency = use_urgency
        self.use_ranking = use_ranking
        self.needs_begin_tick = use_ranking
        # The census fast path (engine-maintained per-core queue counts)
        # carries every input Rule 2 needs; see begin_tick_census.
        self.census_based = use_ranking
        # Per-core critical-request counts of the channel last ticked;
        # a core's rank is the negated count (shortest job first).
        self._counts: List[int] = [0] * tracker.num_cores
        if use_ranking:
            self.rank_add = [0] * tracker.num_cores
        self.name = "aps" + ("-rank" if use_ranking else "")
        # RH is flag bit 1 and C flag bit 2; with ranking the flags sit
        # above the rank field.
        flag_shift = RANK_BITS + FCFS_BITS if use_ranking else FCFS_BITS
        self.hit_delta = 2 << flag_shift
        self.critical_bit = 4 << flag_shift

    def notify_interval(self) -> None:
        """PAR recomputation may have flipped criticality: drop all keys."""
        self.epoch += 1

    def begin_tick(self, queues, now: int) -> None:
        """Recompute per-core ranks from outstanding critical requests.

        Called once per scheduling round.  A core with fewer outstanding
        critical requests gets a higher rank value (shortest job first).
        """
        if not self.use_ranking:
            return
        critical = self.tracker.prefetch_critical
        counts = [0] * self.tracker.num_cores
        for queue in queues:
            for request in queue:
                if not request.is_prefetch or critical[request.core_id]:
                    counts[request.core_id] += 1
        self._update_ranks(counts)

    def begin_tick_census(self, demand_counts, prefetch_counts) -> None:
        """Census form of :meth:`begin_tick`: same ranks, no queue scan.

        The engine maintains per-core counts of queued demands and queued
        prefetches for the channel being ticked; a core's critical count
        is the demand count plus — only while its prefetcher measures
        accurate — the prefetch count.  Identical to the scan by
        construction: the scan's predicate ``not is_prefetch or
        critical[core]`` partitions the queue into exactly these two
        splits.  O(cores) per round, and rounds whose census is unchanged
        keep the published ``rank_add`` as it is.
        """
        critical = self.tracker.prefetch_critical
        self._update_ranks(
            [
                d + p if c else d
                for d, p, c in zip(demand_counts, prefetch_counts, critical)
            ]
        )

    def _update_ranks(self, counts: List[int]) -> None:
        # Rank = -count.  Counts never exceed the request buffer, far
        # below RANK_BIAS, so a biased rank stays inside the rank field
        # and adding ``rank_add`` to a key never borrows from the flags.
        if counts != self._counts:
            self._counts = counts
            self.rank_add = [-count << FCFS_BITS for count in counts]

    def priority(self, request: MemRequest, row_hit: bool) -> Tuple:
        core = request.core_id
        is_prefetch = request.is_prefetch
        critical = (not is_prefetch) or self.tracker.prefetch_critical[core]
        urgent = (
            self.use_urgency
            and not is_prefetch
            and not self.tracker.prefetch_critical[core]
        )
        if self.use_ranking:
            rank = -self._counts[core] if critical else 0
            return (critical, row_hit, urgent, rank, -request.arrival, -request.seq)
        return (critical, row_hit, urgent, -request.arrival, -request.seq)

    def priority_key(self, request: MemRequest, row_hit: bool) -> int:
        core = request.core_id
        is_prefetch = request.is_prefetch
        critical = (not is_prefetch) or self.tracker.prefetch_critical[core]
        urgent = (
            self.use_urgency
            and not is_prefetch
            and not self.tracker.prefetch_critical[core]
        )
        flags = (critical << 2) | (row_hit << 1) | urgent
        if self.use_ranking:
            # The rank field holds only its bias: the core's rank is
            # applied at selection time, as ``rank_add[core]`` on keys with
            # the C bit.  Rank only ever compares within one (C, RH, U)
            # flag group, so non-critical requests keeping the bias value
            # (rank 0) is exact.
            flags = (flags << RANK_BITS) | RANK_BIAS
        return (flags << FCFS_BITS) | request.fcfs_key
