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
   win.  Non-critical requests all carry the lowest rank (0).
5. **FCFS** — oldest first (admission order breaks exact ties).

Epoch discipline (DESIGN.md §10): the C/U bits read the tracker's
per-core criticality flags, which only move at accuracy-interval
boundaries — ``notify_interval`` bumps the epoch then.  With ranking
enabled the per-core rank vector is recomputed every round, but stored as
dense order-ranks so the epoch is bumped only when the cores' relative
order actually changed — cached keys survive the (common) rounds where
the census shifts without reordering the cores.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
        self._rank: List[int] = [0] * tracker.num_cores
        # Last critical-census vector ranks were derived from: rounds
        # where the census is unchanged (common at small scales — many
        # rounds service nothing or rearrange nothing) skip the dense-
        # rank derivation and its sort entirely.
        self._counts: Optional[List[int]] = None
        self.name = "aps" + ("-rank" if use_ranking else "")
        # RH is flag bit 1; with ranking the flags sit above the rank field.
        self.hit_delta = (
            (2 << RANK_BITS) << FCFS_BITS if use_ranking else 2 << FCFS_BITS
        )

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
        skip the rank derivation too — this is what fixed the padc-rank
        tiny-scale regression, where per-round scans of long queues
        dominated the cached-key round's win.
        """
        critical = self.tracker.prefetch_critical
        counts = [
            d + p if c else d
            for d, p, c in zip(demand_counts, prefetch_counts, critical)
        ]
        if counts == self._counts:
            return
        self._update_ranks(counts)

    def _update_ranks(self, counts: List[int]) -> None:
        if counts == self._counts:
            return
        self._counts = counts
        # Only the cores' *relative* order matters: the rank field is one
        # level of a lexicographic comparison, so any monotone remapping
        # of -count selects identically.  Dense order-ranks (fewest
        # outstanding -> 0, next distinct count -> -1, ...) change only
        # when the core ordering changes, not on every serviced request —
        # keeping cached keys valid across the common rounds where the
        # census shifts but the ordering does not.
        order = {count: -i for i, count in enumerate(sorted(set(counts)))}
        rank = [order[count] for count in counts]
        if rank != self._rank:
            self._rank = rank
            self.epoch += 1

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
            rank = self._rank[core] if critical else 0
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
            # Dense order-ranks sit in [-(cores-1), 0]; biased they fit
            # the field.  Rank only ever compares within one (C, RH, U)
            # flag group — critical vs non-critical differ in the C bit
            # above this field — so non-critical requests sharing the
            # bias value with a rank-0 critical core is harmless.
            field = (self._rank[core] + RANK_BIAS) if critical else RANK_BIAS
            flags = (flags << RANK_BITS) | field
        return (flags << FCFS_BITS) | request.fcfs_key
