"""Adaptive Prefetch Dropping (paper §4.3).

APD removes a prefetch request from the memory request buffer once its age
exceeds the per-core ``drop_threshold``, which the accuracy tracker adapts
every interval using the 4-level table of Table 6 (low accuracy → drop
fast, high accuracy → keep long).

Dropping only applies to requests that still carry the P bit: a promoted
prefetch has been matched by a demand and must be serviced.  The engine
invalidates the corresponding MSHR entry via a callback so that a later
demand to the dropped line simply misses again, mirroring the paper's
"invalidate the MSHR entry before dropping" rule.
"""

from __future__ import annotations

from typing import List

from repro.controller.accuracy import PrefetchAccuracyTracker
from repro.controller.request import MemRequest


class AdaptivePrefetchDropper:
    """Age-based dropping of likely-useless prefetch requests."""

    def __init__(self, tracker: PrefetchAccuracyTracker, age_granularity: int = 100):
        self.tracker = tracker
        # The hardware AGE field ticks every ``age_granularity`` cycles, so
        # ages are compared at that granularity (paper §4.4: "estimation of
        # the age of a request does not need to be highly accurate").
        self.age_granularity = age_granularity
        self.dropped_per_core: List[int] = [0] * tracker.num_cores

    def should_drop(self, request: MemRequest, now: int) -> bool:
        if not request.is_prefetch:
            return False
        threshold = self.tracker.drop_threshold[request.core_id]
        # Table 6 semantics: drop once the age exceeds the threshold.  The
        # age is only known at AGE-counter granularity, so quantize it *up*
        # — the first tick strictly past the threshold triggers the drop.
        # (Flooring both sides let a request live a full extra granularity
        # window: with threshold=100 and granularity=100 it survived to
        # age 200 instead of being dropped just past 100.)
        age_ticks = -(-(now - request.arrival) // self.age_granularity)
        return age_ticks > threshold // self.age_granularity

    def drop_deadline(self, request: MemRequest) -> int:
        """First cycle at which :meth:`should_drop` turns true for ``request``.

        Solving the quantize-up comparison for ``now``: the request is
        over-age once ``now - arrival`` strictly exceeds the threshold
        rounded down to AGE-counter granularity.  The engine keeps the
        minimum of these per bank so scheduling rounds before the earliest
        deadline skip the drop scan entirely (DESIGN.md §10); the deadline
        is recomputed from the live per-core thresholds, so it must be
        re-derived after every accuracy interval.  The fast round
        additionally relies on the deadline being *exact*: it skips a
        bank's drop scan until the deadline, so a deadline computed even
        one cycle late would make it drop a prefetch a round later than
        the reference round does.
        """
        threshold = self.tracker.drop_threshold[request.core_id]
        gran = self.age_granularity
        return request.arrival + (threshold // gran) * gran + 1

    def record_drop(self, request: MemRequest) -> None:
        request.dropped = True
        self.dropped_per_core[request.core_id] += 1

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped_per_core)
