"""Per-core prefetch accuracy measurement (paper §4.1).

For every core the tracker keeps:

* **PSC** (Prefetch Sent Counter) — incremented when a prefetch request is
  sent to the memory request buffer;
* **PUC** (Prefetch Used Counter) — incremented when a prefetched cache
  line is hit by a demand, or when a demand matches a prefetch request
  still in the memory request buffer;
* **PAR** (Prefetch Accuracy Register) — PUC/PSC, recomputed at the end of
  every ``interval`` cycles, after which PSC and PUC reset.

If no prefetches were sent during an interval the previous PAR value is
retained (there is no new evidence to update the estimate with).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class PrefetchAccuracyTracker:
    """PSC/PUC/PAR per core, plus the per-core flags the scheduler reads.

    ``prefetch_critical`` feeds the C and U bits of APS (the rule itself
    lives in :mod:`repro.controller.aps`); ``drop_threshold`` is APD's
    Table 6 lookup.
    """

    def __init__(
        self,
        num_cores: int,
        interval: int = 100_000,
        promotion_threshold: float = 0.85,
        drop_thresholds: Sequence[Tuple[float, int]] = (
            (0.10, 100),
            (0.30, 1_500),
            (0.70, 50_000),
            (1.01, 100_000),
        ),
        initial_accuracy: float = 1.0,
    ):
        self.num_cores = num_cores
        self.interval = interval
        self.promotion_threshold = promotion_threshold
        self.drop_thresholds = tuple(drop_thresholds)
        self.psc: List[int] = [0] * num_cores
        self.puc: List[int] = [0] * num_cores
        self.par: List[float] = [initial_accuracy] * num_cores
        # Cached per-core decisions, refreshed at interval boundaries so the
        # scheduler reads a flag instead of re-comparing floats per request.
        self.prefetch_critical: List[bool] = [
            initial_accuracy >= promotion_threshold
        ] * num_cores
        self.drop_threshold: List[int] = [
            self._lookup_drop_threshold(initial_accuracy)
        ] * num_cores
        self.history: List[List[float]] = [[] for _ in range(num_cores)]

    def _lookup_drop_threshold(self, accuracy: float) -> int:
        for upper, cycles in self.drop_thresholds:
            if accuracy < upper:
                return cycles
        return self.drop_thresholds[-1][1]

    def record_sent(self, core_id: int) -> None:
        """A prefetch entered the memory request buffer (PSC += 1)."""
        self.psc[core_id] += 1

    def record_used(self, core_id: int) -> None:
        """A prefetch proved useful (PUC += 1)."""
        self.puc[core_id] += 1

    def end_interval(self) -> None:
        """Recompute PAR for every core and reset the counters."""
        for core in range(self.num_cores):
            sent = self.psc[core]
            if sent:
                self.par[core] = self.puc[core] / sent
            self.history[core].append(self.par[core])
            self.psc[core] = 0
            self.puc[core] = 0
            accuracy = self.par[core]
            self.prefetch_critical[core] = accuracy >= self.promotion_threshold
            self.drop_threshold[core] = self._lookup_drop_threshold(accuracy)
