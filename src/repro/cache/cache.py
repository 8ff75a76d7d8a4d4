"""Set-associative L2 cache state: LRU sets of lines with per-line P bits.

Each :class:`CacheLine` records whether the line was brought in by a
prefetch (the P bit, cleared on the first demand hit — paper §4.1), which
core prefetched it, and whether its DRAM service was a row hit (used for
the RBHU metric of §6.1.1).

:class:`L2Cache` holds the state only.  The demand lookup and the fill
(LRU update, P-bit clearing, dirty bits, victim selection) live in the
simulation loop's handlers (``handle_core`` and ``handle_fill`` in
:mod:`repro.sim.loop`), which read and write ``_sets`` directly.

Hot-path layout (DESIGN.md §15): each set is a plain insertion-ordered
``dict`` (LRU at the front, MRU at the back).  Recency updates are
*intrusive* — ``pop`` + reinsert moves a line to the MRU end in two C
dict operations, and eviction takes the front key via ``next(iter(...))``
— which measures faster than an ``OrderedDict`` (its
``popitem(last=False)`` pays for doubly-linked-list bookkeeping the plain
dict does not carry).
"""

from __future__ import annotations

from typing import Dict, List

from repro.params import CacheConfig


class CacheLine:
    """Metadata for one resident cache line."""

    __slots__ = ("prefetched", "core_id", "row_hit_fill", "ever_used", "dirty")

    def __init__(
        self,
        prefetched: bool,
        core_id: int,
        row_hit_fill: bool,
        dirty: bool = False,
    ):
        self.prefetched = prefetched
        self.core_id = core_id
        self.row_hit_fill = row_hit_fill
        self.ever_used = not prefetched
        self.dirty = dirty


class L2Cache:
    """LRU set-associative cache tracking prefetch usefulness per line."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        if self.num_sets < 1:
            raise ValueError("cache too small for its associativity/line size")
        self.assoc = config.associativity
        self._sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(self.num_sets)
        ]

    def touch_for_prefetcher(self, line_addr: int) -> bool:
        """Presence probe that does not disturb LRU or the P bit.

        The runahead path's residency check (the hot paths probe
        ``_sets`` inline).
        """
        return line_addr in self._sets[line_addr % self.num_sets]

    def unused_prefetched_by_core(self) -> Dict[int, int]:
        """Count of resident never-used prefetched lines, per owning core.

        Used by checked mode to close the pf_sent conservation law:
        every sent prefetch is dropped, used, evicted unused, in flight,
        or sitting in the cache with its P bit still set.
        """
        counts: Dict[int, int] = {}
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.prefetched and not line.ever_used:
                    counts[line.core_id] = counts.get(line.core_id, 0) + 1
        return counts
