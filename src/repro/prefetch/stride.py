"""PC-based stride prefetcher (Baer & Chen [1], paper §2.2).

A table indexed by the load PC records the last address and the last
observed stride with a 2-bit confidence counter.  Once the same stride is
seen twice, the prefetcher issues ``degree`` prefetches continuing the
stride pattern.

The table is a plain insertion-ordered dict used as an LRU: a hit pops
and reinserts the entry (MRU at the back, two C dict operations) and
eviction removes the front key via ``next(iter(...))`` — measurably
cheaper per access than ``OrderedDict``'s linked-list bookkeeping
(DESIGN.md §15).
"""

from __future__ import annotations

from typing import Dict, List

from repro.prefetch.base import Prefetcher


class _StrideEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int):
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class StridePrefetcher(Prefetcher):
    """Classic per-PC stride detection with confidence counters."""

    name = "stride"

    def __init__(self, table_size: int = 256, degree: int = 4, threshold: int = 2):
        self.table_size = table_size
        self.degree = degree
        self.threshold = threshold
        self._table: Dict[int, _StrideEntry] = {}

    def on_access(self, line_addr, was_hit, pc=0, allocate=True) -> List[int]:
        table = self._table
        entry = table.pop(pc, None)
        if entry is None:
            if not allocate:
                return []
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[pc] = _StrideEntry(line_addr)
            return []
        table[pc] = entry  # reinsert at the MRU end
        stride = line_addr - entry.last_addr
        entry.last_addr = line_addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence -= 1
            if entry.confidence <= 0:
                entry.stride = stride
                entry.confidence = 1
            return []
        if entry.confidence < self.threshold:
            return []
        prefetches = [
            line_addr + entry.stride * step for step in range(1, self.degree + 1)
        ]
        return [address for address in prefetches if address >= 0]
