"""CZone/Delta-Correlation (C/DC) prefetcher (Nesbit et al. [24], §2.2).

The address space is split statically into fixed-size CZones.  Per zone,
the prefetcher keeps the recent history of address *deltas*.  On each
access it searches for the most recent earlier occurrence of the last two
deltas (delta correlation); when found, the deltas that followed that
occurrence are replayed from the current address as prefetch candidates.
"""

from __future__ import annotations

from typing import Dict, List

from repro.prefetch.base import Prefetcher


class _ZoneEntry:
    __slots__ = ("last_addr", "deltas")

    def __init__(self, last_addr: int):
        self.last_addr = last_addr
        self.deltas: List[int] = []


class CDCPrefetcher(Prefetcher):
    """Delta-correlation prefetching within CZones."""

    name = "cdc"

    def __init__(
        self,
        czone_lines_log2: int = 10,
        zones: int = 64,
        history: int = 24,
        degree: int = 4,
    ):
        self.czone_shift = czone_lines_log2
        self.zones = zones
        self.history = history
        self.degree = degree
        # Plain insertion-ordered dict as LRU: pop+reinsert on hit,
        # evict the front key (DESIGN.md §15).
        self._table: Dict[int, _ZoneEntry] = {}

    def on_access(self, line_addr, was_hit, pc=0, allocate=True) -> List[int]:
        zone = line_addr >> self.czone_shift
        table = self._table
        entry = table.pop(zone, None)
        if entry is None:
            if not allocate:
                return []
            if len(table) >= self.zones:
                del table[next(iter(table))]
            table[zone] = _ZoneEntry(line_addr)
            return []
        table[zone] = entry  # reinsert at the MRU end
        delta = line_addr - entry.last_addr
        entry.last_addr = line_addr
        if delta == 0:
            return []
        deltas = entry.deltas
        deltas.append(delta)
        if len(deltas) > self.history:
            del deltas[: len(deltas) - self.history]
        if len(deltas) < 3:
            return []
        # Correlate on the last two deltas: find their most recent earlier
        # occurrence and replay what followed it.
        pair = (deltas[-2], deltas[-1])
        prefetches: List[int] = []
        for index in range(len(deltas) - 3, 0, -1):
            if (deltas[index - 1], deltas[index]) == pair:
                address = line_addr
                for future_delta in deltas[index + 1 : index + 1 + self.degree]:
                    address += future_delta
                    if address >= 0:
                        prefetches.append(address)
                break
        return prefetches
