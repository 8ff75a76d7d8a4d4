"""Markov prefetcher (Joseph & Grunwald [7], paper §2.2).

A correlation table maps a miss address to the miss addresses that have
followed it, most-recent-first.  On a miss, the recorded successors of the
missing address are prefetched.  The table is trained only on demand
misses (temporal correlation), which is why it fares poorly on SPEC-like
workloads (paper §6.11) — a behaviour our reproduction preserves.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.prefetch.base import Prefetcher


class MarkovPrefetcher(Prefetcher):
    """Miss-correlation prefetching with an LRU-managed table."""

    name = "markov"

    def __init__(self, table_size: int = 4096, successors: int = 2, degree: int = 2):
        self.table_size = table_size
        self.successors = successors
        self.degree = degree
        # Plain insertion-ordered dict as LRU: pop+reinsert on touch,
        # evict the front key (DESIGN.md §15).
        self._table: Dict[int, List[int]] = {}
        self._last_miss: Optional[int] = None

    def on_access(self, line_addr, was_hit, pc=0, allocate=True) -> List[int]:
        if was_hit:
            return []
        if self._last_miss is not None and allocate:
            table = self._table
            last_miss = self._last_miss
            successors = table.pop(last_miss, None)
            if successors is None:
                if len(table) >= self.table_size:
                    del table[next(iter(table))]
                table[last_miss] = [line_addr]
            else:
                if line_addr in successors:
                    successors.remove(line_addr)
                successors.insert(0, line_addr)
                del successors[self.successors :]
                table[last_miss] = successors  # reinsert at the MRU end
        self._last_miss = line_addr
        recorded = self._table.get(line_addr)
        if not recorded:
            return []
        return list(recorded[: self.degree])
