"""Miss Status Holding Registers.

The MSHR file tracks in-flight line fills.  It is where a demand request
can *match* an in-flight prefetch: the prefetch is promoted (P bit reset,
PUC incremented) and the demand simply waits for the existing fill —
paper §4.1 item 1 and footnote 9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, ValuesView

from repro.controller.request import MemRequest


class MSHREntry:
    """One in-flight miss: the memory request plus waiting cores."""

    __slots__ = ("line_addr", "request", "waiters", "dirty_on_fill")

    def __init__(self, line_addr: int, request: MemRequest):
        self.line_addr = line_addr
        self.request = request
        self.waiters: List[int] = []
        # A store merged into this miss: the line fills dirty
        # (write-allocate) and writes back to DRAM on eviction.
        self.dirty_on_fill = False


class MSHR:
    """A fixed-capacity file of in-flight misses, indexed by line address."""

    def __init__(self, entries: int):
        self.capacity = entries
        self._entries: Dict[int, MSHREntry] = {}
        # Lifetime counters: occupancy must always equal
        # total_allocated - total_freed (audited by repro.validate).
        self.total_allocated = 0
        self.total_freed = 0
        # High-water mark since the telemetry layer last sampled it (one
        # compare per allocation; the collector resets it per interval).
        self.peak_occupancy = 0

    # The loop's demand, prefetch and fill handlers work on ``_entries``
    # directly; the methods below serve the paths that do not: runahead
    # (``contains``, ``allocate``), the prefetch-drop callback (``free``)
    # and the invariant checker (``get``, ``entries``).

    def get(self, line_addr: int) -> Optional[MSHREntry]:
        return self._entries.get(line_addr)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def allocate(self, line_addr: int, request: MemRequest) -> Optional[MSHREntry]:
        """Allocate an entry; returns None when the file is full."""
        if len(self._entries) >= self.capacity:
            return None
        if line_addr in self._entries:
            raise ValueError(f"duplicate MSHR allocation for line 0x{line_addr:x}")
        entry = MSHREntry(line_addr, request)
        self._entries[line_addr] = entry
        self.total_allocated += 1
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        return entry

    def free(self, line_addr: int) -> Optional[MSHREntry]:
        """Release the entry (on fill completion or prefetch drop)."""
        entry = self._entries.pop(line_addr, None)
        if entry is not None:
            self.total_freed += 1
        return entry

    def entries(self) -> ValuesView[MSHREntry]:
        """Live view of the in-flight entries (used by validation).

        Returns the dict's values view — an O(1) handle, not a list
        copy.  Callers iterate it read-only; anyone who mutates the MSHR
        while iterating must materialize it first (``list(...)``).
        """
        return self._entries.values()

    @property
    def occupancy(self) -> int:
        # len() of a dict is O(1); no snapshotting or rebuild involved.
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity
