"""A single SDRAM bank with its row buffer (sense amplifier).

Each bank tracks the currently open row (``None`` when precharged) and the
cycle at which it next becomes free.  ``access_latency`` classifies an
access as row-hit, row-closed or row-conflict and returns the corresponding
command-sequence latency (paper §2.1).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.params import DRAMTimings


class RowBufferState(enum.Enum):
    """Outcome classification for a bank access (paper §2.1)."""

    HIT = "row-hit"
    CLOSED = "row-closed"
    CONFLICT = "row-conflict"


class Bank:
    """One DRAM bank: open-row state plus a busy-until timestamp.

    ``busy_until`` doubles as a scheduling-relevant timestamp for the
    simulation loop (DESIGN.md §11): the engine's next-wake scan takes
    the minimum over non-empty bank queues, and the loop schedules the
    channel's next round at it.  Anything that occupies a bank must
    therefore go through ``busy_until`` (as ``Channel.service`` and
    ``RefreshScheduler.apply`` do) — side-channel stalls would be
    invisible to the next-wake computation.
    """

    __slots__ = (
        "timings",
        "open_row",
        "busy_until",
        "hits",
        "closed_accesses",
        "conflicts",
        "busy_cycles",
    )

    def __init__(self, timings: DRAMTimings):
        self.timings = timings
        self.open_row: Optional[int] = None
        self.busy_until: int = 0
        self.hits = 0
        self.closed_accesses = 0
        self.conflicts = 0
        # Lifetime cycles this bank spent occupied (command sequence +
        # burst); the telemetry layer differences it per interval for the
        # per-bank utilization series.
        self.busy_cycles = 0

    def classify(self, row: int) -> RowBufferState:
        """Classify an access to ``row`` against the current row buffer."""
        if self.open_row is None:
            return RowBufferState.CLOSED
        if self.open_row == row:
            return RowBufferState.HIT
        return RowBufferState.CONFLICT

    def is_row_hit(self, row: int) -> bool:
        return self.open_row == row

    def access_latency(self, row: int) -> int:
        """Full command latency for an isolated access to ``row``."""
        state = self.classify(row)
        if state is RowBufferState.HIT:
            return self.timings.row_hit_latency
        if state is RowBufferState.CLOSED:
            return self.timings.row_closed_latency
        return self.timings.row_conflict_latency

    def pre_burst_work(self, row: int, pipelined_cas: bool = False) -> int:
        """Bank-occupying work before the data burst can start.

        The paper's timing model (its footnote 4: row-hit latency 12.5ns
        is "the highest throughput the DRAM bank can deliver") serializes
        the column access per bank, so a row-hit occupies its bank for CL
        before the burst; a closed row adds tRCD and a conflict
        tRP + tRCD.  ``pipelined_cas=True`` instead overlaps the column
        access with earlier bursts (modern-DDR behaviour), letting one
        bank stream at full bus rate.
        """
        state = self.classify(row)
        hit_work = 0 if pipelined_cas else self.timings.cl
        if state is RowBufferState.HIT:
            return hit_work
        if state is RowBufferState.CLOSED:
            return self.timings.t_rcd + hit_work
        return self.timings.t_rp + self.timings.t_rcd + hit_work

    def access(self, row: int, pipelined_cas: bool = False):
        """Fused ``record_access`` + ``pre_burst_work`` for the service path.

        Classifies once instead of twice; returns ``(state, work)``.
        """
        timings = self.timings
        hit_work = 0 if pipelined_cas else timings.cl
        open_row = self.open_row
        if open_row == row:
            self.hits += 1
            return RowBufferState.HIT, hit_work
        if open_row is None:
            self.closed_accesses += 1
            state = RowBufferState.CLOSED
            work = timings.t_rcd + hit_work
        else:
            self.conflicts += 1
            state = RowBufferState.CONFLICT
            work = timings.t_rp + timings.t_rcd + hit_work
        self.open_row = row
        return state, work

    def record_access(self, row: int) -> RowBufferState:
        """Update hit/conflict counters and open ``row``; return the state."""
        state = self.classify(row)
        if state is RowBufferState.HIT:
            self.hits += 1
        elif state is RowBufferState.CLOSED:
            self.closed_accesses += 1
        else:
            self.conflicts += 1
        self.open_row = row
        return state

    def precharge(self) -> None:
        """Close the row buffer (used by the closed-row policy)."""
        self.open_row = None

    @property
    def total_accesses(self) -> int:
        return self.hits + self.closed_accesses + self.conflicts

    def row_hit_rate(self) -> float:
        total = self.total_accesses
        return self.hits / total if total else 0.0
