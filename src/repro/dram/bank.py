"""A single SDRAM bank with its row buffer (sense amplifier).

Each bank tracks the currently open row (``None`` when precharged), the
cycle at which it next becomes free and its row-buffer outcome counters.
The timing of an access — row-hit, row-closed or row-conflict, paper
§2.1 — is applied by :meth:`repro.dram.channel.Channel.service` and by
the fast scheduling round that inlines it.
"""

from __future__ import annotations

import enum
from typing import Optional


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
        "open_row",
        "busy_until",
        "hits",
        "closed_accesses",
        "conflicts",
        "busy_cycles",
    )

    def __init__(self):
        self.open_row: Optional[int] = None
        self.busy_until: int = 0
        self.hits = 0
        self.closed_accesses = 0
        self.conflicts = 0
        # Lifetime cycles this bank spent occupied (command sequence +
        # burst); the telemetry layer differences it per interval for the
        # per-bank utilization series.
        self.busy_cycles = 0

    def precharge(self) -> None:
        """Close the row buffer (closed-row policy and refresh)."""
        self.open_row = None

    @property
    def total_accesses(self) -> int:
        return self.hits + self.closed_accesses + self.conflicts
