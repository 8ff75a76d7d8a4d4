"""Memory-request-buffer entries.

Each request carries the fields of the paper's Figure 5/18:

* ``is_prefetch`` — the P bit.  It is cleared ("promoted") when a demand
  request matches the prefetch while it is still in flight; a promoted
  request schedules as a demand and counts as a *useful* prefetch.
* ``core_id`` — the ID field.
* ``arrival`` — the FCFS timestamp; ``age(now)`` derives the AGE field.
* criticality (C), row-hit (RH), urgency (U) and RANK are computed at
  scheduling time from the bank state and the per-core accuracy registers.

Scheduling hot path (DESIGN.md §10): ``seq`` is a controller-assigned
admission sequence number that breaks every priority tie, and
``prio_base``/``prio_hit``/``prio_stamp`` cache the packed integer
priority key for both row-buffer outcomes.  A request is admitted
unkeyed; the first round that scans its bank keys it, and later rounds
recompute the keys only when the policy's key epoch has moved.
``promote()`` invalidates the cache — a cleared P bit changes the key
under every prefetch-aware policy.  APS-rank's per-round core rank is
never cached: the round applies it when it compares.
"""

from __future__ import annotations

from typing import Optional

from repro.controller.cost import ARRIVAL_LIMIT, SEQ_BITS, SEQ_LIMIT


class MemRequest:
    """One entry of the DRAM controller's memory request buffer."""

    __slots__ = (
        "line_addr",
        "core_id",
        "is_prefetch",
        "is_write",
        "arrival",
        "channel",
        "bank",
        "row",
        "promoted",
        "is_runahead",
        "row_hit_service",
        "service_start",
        "completion",
        "dropped",
        "seq",
        "fcfs_key",
        "prio_base",
        "prio_hit",
        "prio_stamp",
        "qpos",
    )

    def __init__(
        self,
        line_addr: int,
        core_id: int,
        is_prefetch: bool,
        arrival: int,
        channel: int,
        bank: int,
        row: int,
        is_write: bool = False,
        is_runahead: bool = False,
        seq: int = 0,
    ):
        self.line_addr = line_addr
        self.core_id = core_id
        self.is_prefetch = is_prefetch
        self.is_write = is_write
        self.arrival = arrival
        self.channel = channel
        self.bank = bank
        self.row = row
        self.promoted = False
        self.is_runahead = is_runahead
        self.row_hit_service: Optional[bool] = None
        self.service_start: Optional[int] = None
        self.completion: Optional[int] = None
        self.dropped = False
        self.seq = seq
        # Inlined pack_fcfs(arrival, seq): one request per miss/prefetch
        # makes the extra call measurable.
        self.fcfs_key = ((ARRIVAL_LIMIT - arrival) << SEQ_BITS) | (SEQ_LIMIT - seq)
        # Cached packed priority keys for both row-buffer outcomes
        # (``prio_hit`` applies when this request's row is open,
        # ``prio_base`` otherwise), valid while ``prio_stamp`` matches the
        # policy's epoch; -1 never matches.  Caching both variants makes
        # open-row changes free — only epoch bumps and promotion
        # invalidate (DESIGN.md §10).
        self.prio_base = 0
        self.prio_hit = 0
        self.prio_stamp = -1
        # Index of this request in its bank queue (-1 = not queued),
        # maintained by the fast round for O(1) swap-pop removal.
        self.qpos = -1

    def age(self, now: int) -> int:
        """Cycles this request has been outstanding (the AGE field)."""
        return now - self.arrival

    def promote(self) -> None:
        """A demand matched this in-flight prefetch: clear the P bit.

        The request is scheduled as a demand from now on, but it still
        counts as a (useful) prefetch for accuracy accounting, per the
        paper's footnote 9.
        """
        if self.is_prefetch:
            self.is_prefetch = False
            self.promoted = True
            # The P bit feeds every prefetch-aware priority key; force a
            # recompute on the next scheduling round.
            self.prio_stamp = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "P" if self.is_prefetch else ("D*" if self.promoted else "D")
        return (
            f"MemRequest({kind} line=0x{self.line_addr:x} core={self.core_id} "
            f"ch={self.channel} bank={self.bank} row={self.row} t={self.arrival})"
        )
