"""Aggressive stream prefetcher, modelled on IBM POWER4/5 (paper §2.3).

Each of the ``num_streams`` entries walks through three states:

1. **allocated** — a miss outside every existing stream records the line
   address as the start pointer S;
2. **training** — a subsequent access within ``train_distance`` lines of S
   fixes the stream direction and establishes the monitoring region
   [S, S + D·dir] where D is the prefetch distance;
3. **monitoring** — an access inside the monitoring region issues N
   (prefetch degree) consecutive prefetches beyond the region's leading
   edge and shifts the region forward by N lines.

The degree/distance pair is mutable so that FDP (paper §6.12) can throttle
the aggressiveness at interval boundaries.

Hot-path layout (DESIGN.md §15): every entry carries a *normalized*
match interval ``[lo, hi]`` maintained at the handful of mutation sites
(allocate, train, trigger, rewind).  The match scan in ``on_access`` —
one run over up to ``num_streams`` entries per L2 access — then reduces
to a single range compare per entry, with no state branch and no
low/high swap for descending streams.  ``mon_end`` is the region's
directed leading edge, the point the next batch of prefetches starts
from.
"""

from __future__ import annotations

from typing import List, Optional

from repro.prefetch.base import Prefetcher

_ALLOCATED = 0
_MONITORING = 1


class StreamEntry:
    """One tracked stream."""

    __slots__ = (
        "state",
        "start",
        "direction",
        "mon_end",
        "last_use",
        "lo",
        "hi",
    )

    def __init__(self, start: int, now_tick: int, train_distance: int = 0):
        self.state = _ALLOCATED
        self.start = start
        self.direction = 0
        self.mon_end = start
        self.last_use = now_tick
        # Normalized match window: while allocated, an access within
        # train_distance of S trains the stream; while monitoring, the
        # window is the (direction-normalized) monitoring region.
        self.lo = start - train_distance
        self.hi = start + train_distance


class StreamPrefetcher(Prefetcher):
    """POWER4/5-style sequential stream prefetcher."""

    name = "stream"

    def __init__(
        self,
        num_streams: int = 32,
        degree: int = 4,
        distance: int = 64,
        train_distance: int = 16,
    ):
        self.num_streams = num_streams
        self.degree = degree
        self.distance = distance
        self.train_distance = train_distance
        self.entries: List[StreamEntry] = []
        self._tick = 0
        self._last_triggered: Optional[StreamEntry] = None

    def set_aggressiveness(self, degree: int, distance: int) -> None:
        """Used by FDP to throttle/boost the prefetcher."""
        self.degree = degree
        self.distance = distance

    def _allocate(self, line_addr: int) -> None:
        entries = self.entries
        if len(entries) >= self.num_streams:
            # LRU victim by manual scan: min(entries, key=lambda ...) pays
            # a lambda call per entry on every allocation.
            victim = entries[0]
            best = victim.last_use
            for entry in entries:
                last_use = entry.last_use
                if last_use < best:
                    best = last_use
                    victim = entry
            entries.remove(victim)
        entries.append(StreamEntry(line_addr, self._tick, self.train_distance))

    def on_access(self, line_addr, was_hit, pc=0, allocate=True) -> List[int]:
        self._tick = tick = self._tick + 1
        # First match wins (regions may overlap), in allocation order —
        # the normalized lo/hi window makes this a single compare per
        # entry regardless of state or direction.
        for entry in self.entries:
            if entry.lo <= line_addr <= entry.hi:
                break
        else:
            # Only a demand *miss* outside all streams allocates (§2.3); the
            # only-train policy additionally suppresses allocation (§6.14).
            if not was_hit and allocate:
                self._allocate(line_addr)
            return []
        entry.last_use = tick
        if entry.state == _ALLOCATED:
            if line_addr == entry.start:
                return []
            start = entry.start
            direction = 1 if line_addr > start else -1
            end = start + self.distance * direction
            entry.direction = direction
            entry.mon_end = end
            entry.state = _MONITORING
            if direction > 0:
                entry.lo = start
                entry.hi = end
            else:
                entry.lo = end
                entry.hi = start
            return []
        # Monitoring: issue degree prefetches past the leading edge, then
        # shift the monitoring region forward by the same amount.
        direction = entry.direction
        edge = entry.mon_end
        degree = self.degree
        shift = degree * direction
        entry.mon_end = edge + shift
        entry.lo += shift
        entry.hi += shift
        self._last_triggered = entry
        if direction > 0:
            # Ascending streams (the common case) build the batch at C
            # speed; negative addresses are unreachable going up.
            return list(range(edge + 1, edge + degree + 1))
        return [
            address
            for address in range(edge - 1, edge - degree - 1, -1)
            if address >= 0
        ]

    def rewind(self, count: int) -> None:
        """Roll the last triggered stream back ``count`` lines.

        Called when the memory system rejected the tail of the last
        candidate batch (MSHR or request buffer full): the monitoring
        region retreats so the same lines are re-attempted on the next
        trigger rather than skipped (which would permanently lose
        coverage, the effect paper §6.1 attributes to full buffers).
        """
        entry = self._last_triggered
        if entry is None or count <= 0 or entry.state != _MONITORING:
            return
        retreat = min(count, self.degree) * entry.direction
        entry.mon_end -= retreat
        entry.lo -= retreat
        entry.hi -= retreat
