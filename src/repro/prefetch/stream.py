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
match window ``[lo, hi]`` — the training window while allocated, the
monitoring region once a direction is known — so a match is one range
compare whatever the state or direction.  The region's leading edge is
``hi`` for an ascending stream and ``lo`` for a descending one.  The
table is indexed by 64-line bucket: ``_buckets`` maps ``line >> 6`` to
the entries whose window overlaps that bucket, each list in allocation
order, so ``on_access`` scans the few entries near the line instead of
the whole table and still finds the first match in allocation order
(windows may overlap, and which one matches decides what trains).  The
index is kept at the mutation sites: allocation and eviction, training,
and a trigger whose window crosses a bucket boundary.  Recency lives in
an ``OrderedDict`` (least recently used first), so allocation finds its
victim without scanning the table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.prefetch.base import Prefetcher

# A window [lo, hi] is filed under every bucket from lo >> 6 to hi >> 6.
_BUCKET_BITS = 6


class StreamEntry:
    """One tracked stream; ``direction`` is 0 until it has trained.

    ``order`` counts allocations: it ranks entries whose windows overlap.
    The prefetcher sets every field when it (re)allocates the entry.
    """

    __slots__ = ("start", "direction", "lo", "hi", "order")


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
        self._buckets: Dict[int, List[StreamEntry]] = {}
        # Every live entry, least recently matched or allocated first.
        self._lru: "OrderedDict[StreamEntry, None]" = OrderedDict()
        self._allocated = 0

    @property
    def entries(self) -> List[StreamEntry]:
        """The live entries in allocation order."""
        return sorted(self._lru, key=lambda entry: entry.order)

    def set_aggressiveness(self, degree: int, distance: int) -> None:
        """Used by FDP to throttle/boost the prefetcher."""
        self.degree = degree
        self.distance = distance

    def _allocate(self, line_addr: int) -> None:
        lru = self._lru
        buckets = self._buckets
        if len(lru) >= self.num_streams:
            # The least recently used entry is evicted, and its object
            # reused for the new stream.
            entry = next(iter(lru))
            lru.move_to_end(entry)
            last = entry.hi >> _BUCKET_BITS
            for key in range(entry.lo >> _BUCKET_BITS, last + 1):
                bucket = buckets[key]
                bucket.remove(entry)
                if not bucket:
                    del buckets[key]
        else:
            entry = StreamEntry()
            lru[entry] = None
        self._allocated += 1
        entry.order = self._allocated
        entry.start = line_addr
        entry.direction = 0
        entry.lo = lo = line_addr - self.train_distance
        entry.hi = hi = line_addr + self.train_distance
        # The newest entry goes last in every bucket it overlaps.
        for key in range(lo >> _BUCKET_BITS, (hi >> _BUCKET_BITS) + 1):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)

    def _move(self, entry: StreamEntry, lo: int, hi: int) -> None:
        """Set the entry's window to ``[lo, hi]`` and re-file it by bucket."""
        old = range(entry.lo >> _BUCKET_BITS, (entry.hi >> _BUCKET_BITS) + 1)
        new = range(lo >> _BUCKET_BITS, (hi >> _BUCKET_BITS) + 1)
        entry.lo = lo
        entry.hi = hi
        buckets = self._buckets
        for key in old:
            if key not in new:
                bucket = buckets[key]
                bucket.remove(entry)
                if not bucket:
                    del buckets[key]
        order = entry.order
        for key in new:
            if key in old:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            elif bucket[-1].order < order:
                bucket.append(entry)
            else:
                # An older entry than some already filed here: insert it
                # before the first newer one, keeping allocation order.
                index = 0
                while bucket[index].order < order:
                    index += 1
                bucket.insert(index, entry)

    def on_access(self, line_addr, was_hit, pc=0, allocate=True) -> List[int]:
        # First match in allocation order wins: the bucket's list holds
        # every window that contains the line, in that order.
        bucket = self._buckets.get(line_addr >> _BUCKET_BITS)
        if bucket is not None:
            for entry in bucket:
                if entry.lo <= line_addr <= entry.hi:
                    break
            else:
                bucket = None
        if bucket is None:
            # Only a demand *miss* outside all streams allocates (§2.3); the
            # only-train policy additionally suppresses allocation (§6.14).
            if not was_hit and allocate:
                self._allocate(line_addr)
            return []
        self._lru.move_to_end(entry)
        direction = entry.direction
        if direction:
            # Monitoring: issue degree prefetches past the leading edge,
            # then shift the region forward by the same amount.  The
            # window is re-filed only when an end crosses a bucket
            # boundary (about one trigger in 32/degree).
            degree = self.degree
            lo = entry.lo
            hi = entry.hi
            shift = degree * direction
            new_lo = lo + shift
            new_hi = hi + shift
            if not ((new_lo ^ lo) | (new_hi ^ hi)) >> _BUCKET_BITS:
                entry.lo = new_lo
                entry.hi = new_hi
            else:
                self._move(entry, new_lo, new_hi)
            if direction > 0:
                return list(range(hi + 1, new_hi + 1))
            # Descending: the batch stops at line 0.
            return list(range(lo - 1, max(new_lo, 0) - 1, -1))
        start = entry.start
        if line_addr == start:
            return []
        # Training: the second access fixes the direction, and the window
        # becomes the monitoring region [S, S + D·dir].
        if line_addr > start:
            entry.direction = 1
            self._move(entry, start, start + self.distance)
        else:
            entry.direction = -1
            self._move(entry, start - self.distance, start)
        return []
