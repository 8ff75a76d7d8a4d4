"""Synthetic L2-access trace generation.

The generator emits an infinite stream of :class:`TraceEntry` tuples from
a :class:`BenchmarkProfile`.  Two access populations are interleaved:

* **sequential runs** — ``num_streams`` concurrent contexts that each walk
  line addresses upward one at a time; after a geometrically-distributed
  run length the context jumps to a fresh random base.  Long runs are what
  stream prefetchers love; short runs are what makes them issue useless,
  far-ahead prefetches.
* **random accesses** — uniform over a working set, optionally re-touching
  recently used lines (temporal reuse → L2 hits).

All randomness comes from a seeded ``numpy`` Generator; random draws are
batched for speed, one 4,096-entry chunk at a time.

Hot-path layout (DESIGN.md §15): :meth:`generate_batches` builds each
chunk's entries in slices of doubling size (64, 64, 128, ..., 2,048) and
:meth:`generate` flattens them through ``itertools.chain.from_iterable``.
The per-access ``next(core.trace)`` hop in the simulation loop is then
serviced by the C chain iterator walking a prebuilt list instead of
resuming a Python generator frame per entry, and a slice is built only
when the consumer reaches it: a short run that takes n entries of a
chunk builds at most ``max(64, 2n)`` of them.  The chunk's batched draws
and the per-entry ``_fresh_base``/``_run_len`` draws happen in the same
order however far the consumer gets, so the stream does not depend on
the slicing.
"""

from __future__ import annotations

import zlib
from collections import deque
from itertools import chain
from typing import Iterator, List

import numpy as np

from repro.core.trace import TraceEntry
from repro.workloads.profiles import BenchmarkProfile

# Streams live in disjoint 1G-line regions so contexts never collide.
_REGION_BITS = 30
_CHUNK = 4096
# Where each slice of a chunk ends: every slice is as long as all the
# slices before it, after a first slice of 1/64 of the chunk.
_SLICE_ENDS = tuple(_CHUNK >> shift for shift in range(6, -1, -1))


class SyntheticTraceGenerator:
    """Deterministic, seeded trace generator for one benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed

    def __iter__(self) -> Iterator[TraceEntry]:
        return self.generate()

    def generate(self, offset: int = 0) -> Iterator[TraceEntry]:
        """Yield an infinite stream of trace entries.

        ``offset`` is added to every line address (cores get disjoint
        address spaces).  It is folded into the base pointers up front so
        the per-entry cost is zero; callers pass line-aligned offsets
        (multiples of 8), which keeps the low-bit pc hash unchanged.
        """
        return chain.from_iterable(self.generate_batches(offset))

    def generate_batches(self, offset: int = 0) -> Iterator[List[TraceEntry]]:
        """Yield the entry stream of :meth:`generate` as a series of lists.

        Each list is one slice of a chunk (``_SLICE_ENDS``), built only
        when the previous one has been taken; :meth:`generate` flattens
        them.  The next chunk's batched draws wait until the last slice
        of this one is taken.
        """
        profile = self.profile
        # zlib.crc32 is stable across processes (str.hash is randomized).
        rng = np.random.default_rng((self.seed, zlib.crc32(profile.name.encode())))
        gap_p = min(1.0, profile.apki / 1000.0)
        ws_base = offset + (int(rng.integers(0, 1 << _REGION_BITS)) << 8)
        stream_pos = [
            self._fresh_base(rng, index) + offset
            for index in range(profile.num_streams)
        ]
        stream_left = [
            self._run_len(rng, profile.run_length)
            for _ in range(profile.num_streams)
        ]
        recent: deque = deque(maxlen=64)
        access_index = 0
        # Profile constants hoisted out of the per-entry loop.
        phase_period = profile.phase_period
        phase_slots = 1 + profile.bad_phase_ratio
        good_sf = profile.stream_fraction
        good_rl = profile.run_length
        bad_sf = profile.bad_phase_stream_fraction
        bad_rl = profile.bad_phase_run_length
        reuse_fraction = profile.reuse_fraction
        hot_fraction = profile.hot_fraction
        write_fraction = profile.write_fraction
        num_streams = profile.num_streams
        ws_lines = profile.ws_lines
        stream_fraction = good_sf
        run_length = good_rl
        recent_append = recent.append
        # Entries are built through tuple.__new__: the namedtuple
        # constructor re-parses its four arguments on every call, and this
        # loop is the single hottest allocation site in a simulation.
        entry_new = tuple.__new__
        entry_cls = TraceEntry
        while True:
            # Batched random draws for one chunk of accesses, in a fixed
            # order.  Each slice converts its share to plain Python lists
            # before its build loop: per-element numpy scalar indexing costs
            # several times a list load, and the conversion costs more than
            # the draws, so a slice nobody reaches is never converted.
            draws = (
                rng.geometric(gap_p, _CHUNK) - 1,
                rng.random(_CHUNK),
                rng.integers(0, num_streams, _CHUNK),
                rng.integers(0, ws_lines, _CHUNK),
                rng.random(_CHUNK),
                rng.integers(0, 64, _CHUNK),
                rng.random(_CHUNK),
                rng.random(_CHUNK),
            )
            hot_draws = (
                rng.integers(0, profile.hot_lines, _CHUNK)
                if profile.hot_lines
                else None
            )
            start = 0
            for end in _SLICE_ENDS:
                (
                    gaps,
                    kind_draw,
                    stream_pick,
                    ws_pick,
                    reuse_draw,
                    reuse_pick,
                    hot_draw,
                    write_draw,
                ) = [draw[start:end].tolist() for draw in draws]
                hot_pick = (
                    hot_draws[start:end].tolist() if hot_draws is not None else None
                )
                batch: List[TraceEntry] = []
                batch_append = batch.append
                for i in range(end - start):
                    # The phase check is per-entry because a phase boundary
                    # can land mid-slice; profiles without phases skip it in
                    # one falsy test.
                    if phase_period:
                        if (access_index // phase_period) % phase_slots:  # bad
                            stream_fraction = bad_sf
                            run_length = bad_rl
                        else:
                            stream_fraction = good_sf
                            run_length = good_rl
                    if kind_draw[i] < stream_fraction:
                        context = stream_pick[i]
                        line = stream_pos[context]
                        stream_pos[context] += 1
                        stream_left[context] -= 1
                        if stream_left[context] <= 0:
                            stream_pos[context] = self._fresh_base(rng, context) + offset
                            stream_left[context] = self._run_len(rng, run_length)
                        pc = 16 + context
                    else:
                        if recent and reuse_draw[i] < reuse_fraction:
                            line = recent[reuse_pick[i] % len(recent)]
                        elif hot_pick is not None and hot_draw[i] < hot_fraction:
                            line = ws_base + hot_pick[i]
                        else:
                            line = ws_base + ws_pick[i]
                        pc = 8 + (line & 0x7)
                    recent_append(line)
                    access_index += 1
                    batch_append(
                        entry_new(
                            entry_cls,
                            (gaps[i], line, pc, write_draw[i] < write_fraction),
                        )
                    )
                yield batch
                start = end

    @staticmethod
    def _fresh_base(rng: np.random.Generator, context: int) -> int:
        region = (context + 1) << (_REGION_BITS + 4)
        return region + (int(rng.integers(0, 1 << _REGION_BITS)) << 4)

    @staticmethod
    def _run_len(rng: np.random.Generator, mean: int) -> int:
        return max(2, int(rng.geometric(1.0 / mean)))
