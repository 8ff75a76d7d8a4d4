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
chunk builds at most ``max(64, 2n)`` of them.

A slice is built from arrays: the phase, the stream/random split, the
hot-set or working-set line, the pc and the write flag are computed over
the whole slice, and only its stream entries are walked in Python, in
entry order, so the per-run ``_fresh_base``/``_run_len`` draws happen in
the same order however far the consumer gets.  A re-touch copies one of
the previous 64 lines; chains of re-touches are resolved by pointer
jumping over the previous 64 lines and the slice.  The entries are then
built by one C-level ``map`` over plain-int columns.  Lines are computed
relative to the core's offset in int64 and the offset is added last, so
any offset gives the same stream shifted by itself; a profile whose own
lines would reach 2**62 is rejected.
"""

from __future__ import annotations

import zlib
from itertools import chain, repeat
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
# Relative lines and offsets stay below this in magnitude, so their int64
# sum cannot overflow.
_LINE_LIMIT = 1 << 62


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
        address spaces).  A random access's pc hashes the low bits of the
        shifted line, so line-aligned offsets (multiples of 8, as
        ``System`` passes) leave the pcs unchanged.
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
        # Lines are built relative to ``offset`` in int64 and the offset is
        # added last, so no offset can wrap them.
        ws_base = int(rng.integers(0, 1 << _REGION_BITS)) << 8
        stream_pos = [
            self._fresh_base(rng, index) for index in range(profile.num_streams)
        ]
        stream_left = [
            self._run_len(rng, profile.run_length)
            for _ in range(profile.num_streams)
        ]
        num_streams = profile.num_streams
        ws_lines = profile.ws_lines
        # Stream lines start below (num_streams + 1) << 34, and a run would
        # need 2**34 accesses to pass one more region.
        if max(
            ws_base + max(ws_lines, profile.hot_lines),
            (num_streams + 2) << (_REGION_BITS + 4),
        ) >= _LINE_LIMIT:
            raise ValueError(
                f"profile {profile.name!r} addresses lines past 2**62 "
                f"(ws_lines={ws_lines}, num_streams={num_streams})"
            )
        # Below the limit in magnitude, the offset is added in int64 too.
        numpy_offset = -_LINE_LIMIT <= offset < _LINE_LIMIT
        # A random entry's pc hashes the low bits of its absolute line.
        offset_low = offset & 0x7
        recent = np.zeros(0, dtype=np.int64)  # the last 64 relative lines
        access_index = 0
        phase_period = profile.phase_period
        phase_slots = 1 + profile.bad_phase_ratio
        good_sf = profile.stream_fraction
        good_rl = profile.run_length
        bad_sf = profile.bad_phase_stream_fraction
        bad_rl = profile.bad_phase_run_length
        reuse_fraction = profile.reuse_fraction
        hot_fraction = profile.hot_fraction
        write_fraction = profile.write_fraction
        fresh_base = self._fresh_base
        run_len = self._run_len
        # Entries are built through tuple.__new__, mapped in C over the
        # columns: the namedtuple constructor re-parses its four arguments
        # on every call.
        entry_new = tuple.__new__
        while True:
            # Batched random draws for one chunk of accesses, in a fixed
            # order.  A slice nobody reaches is never computed.
            (
                gaps,
                kind_draw,
                stream_pick,
                ws_pick,
                reuse_draw,
                reuse_pick,
                hot_draw,
                write_draw,
            ) = (
                rng.geometric(gap_p, _CHUNK) - 1,
                rng.random(_CHUNK),
                rng.integers(0, num_streams, _CHUNK),
                rng.integers(0, ws_lines, _CHUNK),
                rng.random(_CHUNK),
                rng.integers(0, 64, _CHUNK),
                rng.random(_CHUNK),
                rng.random(_CHUNK),
            )
            hot_pick = (
                rng.integers(0, profile.hot_lines, _CHUNK)
                if profile.hot_lines
                else None
            )
            start = 0
            for end in _SLICE_ENDS:
                count = end - start
                # An entry is a stream access with its phase's stream
                # fraction; a phase boundary can land mid-slice.
                if phase_period:
                    bad = (
                        np.arange(access_index, access_index + count) // phase_period
                    ) % phase_slots != 0
                    stream = kind_draw[start:end] < np.where(bad, bad_sf, good_sf)
                else:
                    stream = kind_draw[start:end] < good_sf
                contexts = stream_pick[start:end]
                # A random entry re-touches a recent line, or else takes a
                # hot-set line or a working-set line.
                lines = ws_base + ws_pick[start:end]
                if hot_pick is not None:
                    lines = np.where(
                        hot_draw[start:end] < hot_fraction,
                        ws_base + hot_pick[start:end],
                        lines,
                    )
                # The stream walk runs in entry order, so the fresh-base and
                # run-length draws of the runs that end here keep theirs.
                walk = stream.nonzero()[0]
                if walk.size:
                    walked = []
                    for index, context in zip(walk.tolist(), contexts[walk].tolist()):
                        line = stream_pos[context]
                        walked.append(line)
                        left = stream_left[context] - 1
                        if left > 0:
                            stream_pos[context] = line + 1
                        else:
                            stream_pos[context] = fresh_base(rng, context)
                            left = run_len(
                                rng, bad_rl if phase_period and bad[index] else good_rl
                            )
                        stream_left[context] = left
                    lines[walk] = walked
                # A draw is never below 0, so a profile without reuse (or,
                # below, without stores) skips its compare.
                if reuse_fraction:
                    reused = (
                        ~stream & (reuse_draw[start:end] < reuse_fraction)
                    ).nonzero()[0]
                    if reused.size:
                        lines = self._resolve_reuse(
                            recent, lines, reused, reuse_pick[start:end], access_index
                        )
                recent = np.concatenate((recent, lines))[-64:]
                pcs = np.where(stream, 16 + contexts, 8 + ((lines + offset_low) & 0x7))
                if numpy_offset:
                    addresses = (lines + offset).tolist()
                else:
                    addresses = [line + offset for line in lines.tolist()]
                access_index += count
                yield list(
                    map(
                        entry_new,
                        repeat(TraceEntry, count),
                        zip(
                            gaps[start:end].tolist(),
                            addresses,
                            pcs.tolist(),
                            (write_draw[start:end] < write_fraction).tolist()
                            if write_fraction
                            else repeat(False, count),
                        ),
                    )
                )
                start = end

    @staticmethod
    def _resolve_reuse(
        recent: np.ndarray,
        lines: np.ndarray,
        reused: np.ndarray,
        picks: np.ndarray,
        access_index: int,
    ) -> np.ndarray:
        """The slice's lines once its ``reused`` entries copy their sources.

        Entry g re-touches line g - 64 + pick once 64 lines exist, and
        line pick % g before (entry 0 points at itself and keeps its
        random line).  Over ``recent`` (the previous lines) and the slice,
        every entry points at itself or at its source; jumping pointers
        until they settle resolves chains of re-touches.
        """
        held = len(recent)
        pick = picks[reused]
        pointer = np.arange(held + len(lines))
        if access_index >= 64:
            # All 64 previous lines are held: entry i's source is i + pick.
            pointer[held + reused] = reused + pick
        else:
            position = access_index + reused
            pointer[held + reused] = np.where(
                position >= 64,
                position - 64 + pick,
                pick % np.maximum(position, 1),
            ) - (access_index - held)
        while True:
            jumped = pointer[pointer]
            if (jumped == pointer).all():
                break
            pointer = jumped
        return np.concatenate((recent, lines))[pointer[held:]]

    @staticmethod
    def _fresh_base(rng: np.random.Generator, context: int) -> int:
        region = (context + 1) << (_REGION_BITS + 4)
        return region + (int(rng.integers(0, 1 << _REGION_BITS)) << 4)

    @staticmethod
    def _run_len(rng: np.random.Generator, mean: int) -> int:
        return max(2, int(rng.geometric(1.0 / mean)))
