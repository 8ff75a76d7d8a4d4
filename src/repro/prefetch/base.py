"""Common prefetcher interface.

A prefetcher observes every L2 access of its core and returns candidate
line addresses to prefetch.  The system layer is responsible for
suppressing candidates that already hit in the cache or MSHRs, applying
filters, and admitting the survivors into the memory request buffer.
"""

from __future__ import annotations

from typing import List

from repro.params import PrefetcherConfig


class Prefetcher:
    """Base class for hardware prefetchers."""

    name = "abstract"

    def on_access(
        self,
        line_addr: int,
        was_hit: bool,
        pc: int = 0,
        allocate: bool = True,
    ) -> List[int]:
        """Observe one L2 access; return candidate prefetch line addresses.

        ``allocate=False`` implements the *only-train* update policy used
        during runahead execution (paper §6.14): existing structures are
        trained but no new stream/table entries are created.
        """
        raise NotImplementedError

    def set_aggressiveness(self, degree: int, distance: int) -> None:
        """Adopt an FDP throttling decision.

        Table-based prefetchers (stride/CDC/Markov) have no
        degree/distance knob, so FDP's level moves are recorded by the
        controller but have no effect here.  Only stream-style
        prefetchers override this.  (Found by the differential fuzzer:
        ``filter_kind="fdp"`` with a non-stream prefetcher used to crash
        at the first interval boundary.)
        """


class NullPrefetcher(Prefetcher):
    """Prefetching disabled."""

    name = "none"

    def on_access(self, line_addr, was_hit, pc=0, allocate=True) -> List[int]:
        return []


def make_prefetcher(config: PrefetcherConfig) -> Prefetcher:
    """Instantiate the prefetcher named by ``config.kind``."""
    from repro.prefetch.cdc import CDCPrefetcher
    from repro.prefetch.markov import MarkovPrefetcher
    from repro.prefetch.stream import StreamPrefetcher
    from repro.prefetch.stride import StridePrefetcher

    if config.kind == "none":
        return NullPrefetcher()
    if config.kind == "stream":
        return StreamPrefetcher(
            num_streams=config.num_streams,
            degree=config.degree,
            distance=config.distance,
        )
    if config.kind == "stride":
        return StridePrefetcher(degree=config.degree)
    if config.kind == "cdc":
        return CDCPrefetcher(degree=config.degree)
    if config.kind == "markov":
        return MarkovPrefetcher(degree=min(config.degree, 2))
    raise ValueError(f"unknown prefetcher kind: {config.kind!r}")
