"""Last-level cache substrate: set-associative L2 with prefetch bits, MSHRs.

The paper's prefetchers fill into the L2 (the last-level cache of its
processor model); the L1s are absorbed into the workload traces, which are
streams of *L2 accesses*.  Each line carries the P bit used by the
prefetch-accuracy measurement (paper §4.1) and by the prefetch filters.
"""

from repro.cache.cache import CacheLine, L2Cache
from repro.cache.mshr import MSHR, MSHREntry

__all__ = [
    "CacheLine",
    "L2Cache",
    "MSHR",
    "MSHREntry",
]
