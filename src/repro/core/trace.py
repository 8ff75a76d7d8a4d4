"""Trace format consumed by the core model.

A trace is an iterator of :class:`TraceEntry` — one entry per *L2 access*
(the L1s are considered part of the workload): the number of instructions
executed since the previous L2 access, the cache-line address touched and
a synthetic PC identifying the access site (used by PC-indexed
prefetchers and filters).
"""

from __future__ import annotations

from typing import NamedTuple


class TraceEntry(NamedTuple):
    """One L2 access in a core's instruction stream."""

    gap: int
    line_addr: int
    pc: int
    is_write: bool = False

