"""Per-core simulation state.

``CoreState`` holds a core's trace, its outstanding demand misses and its
stall bookkeeping.  The mechanics — consuming the trace, the ROB-occupancy
stall test, what happens on an access or a fill — live in the simulation
loop's handlers (:mod:`repro.sim.loop`), which read and write these
fields directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Optional

from repro.core.trace import TraceEntry
from repro.params import CoreConfig


class CoreState:
    """Bookkeeping for one processing core."""

    __slots__ = (
        "core_id",
        "config",
        "retire_width",
        "trace",
        "lookahead",
        "target_accesses",
        "accesses_done",
        "instructions_issued",
        "outstanding_demand",
        "stalled",
        "stall_start",
        "waiting_mshr",
        "pending_entry",
        "done",
        "finish_time",
        "stall_cycles",
        "loads",
        "l2_hits",
        "l2_misses",
        "mshr_stalls",
        "runahead_issued",
    )

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: Iterator[TraceEntry],
        target_accesses: int,
    ):
        self.core_id = core_id
        self.config = config
        self.retire_width = config.retire_width
        self.trace = trace
        self.lookahead: Deque[TraceEntry] = deque()
        self.target_accesses = target_accesses
        self.accesses_done = 0
        self.instructions_issued = 0
        # line_addr -> instructions_issued at the time the miss was sent.
        # Kept ordered by send time (writers delete-then-set on re-insert),
        # so the loop's ROB test reads the oldest miss as the first value.
        self.outstanding_demand: Dict[int, int] = {}
        self.stalled = False
        self.stall_start = 0
        self.waiting_mshr = False
        self.pending_entry: Optional[TraceEntry] = None
        self.done = False
        self.finish_time = 0
        self.stall_cycles = 0
        self.loads = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.mshr_stalls = 0
        self.runahead_issued = 0

    # -- runahead ------------------------------------------------------------

    def peek_ahead(self, depth: int) -> Deque[TraceEntry]:
        """Expose up to ``depth`` future entries without consuming them.

        Used by runahead execution: the entries remain in the lookahead
        buffer and will be re-executed when the core resumes, just as a
        runahead processor re-executes instructions after rollback.
        """
        while len(self.lookahead) < depth:
            entry = next(self.trace, None)
            if entry is None:
                break
            self.lookahead.append(entry)
        return self.lookahead

    # -- results ----------------------------------------------------------------

    @property
    def instructions_retired(self) -> int:
        """Total instructions: inter-access gaps plus the loads themselves."""
        return self.instructions_issued + self.accesses_done
