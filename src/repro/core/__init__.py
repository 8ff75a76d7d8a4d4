"""Processing-core model: trace format and the ROB-occupancy core state.

The core is a first-order model of the paper's 4-wide out-of-order
processor: it retires instructions at ``retire_width`` per cycle between
L2 accesses and keeps issuing past L2 misses (memory-level parallelism)
until the 256-entry reorder buffer fills behind the oldest outstanding
demand miss, at which point it stalls — the stalls are what the paper's
SPL metric measures.  Runahead execution (§6.14) issues future trace
accesses as demand requests while the core is stalled.  The simulation
loop (:mod:`repro.sim.loop`) implements these mechanics over the state
that :class:`CoreState` holds.
"""

from repro.core.core import CoreState
from repro.core.trace import TraceEntry

__all__ = ["CoreState", "TraceEntry"]
