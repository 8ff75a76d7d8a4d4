"""Result containers produced by a simulation run.

``CoreResult`` carries everything the paper's metrics need per core;
``SimResult`` aggregates the system view (bus traffic, row-buffer hit
rate, controller counters).  The metric formulas themselves (WS/HS/UF,
ACC/COV, RBHU, SPL) live in :mod:`repro.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.telemetry.trace import SimTrace

# Version of the CoreResult/SimResult serialized form.  Bump whenever a
# field is added, removed or reinterpreted (and bump CACHE_VERSION in
# repro.runtime.store alongside, so stale cached payloads are ignored
# rather than misread).  History: 1 = pre-telemetry; 2 = adds
# schema_version itself plus SimResult.trace.
RESULT_SCHEMA_VERSION = 2


@dataclass
class CoreResult:
    """Per-core outcome of one simulation run."""

    core_id: int
    benchmark: str
    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stall_cycles: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    # Prefetch accounting (paper §4.1 and §5.2).
    pf_sent: int = 0
    pf_used: int = 0
    pf_late: int = 0
    pf_dropped: int = 0
    pf_rejected_full: int = 0
    pf_filtered: int = 0
    pf_mshr_rejected: int = 0
    # Prefetched lines evicted from the L2 without ever being used; with
    # the in-flight and still-resident populations this closes the
    # pf_sent conservation law audited by repro.validate.
    pf_evicted_unused: int = 0
    # Accesses that found the MSHR file full and had to stall/retry.
    mshr_stalls: int = 0
    # Bus traffic in cache lines, by category (paper Figure 8).
    demand_fills: int = 0
    promoted_fills: int = 0
    prefetch_fills: int = 0
    prefetch_fills_used: int = 0
    runahead_fills: int = 0
    writeback_fills: int = 0
    # Row-hit components for RBHU (paper §6.1.1).
    demand_row_hits: int = 0
    promoted_row_hits: int = 0
    useful_prefetch_row_hits: int = 0
    prefetch_row_hits: int = 0
    # Optional service-time samples for Figure 4(a).
    useful_service_times: List[int] = field(default_factory=list)
    useless_service_times: List[int] = field(default_factory=list)
    schema_version: int = RESULT_SCHEMA_VERSION

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def spl(self) -> float:
        """Stall cycles per load instruction."""
        return self.stall_cycles / self.loads if self.loads else 0.0

    @property
    def mpki(self) -> float:
        """L2 misses per 1000 instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l2_misses / self.instructions

    @property
    def accuracy(self) -> float:
        """ACC = useful prefetches / prefetches sent (paper §5.2)."""
        return self.pf_used / self.pf_sent if self.pf_sent else 0.0

    @property
    def coverage(self) -> float:
        """COV = useful / (demand requests + useful) (paper §5.2)."""
        denominator = self.demand_fills + self.pf_used
        return self.pf_used / denominator if denominator else 0.0

    @property
    def useful_prefetch_traffic(self) -> int:
        """Lines transferred for prefetches that proved useful."""
        return self.promoted_fills + self.prefetch_fills_used

    @property
    def useless_prefetch_traffic(self) -> int:
        """Lines transferred for prefetches never used."""
        return self.prefetch_fills - self.prefetch_fills_used

    @property
    def total_traffic(self) -> int:
        return (
            self.demand_fills
            + self.promoted_fills
            + self.prefetch_fills
            + self.runahead_fills
            + self.writeback_fills
        )

    @property
    def rbhu(self) -> float:
        """Row-buffer hit rate over useful requests (paper §6.1.1)."""
        useful_requests = self.demand_fills + self.runahead_fills + self.promoted_fills + self.prefetch_fills_used
        if not useful_requests:
            return 0.0
        useful_hits = (
            self.demand_row_hits
            + self.promoted_row_hits
            + self.useful_prefetch_row_hits
        )
        return useful_hits / useful_requests

    def to_dict(self) -> Dict:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        A walk over the fields in declaration order, copying the
        service-time lists so the dict shares no list with the result.
        Keys, order and JSON text are those of the generic ``dataclasses``
        conversion, which deep-copies every value on the way
        (tests/test_result_serialization.py).
        """
        payload = {name: getattr(self, name) for name in _CORE_FIELDS}
        payload["useful_service_times"] = list(self.useful_service_times)
        payload["useless_service_times"] = list(self.useless_service_times)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "CoreResult":
        return cls(**payload)


@dataclass
class SimResult:
    """System-level outcome of one simulation run."""

    policy: str
    cores: List[CoreResult]
    total_cycles: int = 0
    bus_traffic_lines: int = 0
    row_buffer_hit_rate: float = 0.0
    dropped_prefetches: int = 0
    prefetches_rejected_full: int = 0
    demand_overflows: int = 0
    accuracy_history: Optional[List[List[float]]] = None
    # Interval telemetry (present only when the run was traced).
    trace: Optional[SimTrace] = None
    schema_version: int = RESULT_SCHEMA_VERSION

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def ipc(self, core_id: int = 0) -> float:
        return self.cores[core_id].ipc

    def ipcs(self) -> List[float]:
        return [core.ipc for core in self.cores]

    @property
    def total_traffic(self) -> int:
        return sum(core.total_traffic for core in self.cores)

    def traffic_breakdown(self) -> Dict[str, int]:
        """Bus traffic split the way Figure 8 plots it."""
        return {
            "demand": sum(
                c.demand_fills + c.runahead_fills + c.writeback_fills
                for c in self.cores
            ),
            "pref-useful": sum(c.useful_prefetch_traffic for c in self.cores),
            "pref-useless": sum(c.useless_prefetch_traffic for c in self.cores),
        }

    def to_dict(self) -> Dict:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        The round-trip is exact — ints stay ints and floats survive via
        shortest-repr JSON — so a cached result is interchangeable with
        a live one (asserted in tests/test_result_cache.py).  Like
        :meth:`CoreResult.to_dict` it is a field walk that copies every
        list, the accuracy history row by row.
        """
        payload = {name: getattr(self, name) for name in _SIM_FIELDS}
        payload["cores"] = [core.to_dict() for core in self.cores]
        if self.accuracy_history is not None:
            payload["accuracy_history"] = [list(row) for row in self.accuracy_history]
        if self.trace is not None:
            payload["trace"] = self.trace.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimResult":
        rest = {
            key: value
            for key, value in payload.items()
            if key not in ("cores", "trace")
        }
        cores = [CoreResult.from_dict(core) for core in payload["cores"]]
        trace_payload = payload.get("trace")
        trace = SimTrace.from_dict(trace_payload) if trace_payload else None
        return cls(cores=cores, trace=trace, **rest)

    def summary(self) -> Dict[str, float]:
        """Compact scalar summary for tables and benchmarks."""
        return {
            "policy": self.policy,
            "cycles": self.total_cycles,
            "ipc_sum": sum(self.ipcs()),
            "traffic": self.total_traffic,
            "rbh": self.row_buffer_hit_rate,
            "dropped": self.dropped_prefetches,
        }


# Field names in declaration order, read once per class for to_dict.
_CORE_FIELDS = tuple(f.name for f in fields(CoreResult))
_SIM_FIELDS = tuple(f.name for f in fields(SimResult))
