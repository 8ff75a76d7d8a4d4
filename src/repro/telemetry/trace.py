"""The interval-telemetry trace schema (:class:`SimTrace`).

A trace is a set of per-interval time series sampled by the
:class:`~repro.telemetry.collector.TelemetryCollector` at the
simulator's accuracy-interval boundaries (the paper's 100K-cycle PAR
recomputation points, §4.1), plus one final partial-interval sample at
end-of-sim.  It is column-oriented:

* ``intervals`` — the cycle at which each sample was taken (strictly
  increasing; the last entry may close a partial interval);
* ``core_series[name][core][i]`` — per-core series, one value per core
  per sample;
* ``system_series[name][i]`` — system-wide series, one value per sample.

The schema is versioned (:data:`TRACE_SCHEMA_VERSION`) and validated:
:meth:`SimTrace.validate` rejects ragged series, unknown shapes and
non-monotonic interval stamps, so a trace that round-trips through JSON
(`to_dict`/`from_dict`), the result store, or a campaign export is
either well-formed or loudly broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping

TRACE_SCHEMA_VERSION = 1

# Canonical series names (a trace must carry exactly these).
CORE_SERIES = (
    "par",                  # PAR after the interval's recomputation
    "prefetch_critical",    # 1 = above the promotion threshold (APS C bit)
    "drop_threshold",       # APD drop threshold in cycles (Table 6 tier)
    "pf_sent",              # prefetches sent this interval (PSC)
    "pf_used",              # prefetches proven useful this interval (PUC)
    "pf_dropped",           # APD drops charged to this core this interval
    "stall_cycles",         # core stall cycles accrued this interval
    "mshr_occupancy_mean",  # mean of per-tick MSHR occupancy samples
    "mshr_occupancy_max",   # MSHR high-water mark this interval
    "fdp_level",            # FDP aggressiveness level (-1 without FDP)
)
SYSTEM_SERIES = (
    "row_hits",               # bank accesses that hit the open row
    "row_closed",             # accesses to a precharged bank
    "row_conflicts",          # accesses that had to close another row
    "drops",                  # APD drops across all cores
    "demand_overflows",       # demands parked in the overflow FIFO
    "bus_utilization",        # booked data-bus cycles / interval cycles
    "bank_utilization",       # mean busy fraction across all banks
    "buffer_occupancy_mean",  # mean of per-tick request-buffer samples
    "buffer_occupancy_max",   # request-buffer high-water mark
)


class TraceSchemaError(ValueError):
    """A SimTrace payload violates the schema contract."""


@dataclass
class SimTrace:
    """Schema-versioned interval telemetry of one simulation run."""

    interval_cycles: int
    num_cores: int
    policy: str = ""
    promotion_threshold: float = 0.0
    intervals: List[int] = field(default_factory=list)
    core_series: Dict[str, List[List[float]]] = field(default_factory=dict)
    system_series: Dict[str, List[float]] = field(default_factory=dict)
    schema_version: int = TRACE_SCHEMA_VERSION

    # -- views ----------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    def core(self, name: str) -> List[List[float]]:
        """Per-core series ``name``: ``[core][interval]``."""
        try:
            return self.core_series[name]
        except KeyError:
            raise TraceSchemaError(
                f"unknown core series {name!r}; known: {', '.join(CORE_SERIES)}"
            ) from None

    def system(self, name: str) -> List[float]:
        """System-wide series ``name``: ``[interval]``."""
        try:
            return self.system_series[name]
        except KeyError:
            raise TraceSchemaError(
                f"unknown system series {name!r}; known: {', '.join(SYSTEM_SERIES)}"
            ) from None

    # -- validation ------------------------------------------------------------

    def validate(self) -> "SimTrace":
        """Check the schema contract; returns self so calls chain."""
        problems: List[str] = []
        if self.schema_version != TRACE_SCHEMA_VERSION:
            problems.append(
                f"schema_version {self.schema_version} unsupported "
                f"(this build reads {TRACE_SCHEMA_VERSION})"
            )
        if self.interval_cycles <= 0:
            problems.append(f"interval_cycles must be positive, got {self.interval_cycles}")
        if self.num_cores <= 0:
            problems.append(f"num_cores must be positive, got {self.num_cores}")
        n = len(self.intervals)
        if any(b <= a for a, b in zip(self.intervals, self.intervals[1:])):
            problems.append(f"interval stamps not strictly increasing: {self.intervals}")
        if set(self.core_series) != set(CORE_SERIES):
            problems.append(
                f"core series mismatch: have {sorted(self.core_series)}, "
                f"want {sorted(CORE_SERIES)}"
            )
        if set(self.system_series) != set(SYSTEM_SERIES):
            problems.append(
                f"system series mismatch: have {sorted(self.system_series)}, "
                f"want {sorted(SYSTEM_SERIES)}"
            )
        for name, per_core in self.core_series.items():
            if len(per_core) != self.num_cores:
                problems.append(
                    f"core series {name!r} has {len(per_core)} cores, "
                    f"want {self.num_cores}"
                )
                continue
            for core_id, series in enumerate(per_core):
                if len(series) != n:
                    problems.append(
                        f"core series {name!r} core {core_id} has "
                        f"{len(series)} samples, want {n}"
                    )
        for name, series in self.system_series.items():
            if len(series) != n:
                problems.append(
                    f"system series {name!r} has {len(series)} samples, want {n}"
                )
        if problems:
            raise TraceSchemaError(
                f"invalid SimTrace ({len(problems)} problem(s)):\n  - "
                + "\n  - ".join(problems)
            )
        return self

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serializable form; exact inverse of :meth:`from_dict`.

        A walk over the fields in declaration order that copies every
        series, so the dict shares no list with the trace; keys, order
        and JSON text are those of the generic ``dataclasses`` conversion
        (tests/test_result_serialization.py).
        """
        payload = {name: getattr(self, name) for name in _TRACE_FIELDS}
        payload["intervals"] = list(self.intervals)
        payload["core_series"] = {
            name: [list(series) for series in per_core]
            for name, per_core in self.core_series.items()
        }
        payload["system_series"] = {
            name: list(series) for name, series in self.system_series.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SimTrace":
        try:
            return cls(
                interval_cycles=int(payload["interval_cycles"]),
                num_cores=int(payload["num_cores"]),
                policy=str(payload.get("policy", "")),
                promotion_threshold=float(payload.get("promotion_threshold", 0.0)),
                intervals=list(payload["intervals"]),
                core_series={
                    str(name): [list(series) for series in per_core]
                    for name, per_core in payload["core_series"].items()
                },
                system_series={
                    str(name): list(series)
                    for name, series in payload["system_series"].items()
                },
                schema_version=int(payload.get("schema_version", TRACE_SCHEMA_VERSION)),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise TraceSchemaError(f"malformed SimTrace payload: {error!r}") from None


# Field names in declaration order, read once for to_dict.
_TRACE_FIELDS = tuple(f.name for f in fields(SimTrace))
