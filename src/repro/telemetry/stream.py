"""Streaming telemetry: per-interval sample records and their fold.

The post-hoc path materializes a :class:`~repro.telemetry.trace.SimTrace`
only at ``finalize()`` — a long campaign is a black box until each run
ends.  Streaming turns every accuracy-interval boundary into an emitted
**sample record** (via the collector's ``on_sample`` hook) that can land
in the campaign job store while the simulation is still running.

The stream is exactly the trace, re-cut row-wise:

* record 0 is the **header** — the trace's identity fields
  (``interval_cycles``, ``num_cores``, ``policy``,
  ``promotion_threshold``), emitted from ``on_start``;
* every following record is one **interval** — the cycle stamp plus the
  value each core/system series gained at that boundary, emitted right
  after the PAR-derived half of the sample is appended (so a record is
  only ever a *complete* row, never half a sample).

:func:`fold_samples` inverts the cut: header + interval records fold
back into a ``SimTrace`` that is **byte-identical** (same ``to_dict``
JSON) to the one ``finalize()`` returns — the equivalence contract
``tests/test_stream.py`` pins per backend.  :func:`records_from_trace`
is the other direction (trace → records), used to synthesize a stream
for cache-hit jobs whose trace already exists.

All values in a record are the exact Python objects appended to the
trace (ints, and floats already rounded by the collector), so a record
survives JSON/SQLite round-trips without drift: shortest-repr float
serialization is lossless both ways.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.telemetry.trace import CORE_SERIES, SYSTEM_SERIES, SimTrace

#: Version stamp carried by every header record; bump when the record
#: shape changes so a reader never misfolds an old stream.
STREAM_SCHEMA_VERSION = 1

#: Sample records buffered per batched insert (see :class:`SampleBatcher`).
DEFAULT_BATCH = 8


class StreamError(ValueError):
    """A sample stream violates the record contract (cannot be folded)."""


def header_record(trace: SimTrace) -> Dict:
    """The stream's record 0: the trace identity, emitted at ``on_start``."""
    return {
        "type": "header",
        "stream_version": STREAM_SCHEMA_VERSION,
        "interval_cycles": trace.interval_cycles,
        "num_cores": trace.num_cores,
        "policy": trace.policy,
        "promotion_threshold": trace.promotion_threshold,
    }


def interval_record(trace: SimTrace, index: int) -> Dict:
    """One complete sample row: interval ``index`` of every series."""
    return {
        "type": "interval",
        "cycle": trace.intervals[index],
        "core": {
            name: [per_core[index] for per_core in trace.core_series[name]]
            for name in CORE_SERIES
        },
        "system": {name: trace.system_series[name][index] for name in SYSTEM_SERIES},
    }


def records_from_trace(trace: SimTrace) -> List[Dict]:
    """Re-cut a finished trace into the records streaming would have emitted.

    Used for cache-hit jobs: their trace already exists, so the live view
    gets the same rows a cold run would have streamed.
    """
    return [header_record(trace)] + [
        interval_record(trace, index) for index in range(trace.num_intervals)
    ]


def fold_samples(records: Sequence[Dict]) -> SimTrace:
    """Fold streamed sample records back into a validated ``SimTrace``.

    The inverse of :func:`records_from_trace`: the result's ``to_dict``
    is byte-identical (as sorted JSON) to the post-hoc trace the same
    run finalizes.  Raises :class:`StreamError` on a missing/duplicate
    header, an unknown record type, or a version mismatch; ragged rows
    are caught by ``SimTrace.validate``.
    """
    records = list(records)
    if not records:
        raise StreamError("empty sample stream (no header record)")
    header = records[0]
    if header.get("type") != "header":
        raise StreamError(
            f"sample stream must start with a header record, "
            f"got type {header.get('type')!r}"
        )
    version = header.get("stream_version")
    if version != STREAM_SCHEMA_VERSION:
        raise StreamError(
            f"sample stream version {version!r} unsupported "
            f"(this build reads {STREAM_SCHEMA_VERSION})"
        )
    num_cores = int(header["num_cores"])
    trace = SimTrace(
        interval_cycles=int(header["interval_cycles"]),
        num_cores=num_cores,
        policy=str(header.get("policy", "")),
        promotion_threshold=header.get("promotion_threshold", 0.0),
        core_series={name: [[] for _ in range(num_cores)] for name in CORE_SERIES},
        system_series={name: [] for name in SYSTEM_SERIES},
    )
    for position, record in enumerate(records[1:], start=1):
        kind = record.get("type")
        if kind == "header":
            raise StreamError(f"duplicate header record at position {position}")
        if kind != "interval":
            raise StreamError(
                f"unknown sample record type {kind!r} at position {position}"
            )
        trace.intervals.append(record["cycle"])
        core_values = record["core"]
        for name in CORE_SERIES:
            values = core_values[name]
            if len(values) != num_cores:
                raise StreamError(
                    f"record {position}: core series {name!r} has "
                    f"{len(values)} values, want {num_cores}"
                )
            for core_id, value in enumerate(values):
                trace.core_series[name][core_id].append(value)
        system_values = record["system"]
        for name in SYSTEM_SERIES:
            trace.system_series[name].append(system_values[name])
    return trace.validate()


class SampleBatcher:
    """Buffer sample records and flush them in batches.

    The collector calls the batcher once per record (header included);
    every ``batch`` records it hands the buffered list to ``flush`` —
    one store transaction per batch rather than per sample.  Call
    :meth:`flush` explicitly at end-of-run for the tail (the worker does
    this before persisting the result, so the stream is complete before
    the job's row turns ``done``).
    """

    def __init__(
        self,
        sink: Callable[[List[Dict]], None],
        batch: int = DEFAULT_BATCH,
    ):
        self._sink = sink
        self._batch = max(1, int(batch))
        self._buffer: List[Dict] = []
        self.emitted = 0

    def __call__(self, record: Dict) -> None:
        self._buffer.append(record)
        if len(self._buffer) >= self._batch:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            self._sink(buffered)
            self.emitted += len(buffered)


def streamed_execute(job, store, key: str, batch: int = DEFAULT_BATCH):
    """Run one job with live sample streaming into ``store``.

    ``store`` is anything with ``append_samples(key, records)`` — in
    practice the campaign's :class:`~repro.campaign.jobstore
    .SqliteJobStore`.  The job's own
    ``sim_kwargs`` are untouched — cache keys and the persisted result
    are identical to an unstreamed run; :func:`~repro.runtime.execute_job`
    strips the piggy-backed trace when the job did not ask for telemetry.
    """
    from repro.runtime import execute_job
    from repro.telemetry.collector import TelemetryCollector

    batcher = SampleBatcher(lambda records: store.append_samples(key, records), batch)
    collector = TelemetryCollector(on_sample=batcher)
    try:
        result = execute_job(job, telemetry=collector)
    finally:
        batcher.flush()
    return result
