"""Fold campaign state + streamed samples into dashboard JSON.

Every function here is a pure fold over two sources:

* the job store's folded states (done/running/failed/... per job), and
* the streamed ``samples`` rows (header + per-interval records, see
  :mod:`repro.telemetry.stream`) that land while jobs run.

They are recomputed per request straight from the samples table — the
table *is* the incremental state (each batched insert advances it), so
the endpoints always reflect exactly what has landed, torn nothing.
All outputs are plain JSON-able dicts; ``Campaign.metrics()`` and the
service endpoints return them verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.jobstore import status_counts
from repro.telemetry.trace import CORE_SERIES, SYSTEM_SERIES  # noqa: F401 - doc anchor


def _streams(store) -> Dict[str, List[Dict]]:
    """Streamed records grouped per job key, in stream order."""
    rows, _ = store.samples_since(0)
    streams: Dict[str, List[Dict]] = {}
    for row in rows:
        streams.setdefault(row["key"], []).append(row["record"])
    return streams


def _split_stream(records: List[Dict]) -> Tuple[Optional[Dict], List[Dict]]:
    """(header, interval records) of one job's stream; header may be None
    if only a partial batch has landed yet."""
    header = None
    intervals = []
    for record in records:
        kind = record.get("type")
        if kind == "header" and header is None:
            header = record
        elif kind == "interval":
            intervals.append(record)
    return header, intervals


def _job_label(job) -> str:
    label = f"{'+'.join(job.benchmarks)} · {job.policy}"
    if job.variant not in ("", "base"):
        label += f" · {job.variant}"
    return f"{label} · seed {job.seed}"


def progress(campaign) -> Dict:
    """Campaign progress histogram + a naive serial ETA.

    ``eta_seconds`` extrapolates the mean elapsed time of finished jobs
    over everything not yet done — a live-view estimate (it ignores
    worker parallelism and cache hits), not an export-grade number.
    """
    jobs = campaign.unique_jobs()
    states = campaign.states()
    counts = status_counts(states[job.key] for job in jobs)
    total = len(jobs)
    done = counts.get("done", 0)
    elapsed = [
        states[job.key].elapsed
        for job in jobs
        if states[job.key].status == "done" and states[job.key].elapsed
    ]
    remaining = total - done
    eta = round(sum(elapsed) / len(elapsed) * remaining, 3) if elapsed and remaining else 0.0
    sample_counts = campaign.ledger.sample_counts()
    return {
        "total": total,
        "counts": counts,
        "done": done,
        "complete": done == total,
        "eta_seconds": eta,
        "samples": sum(sample_counts.values()),
        "jobs_with_samples": len(sample_counts),
        "states": [
            {
                "key": job.key,
                "label": _job_label(job),
                "status": states[job.key].status,
                "samples": sample_counts.get(job.key, 0),
            }
            for job in jobs
        ],
    }


def series(campaign, *, max_jobs: Optional[int] = None, step: int = 1) -> Dict:
    """Per-core time series of every job that has streamed samples.

    For each job: the interval cycle stamps, per-core PAR, per-core
    drop rate (APD drops this interval per prefetch sent this interval,
    clamped to [0, 1]), per-core FDP level, and the request-buffer
    pressure pair — everything the dashboard sparklines draw.
    ``max_jobs`` caps the payload (expansion order wins); the response
    reports how many were dropped so truncation is never silent.

    ``step`` downsamples server-side: every ``step``-th interval record
    is kept (stride sampling from the first record, so the series start
    is stable as new samples land), shrinking long-run payloads by
    ``1/step`` while preserving shape.  The response echoes the applied
    ``step`` so clients can recover absolute interval spacing via
    ``interval_cycles * step``.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return _series(campaign, _streams(campaign.ledger), max_jobs, step)


def _series(campaign, streams, max_jobs: Optional[int], step: int) -> Dict:
    ordered = [job for job in campaign.unique_jobs() if job.key in streams]
    dropped = 0
    if max_jobs is not None and len(ordered) > max_jobs:
        dropped = len(ordered) - max_jobs
        ordered = ordered[:max_jobs]
    out = []
    for job in ordered:
        header, intervals = _split_stream(streams[job.key])
        if header is None:
            continue
        if step > 1:
            intervals = intervals[::step]
        num_cores = int(header["num_cores"])
        par = [[] for _ in range(num_cores)]
        drop_rate = [[] for _ in range(num_cores)]
        fdp_level = [[] for _ in range(num_cores)]
        cycles = []
        buffer_mean = []
        buffer_max = []
        for record in intervals:
            cycles.append(record["cycle"])
            core = record["core"]
            for core_id in range(num_cores):
                par[core_id].append(core["par"][core_id])
                sent = core["pf_sent"][core_id]
                dropped_pf = core["pf_dropped"][core_id]
                rate = dropped_pf / sent if sent else (1.0 if dropped_pf else 0.0)
                drop_rate[core_id].append(round(min(1.0, rate), 4))
                fdp_level[core_id].append(core["fdp_level"][core_id])
            system = record["system"]
            buffer_mean.append(system["buffer_occupancy_mean"])
            buffer_max.append(system["buffer_occupancy_max"])
        out.append(
            {
                "key": job.key,
                "label": _job_label(job),
                "policy": job.policy,
                "num_cores": num_cores,
                "interval_cycles": header["interval_cycles"],
                "cycles": cycles,
                "par": par,
                "drop_rate": drop_rate,
                "fdp_level": fdp_level,
                "buffer_mean": buffer_mean,
                "buffer_max": buffer_max,
            }
        )
    return {"jobs": out, "dropped_jobs": dropped, "step": step}


def fdp_histogram(campaign) -> Dict:
    """FDP aggressiveness-level histogram across all streamed samples.

    Counts every (core, interval) sample by its FDP level; level ``-1``
    means the core runs without FDP and is reported separately so the
    histogram reads as "time spent per aggressiveness level".
    """
    return _fdp_histogram(_streams(campaign.ledger))


def _fdp_histogram(streams) -> Dict:
    levels: Dict[int, int] = {}
    samples_without_fdp = 0
    for records in streams.values():
        _, intervals = _split_stream(records)
        for record in intervals:
            for level in record["core"]["fdp_level"]:
                if level < 0:
                    samples_without_fdp += 1
                else:
                    levels[level] = levels.get(level, 0) + 1
    return {
        "levels": {str(level): levels[level] for level in sorted(levels)},
        "samples_without_fdp": samples_without_fdp,
    }


def queue_pressure(campaign) -> Dict:
    """Queue-pressure rollup across every streamed run.

    Means are sample-weighted across all landed intervals; maxima are
    fleet-wide high-water marks.  ``per_job`` carries the same rollup
    per run for the dashboard's detail rows.
    """
    return _queue_pressure(campaign, _streams(campaign.ledger))


def _queue_pressure(campaign, streams) -> Dict:
    per_job = []
    jobs_by_key = {job.key: job for job in campaign.unique_jobs()}
    totals = {"intervals": 0, "buffer_mean": 0.0, "bus": 0.0, "bank": 0.0}
    fleet_buffer_max = 0
    fleet_overflows = 0
    fleet_drops = 0
    for key, records in streams.items():
        _, intervals = _split_stream(records)
        if not intervals:
            continue
        n = len(intervals)
        buffer_means = [record["system"]["buffer_occupancy_mean"] for record in intervals]
        buffer_maxes = [record["system"]["buffer_occupancy_max"] for record in intervals]
        overflows = sum(record["system"]["demand_overflows"] for record in intervals)
        drops = sum(record["system"]["drops"] for record in intervals)
        bus = sum(record["system"]["bus_utilization"] for record in intervals)
        bank = sum(record["system"]["bank_utilization"] for record in intervals)
        totals["intervals"] += n
        totals["buffer_mean"] += sum(buffer_means)
        totals["bus"] += bus
        totals["bank"] += bank
        fleet_buffer_max = max(fleet_buffer_max, max(buffer_maxes))
        fleet_overflows += overflows
        fleet_drops += drops
        job = jobs_by_key.get(key)
        per_job.append(
            {
                "key": key,
                "label": _job_label(job) if job is not None else key[:16],
                "intervals": n,
                "buffer_mean": round(sum(buffer_means) / n, 4),
                "buffer_max": max(buffer_maxes),
                "demand_overflows": overflows,
                "drops": drops,
                "bus_utilization": round(bus / n, 4),
                "bank_utilization": round(bank / n, 4),
            }
        )
    n = totals["intervals"]
    return {
        "intervals": n,
        "buffer_mean": round(totals["buffer_mean"] / n, 4) if n else 0.0,
        "buffer_max": fleet_buffer_max,
        "demand_overflows": fleet_overflows,
        "drops": fleet_drops,
        "bus_utilization": round(totals["bus"] / n, 4) if n else 0.0,
        "bank_utilization": round(totals["bank"] / n, 4) if n else 0.0,
        "per_job": per_job,
    }


def campaign_metrics(campaign, *, max_jobs: Optional[int] = None) -> Dict:
    """Everything the dashboard polls for one campaign, in one payload.

    The samples table is read and decoded once, after the progress
    counts, and folded three ways, so the folds agree with each other.
    """
    progress_now = progress(campaign)
    streams = _streams(campaign.ledger)
    return {
        "id": campaign.directory.name,
        "name": campaign.spec.name,
        "progress": progress_now,
        "series": _series(campaign, streams, max_jobs, 1),
        "fdp": _fdp_histogram(streams),
        "pressure": _queue_pressure(campaign, streams),
    }
