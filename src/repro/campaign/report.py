"""Status summaries and metric export for campaigns.

``status_summary`` renders the job store's view of a campaign — the
progress histogram, cumulative simulation time, and the identity + error
of every failed job — for ``python -m repro.campaign status``.

``export_rows`` joins the job states with the result store into one flat row
per unique job: grid coordinates, status, and headline metrics
(cycles, traffic, IPCs, and WS/HS/UF for grid jobs whose workload has
alone coverage).  Rows deliberately contain **no run history** — no
timestamps, worker ids, or attempt counts (a job reclaimed from a
crashed worker legitimately takes more attempts than a clean run) — so
an interrupted-then-resumed campaign exports bit-for-bit the same bytes
as an uninterrupted one, single-process or multi-worker.  The CI smoke jobs
(``campaign-smoke``, ``distributed-smoke``) assert exactly that with
``cmp``.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from typing import TYPE_CHECKING, Dict, List

from repro.campaign.jobstore import JobState, status_counts
from repro.metrics import harmonic_speedup, unfairness, weighted_speedup

if TYPE_CHECKING:  # the executor imports this module for Campaign.status
    from repro.campaign.executor import Campaign

# Fixed column order for CSV export (every row carries every column).
EXPORT_COLUMNS = (
    "campaign",
    "kind",
    "workload_index",
    "benchmarks",
    "policy",
    "variant",
    "seed",
    "accesses",
    "status",
    "key",
    "total_cycles",
    "total_traffic",
    "row_buffer_hit_rate",
    "ipcs",
    "ws",
    "hs",
    "uf",
    # Interval-telemetry series (filled only for traced jobs, i.e. runs
    # submitted with ``telemetry=True`` in the spec's sim kwargs).
    # Intervals are "|"-separated; per-core values within an interval
    # are "/"-separated.  All values are deterministic — no timestamps —
    # preserving the byte-for-byte resumed-export guarantee.
    "telemetry_intervals",
    "telemetry_par",
    "telemetry_row_hits",
    "telemetry_drops",
    "telemetry_buffer_occupancy",
)


def _telemetry_columns(trace) -> Dict[str, str]:
    """Flatten the headline trace series into deterministic CSV cells."""
    return {
        "telemetry_intervals": "|".join(str(cycle) for cycle in trace.intervals),
        "telemetry_par": "|".join(
            "/".join(f"{core[i]:.4f}" for core in trace.core("par"))
            for i in range(trace.num_intervals)
        ),
        "telemetry_row_hits": "|".join(
            str(int(value)) for value in trace.system("row_hits")
        ),
        "telemetry_drops": "|".join(
            str(int(value)) for value in trace.system("drops")
        ),
        "telemetry_buffer_occupancy": "|".join(
            f"{mean:.2f}/{int(peak)}"
            for mean, peak in zip(
                trace.system("buffer_occupancy_mean"),
                trace.system("buffer_occupancy_max"),
            )
        ),
    }


def status_summary(campaign: Campaign, states: Dict[str, JobState]) -> str:
    """Human-readable progress report for one campaign.

    ``states`` is what ``campaign.states()`` returned; the caller has
    read it already, so the job store is not read again here.
    """
    jobs = campaign.unique_jobs()
    counts = status_counts(states[job.key] for job in jobs)
    total = len(jobs)
    done = counts.get("done", 0)
    lines = [
        f"campaign {campaign.spec.name!r} at {campaign.directory}",
        f"  jobs: {total} total — "
        + ", ".join(f"{count} {status}" for status, count in counts.items() if count),
    ]
    elapsed = sum(
        state.elapsed or 0.0 for state in states.values() if state.status == "done"
    )
    cached = sum(1 for state in states.values() if state.status == "done" and state.cached)
    if done:
        lines.append(
            f"  finished: {done}/{total} ({cached} served from cache, "
            f"{elapsed:.1f}s simulated)"
        )
    failures = [job for job in jobs if states[job.key].status == "failed"]
    for job in failures:
        state = states[job.key]
        error = (state.error or "").strip().splitlines()
        last_line = error[-1] if error else "(no error text)"
        lines.append(
            f"  FAILED after {state.attempts} attempt(s): {job.describe()}\n"
            f"    {last_line}"
        )
    if counts.get("pending") or counts.get("interrupted") or failures:
        lines.append(
            f"  resume with: python -m repro.campaign resume {campaign.directory}"
        )
    return "\n".join(lines)


def _alone_ipc_table(campaign: Campaign, read) -> Dict:
    """(workload_index, seed_offset) → list of per-slot alone IPCs (or None).

    ``read(key)`` loads a result whatever the job's status.
    """
    table: Dict = {}
    for job in campaign.jobs():
        if job.kind != "alone":
            continue
        slot = table.setdefault((job.workload_index, job.seed_offset), {})
        if job.position in slot:
            continue
        result = read(job.key)
        slot[job.position] = result.cores[0].ipc if result is not None else None
    return table


def export_rows(campaign: Campaign, store) -> List[Dict]:
    """One flat, deterministic row per unique job, in expansion order.

    Each key is read from ``store`` at most once.
    """
    read = cache(store.get)
    states = campaign.states()
    alone_table = _alone_ipc_table(campaign, read) if campaign.spec.include_alone else {}
    rows = []
    for job in campaign.unique_jobs():
        state = states[job.key]
        row = {column: "" for column in EXPORT_COLUMNS}
        row.update(
            campaign=campaign.spec.name,
            kind=job.kind,
            workload_index=job.workload_index,
            benchmarks="+".join(job.benchmarks),
            policy=job.policy,
            variant=job.variant,
            seed=job.seed,
            accesses=campaign.spec.accesses,
            status=state.status,
            key=job.key,
        )
        result = read(job.key) if state.status == "done" else None
        if result is not None:
            row.update(
                total_cycles=result.total_cycles,
                total_traffic=result.total_traffic,
                row_buffer_hit_rate=round(result.row_buffer_hit_rate, 6),
                ipcs="/".join(f"{ipc:.6f}" for ipc in result.ipcs()),
            )
            if result.trace is not None:
                row.update(_telemetry_columns(result.trace))
            if job.kind == "grid":
                slots = alone_table.get((job.workload_index, job.seed_offset), {})
                alone = [slots.get(i) for i in range(len(job.benchmarks))]
                if alone and all(ipc is not None for ipc in alone):
                    together = result.ipcs()
                    row.update(
                        ws=round(weighted_speedup(together, alone), 6),
                        hs=round(harmonic_speedup(together, alone), 6),
                        uf=round(unfairness(together, alone), 6),
                    )
        rows.append(row)
    return rows


def render_csv(rows: List[Dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(EXPORT_COLUMNS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def render_json(rows: List[Dict]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def export(campaign: Campaign, store, fmt: str = "csv") -> str:
    rows = export_rows(campaign, store)
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "json":
        return render_json(rows)
    raise ValueError(f"unknown export format {fmt!r}; use 'csv' or 'json'")
