"""The pull-based campaign worker: claim → execute → persist → mark done.

Every campaign job runs through this loop.  ``python -m repro.campaign
worker <dir>`` runs it against a campaign's job store, and
:func:`~repro.campaign.executor.drain` (behind ``run``, ``resume`` and
``submit``) runs it in-process or in a local process pool.  Any number
of workers — separate processes, separate machines sharing the campaign
directory and result store — drain one campaign concurrently:

* on startup the worker idempotently enqueues the campaign's full job
  expansion (``INSERT OR IGNORE``), so the first worker to arrive seeds
  the queue and latecomers change nothing;
* each iteration atomically claims the next open job under a lease,
  heartbeats while simulating, persists a computed result to the shared
  :class:`~repro.runtime.store.ResultStore` (a hit is already there), and
  writes the ``done`` / ``failed`` outcome onto the job's row;
* a worker that dies silently (SIGKILL, OOM, power) stops heartbeating;
  its lease expires and the job is claimed by the next worker — the
  campaign loses nothing;
* SIGTERM drains gracefully: the current job runs to completion and its
  outcome is written before the worker exits (the CLI installs the
  handler).

Workers exit on their own once every job is terminal (``done``, or
``failed`` with attempts exhausted), waiting out siblings' live leases
so the last worker standing reports the campaign's final state.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.campaign.jobstore import Claim, SqliteJobStore
from repro.campaign.spec import CampaignJob
from repro.runtime import JobExecutionError, execute_job, get_runtime

if TYPE_CHECKING:  # the executor imports this module to drive campaigns
    from repro.campaign.executor import Campaign

# How much of the lease may elapse between heartbeats.  Three beats per
# lease means two may be lost (scheduling hiccups, a busy store) before
# the job is reclaimable out from under a live worker.
HEARTBEAT_FRACTION = 3.0


def default_worker_id() -> str:
    """host-pid identity, unique across the machines sharing a store."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Daemon thread renewing one claim's lease while the job runs."""

    def __init__(self, store: SqliteJobStore, key: str, worker_id: str, lease: float):
        self._store = store
        self._key = key
        self._worker_id = worker_id
        self._lease = lease
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{key[:8]}", daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        interval = max(self._lease / HEARTBEAT_FRACTION, 0.05)
        while not self._stop.wait(interval):
            self._store.heartbeat(self._key, self._worker_id, self._lease)


class WorkerStats:
    """What one worker did: claims, completions, failures, cache hits."""

    def __init__(self) -> None:
        self.claimed = 0
        self.done = 0
        self.failed = 0
        self.cache_hits = 0
        self.drained = False

    def describe(self) -> str:
        tail = " (drained on request)" if self.drained else ""
        return (
            f"{self.claimed} claimed, {self.done} done "
            f"({self.cache_hits} from cache), {self.failed} failed{tail}"
        )


def _error_text(error: BaseException) -> str:
    if isinstance(error, JobExecutionError):
        return str(error)
    return f"{type(error).__name__}: {error}"


def run_worker(
    campaign: Campaign,
    runtime=None,
    *,
    worker_id: Optional[str] = None,
    lease: Optional[float] = None,
    poll: float = 0.5,
    retries: int = 1,
    max_jobs: Optional[int] = None,
    throttle: float = 0.0,
    stream: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Drain one campaign's job store from this process.

    ``lease`` is the claim lease in seconds (heartbeat-renewed while a
    job runs); ``poll`` how long to sleep when nothing is claimable but
    siblings still hold live leases; ``retries`` how many *extra*
    attempts a failed job gets before it is terminal; ``max_jobs`` stops
    after that many claims (testing hook); ``throttle`` sleeps that many
    seconds after each claim before executing (rate-limiting / smoke
    hook); ``should_stop`` is polled between jobs for a graceful drain.

    ``stream=True`` turns on live telemetry streaming (DESIGN.md §14):
    each job runs under a :class:`~repro.telemetry.collector
    .TelemetryCollector` whose per-interval samples land in the job
    store's ``samples`` table in batched transactions *while the job is
    running*.  A cache hit is not run, so it streams only when its stored
    result carries a trace (the spec sets ``telemetry=True``): its records
    are re-cut from that trace at claim time.  Other hits land no
    samples, and alone jobs, keyed without the spec's ``sim_kwargs``,
    never stream on a hit.  Streaming never perturbs results, cache keys
    or exports — it is read-only over the run.
    """
    runtime = runtime or get_runtime()
    store = campaign.ledger
    if lease is not None:
        store.lease = float(lease)
    lease = store.lease
    worker_id = worker_id or default_worker_id()
    should_stop = should_stop or (lambda: False)
    log = log or (lambda message: None)
    max_attempts = max(0, int(retries)) + 1

    by_key = {job.key: job for job in campaign.unique_jobs()}
    result_store = runtime.store
    stats = WorkerStats()

    # One job-store connection serves the whole loop; the heartbeat
    # threads open their own.
    with store.session():
        seeded = store.ensure_jobs(list(by_key))
        if seeded:
            log(f"[{worker_id}] enqueued {seeded} job(s)")
        while True:
            if should_stop():
                stats.drained = True
                break
            if max_jobs is not None and stats.claimed >= max_jobs:
                break
            claim = store.claim(worker_id, lease=lease, max_attempts=max_attempts)
            if claim is None:
                if store.unfinished(max_attempts) == 0:
                    break
                time.sleep(poll)
                continue
            stats.claimed += 1
            _execute_claim(
                campaign, store, result_store, by_key, claim, worker_id, lease,
                throttle, stream, stats, log,
            )
    log(f"[{worker_id}] exiting: {stats.describe()}")
    return stats


def _execute_claim(
    campaign: Campaign,
    store: SqliteJobStore,
    result_store,
    by_key: Dict[str, CampaignJob],
    claim: Claim,
    worker_id: str,
    lease: float,
    throttle: float,
    stream: bool,
    stats: WorkerStats,
    log: Callable[[str], None],
) -> None:
    job = by_key.get(claim.key)
    started = time.perf_counter()
    if job is None:
        # A key this worker's expansion does not know — the store was
        # seeded by a different spec revision.  Record the mismatch so
        # the campaign surfaces it instead of spinning on the job.
        stats.failed += 1
        store.append(
            {
                "key": claim.key,
                "status": "failed",
                "worker": worker_id,
                "elapsed": 0.0,
                "error": (
                    "job key not in this worker's spec expansion; "
                    "was the campaign directory reused for a different spec?"
                ),
            }
        )
        return
    with _Heartbeat(store, claim.key, worker_id, lease):
        try:
            if throttle > 0:
                time.sleep(throttle)
            # A hit is already stored, so only a computed result is put.
            hit = result_store.get(claim.key)
            cached = hit is not None
            if hit is not None:
                if stream and hit.trace is not None:
                    # The run is not repeated, but the live view still
                    # gets the rows a cold run would have streamed.
                    from repro.telemetry.stream import records_from_trace

                    store.append_samples(claim.key, records_from_trace(hit.trace))
            elif stream:
                from repro.telemetry.stream import streamed_execute

                result_store.put(claim.key, streamed_execute(job.job, store, claim.key))
            else:
                result_store.put(claim.key, execute_job(job.job))
        except Exception as error:  # noqa: BLE001 - isolation is the point
            stats.failed += 1
            log(f"[{worker_id}] FAILED {job.describe()}")
            store.append(
                {
                    "key": claim.key,
                    "status": "failed",
                    "worker": worker_id,
                    "elapsed": round(time.perf_counter() - started, 6),
                    "error": _error_text(error),
                }
            )
        else:
            stats.done += 1
            if cached:
                stats.cache_hits += 1
            log(f"[{worker_id}] done {job.describe()}")
            store.append(
                {
                    "key": claim.key,
                    "status": "done",
                    "worker": worker_id,
                    "elapsed": round(time.perf_counter() - started, 6),
                    "cached": cached,
                }
            )
