"""Resumable, fault-isolated execution of campaign jobs.

The executor is layered on :mod:`repro.runtime`: it reuses the runtime's
worker count and on-disk :class:`~repro.runtime.store.ResultStore`, so a
campaign job and the identical figure-script job share one cache entry.
What it adds over ``Runtime.run_many`` is the campaign contract:

* **fault isolation** — one crashing job journals a ``failed`` record
  carrying its traceback, content key, and config fingerprint,
  and every sibling job still runs to completion (``run_many``'s bare
  ``pool.map`` would have aborted the whole batch);
* **bounded retries** — each job gets ``retries`` extra attempts within
  a run before its failure is final;
* **resume** — a rerun consults the journal and re-executes only jobs
  that are not ``done``; finished jobs are served straight from the
  result store, so an interrupted-then-resumed campaign performs no
  duplicate simulation work and exports bit-for-bit the same results.

Job states live in the campaign's :class:`~repro.campaign.jobstore
.SqliteJobStore` (``jobs.sqlite``).  A directory without one — written
by an older build that journaled elsewhere — simply starts with every
job ``pending``; each then resolves as a result-store hit.

Campaign results are always persisted to the store, even under
``--no-cache``/``$REPRO_CACHE=0`` — a campaign *is* its on-disk record;
point ``--cache-dir`` somewhere fresh for a cold run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.jobstore import DB_NAME, JobState, SqliteJobStore, status_counts
from repro.campaign.spec import CampaignJob, CampaignSpec, expand, unique_jobs
from repro.runtime import JobExecutionError, config_fingerprint, execute_job, get_runtime
from repro.sim.results import SimResult

SPEC_FILE = "campaign.json"


class CampaignError(RuntimeError):
    """A campaign-level failure (bad directory, incomplete run, ...)."""


def campaigns_root(store_root=None) -> Path:
    """Directory holding campaign dirs: $REPRO_CAMPAIGN_DIR, else
    ``<result-cache>/campaigns``."""
    env = os.environ.get("REPRO_CAMPAIGN_DIR")
    if env:
        return Path(env).expanduser()
    if store_root is None:
        store_root = get_runtime().store.root
    return Path(store_root) / "campaigns"


def default_directory(spec: CampaignSpec, store_root=None) -> Path:
    """Canonical directory for a spec: ``<root>/<name>-<fingerprint12>``.

    The fingerprint suffix means the same campaign name at a different
    scale/grid gets its own job store instead of clashing.
    """
    return campaigns_root(store_root) / f"{spec.name}-{spec.fingerprint()[:12]}"


def _write_json_exclusive(path: Path, payload: Dict) -> None:
    """Atomically create ``path`` with ``payload``, failing if it exists.

    The content is staged in a temp file and **linked** into place:
    ``os.link`` is both atomic (readers never see a partial file) and
    exclusive (it raises :class:`FileExistsError` if the target already
    exists), which closes the check-then-write race two concurrent
    creators would otherwise hit.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.link(tmp_name, path)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass


class Campaign:
    """A spec bound to its on-disk directory (snapshot + job store)."""

    def __init__(self, directory, spec: CampaignSpec):
        self.directory = Path(directory)
        self.spec = spec
        self._jobs: Optional[List[CampaignJob]] = None

    # -- open/create ----------------------------------------------------------

    @classmethod
    def create(cls, spec: CampaignSpec, directory=None) -> "Campaign":
        """Bind ``spec`` to ``directory``, writing the snapshot on first use.

        Reopening an existing directory with a *different* spec is an
        error — the job store would silently describe the wrong grid.  The
        snapshot is created exclusively (hard-link rename), so when two
        creators race, exactly one writes it; the loser re-validates the
        winner's fingerprint and either adopts the directory or fails.
        """
        directory = Path(directory) if directory is not None else default_directory(spec)
        spec_path = directory / SPEC_FILE
        try:
            _write_json_exclusive(
                spec_path,
                {"fingerprint": spec.fingerprint(), "spec": spec.to_dict()},
            )
        except FileExistsError:
            existing = cls.open(directory)
            if existing.spec.fingerprint() != spec.fingerprint():
                raise CampaignError(
                    f"campaign directory {directory} already holds campaign "
                    f"{existing.spec.name!r} with a different spec "
                    f"(fingerprint {existing.spec.fingerprint()[:12]} != "
                    f"{spec.fingerprint()[:12]}); pick another --dir or delete it"
                ) from None
            return existing
        return cls(directory, spec)

    @classmethod
    def open(cls, directory) -> "Campaign":
        directory = Path(directory)
        spec_path = directory / SPEC_FILE
        try:
            with open(spec_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise CampaignError(
                f"{directory} is not a campaign directory (no {SPEC_FILE}); "
                "create one with 'python -m repro.campaign run'"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"unreadable campaign snapshot {spec_path}: {exc}") from exc
        return cls(directory, CampaignSpec.from_dict(payload["spec"]))

    # -- derived views --------------------------------------------------------

    @property
    def ledger(self) -> SqliteJobStore:
        """This campaign's job store (status journal, leases, samples)."""
        return SqliteJobStore(self.directory / DB_NAME)

    def jobs(self) -> List[CampaignJob]:
        """Full deterministic expansion (duplicates included)."""
        if self._jobs is None:
            self._jobs = expand(self.spec)
        return self._jobs

    def unique_jobs(self) -> List[CampaignJob]:
        return unique_jobs(self.jobs())

    def states(self) -> Dict[str, JobState]:
        """Journal fold extended with implicit ``pending`` entries."""
        states = self.ledger.fold()
        for job in self.unique_jobs():
            states.setdefault(job.key, JobState(job.key))
        return states

    def status_counts(self) -> Dict[str, int]:
        jobs = self.unique_jobs()
        states = self.states()
        return status_counts(states[job.key] for job in jobs)


class CampaignRun:
    """Outcome of one executor pass: results plus per-job states."""

    def __init__(self, campaign: Campaign, results: Dict[str, SimResult]):
        self.campaign = campaign
        self.results = results
        self.states = campaign.states()
        self._grid_index: Dict[Tuple, str] = {}
        self._alone_index: Dict[Tuple, str] = {}
        for job in campaign.jobs():
            if job.kind == "grid":
                self._grid_index.setdefault(
                    (job.workload_index, job.policy, job.variant, job.seed_offset),
                    job.key,
                )
            else:
                self._alone_index.setdefault(
                    (job.workload_index, job.seed_offset, job.position), job.key
                )

    def failed(self) -> List[CampaignJob]:
        return [
            job
            for job in self.campaign.unique_jobs()
            if self.states[job.key].status == "failed"
        ]

    def incomplete(self) -> List[CampaignJob]:
        return [
            job
            for job in self.campaign.unique_jobs()
            if self.states[job.key].status != "done"
        ]

    def require_complete(self) -> "CampaignRun":
        incomplete = self.incomplete()
        if incomplete:
            lines = []
            for job in incomplete[:8]:
                state = self.states[job.key]
                error = (state.error or "").strip().splitlines()
                detail = f": {error[-1]}" if error else ""
                lines.append(f"  [{state.status}] {job.describe()}{detail}")
            if len(incomplete) > 8:
                lines.append(f"  ... and {len(incomplete) - 8} more")
            raise CampaignError(
                f"campaign {self.campaign.spec.name!r} has "
                f"{len(incomplete)} unfinished job(s):\n" + "\n".join(lines) + "\n"
                f"resume with: python -m repro.campaign resume {self.campaign.directory}"
            )
        return self

    # -- result lookup by grid coordinates ------------------------------------

    def grid(
        self,
        workload_index: int,
        policy_label: str,
        variant: str = "base",
        seed_offset: Optional[int] = None,
    ) -> SimResult:
        if seed_offset is None:
            seed_offset = self.campaign.spec.seeds[0]
        key = self._grid_index.get((workload_index, policy_label, variant, seed_offset))
        if key is None or key not in self.results:
            raise CampaignError(
                f"no result for grid cell workload={workload_index} "
                f"policy={policy_label!r} variant={variant!r} seed_offset={seed_offset}"
            )
        return self.results[key]

    def alone_ipcs(
        self, workload_index: int, seed_offset: Optional[int] = None
    ) -> List[float]:
        """IPC_alone per benchmark slot of one workload, in slot order."""
        if seed_offset is None:
            seed_offset = self.campaign.spec.seeds[0]
        workload = self.campaign.spec.workloads[workload_index]
        ipcs = []
        for position in range(len(workload.benchmarks)):
            key = self._alone_index.get((workload_index, seed_offset, position))
            if key is None or key not in self.results:
                raise CampaignError(
                    f"no alone result for workload={workload_index} "
                    f"slot={position} seed_offset={seed_offset} "
                    "(was the spec built with include_alone=True?)"
                )
            ipcs.append(self.results[key].cores[0].ipc)
        return ipcs


def _worker_execute(job) -> Tuple[int, SimResult]:
    """Worker-side entry point: result plus the pid that computed it."""
    return os.getpid(), execute_job(job)


def _error_text(error: BaseException) -> str:
    if isinstance(error, JobExecutionError):
        return str(error)
    return f"{type(error).__name__}: {error}"


class CampaignRunner:
    """Drives a campaign to completion on top of the process-wide runtime.

    ``stream=True`` streams per-interval telemetry samples into the
    ``samples`` table of the campaign's store while each job runs.
    Streaming is serial-only here — the collector cannot cross the
    process-pool boundary; multi-process streaming is the job of
    ``python -m repro.campaign worker --stream``.
    """

    def __init__(
        self, campaign: Campaign, runtime=None, retries: int = 1, stream: bool = False
    ):
        self.campaign = campaign
        self.runtime = runtime or get_runtime()
        self.retries = max(0, int(retries))
        self.stream = bool(stream)

    # -- journal plumbing -----------------------------------------------------

    def _record(self, job: CampaignJob, status: str, attempt: int, **extra) -> None:
        self.campaign.ledger.append(
            {
                "key": job.key,
                "status": status,
                "attempt": attempt,
                "job": {
                    "kind": job.kind,
                    "benchmarks": list(job.benchmarks),
                    "policy": job.policy,
                    "variant": job.variant,
                    "seed": job.seed,
                    "workload_index": job.workload_index,
                    "config_fingerprint": config_fingerprint(job.job.config),
                },
                **extra,
            }
        )

    # -- execution ------------------------------------------------------------

    def run(self, resume: bool = True, limit: Optional[int] = None) -> CampaignRun:
        """Execute the campaign; returns the (possibly partial) run.

        ``resume=True`` (the default) skips jobs whose journaled state is
        ``done`` and whose result is present in the store.  ``limit``
        executes at most that many jobs and leaves the rest pending —
        the hook the CI smoke job uses to emulate a mid-run kill.
        """
        store = self.runtime.store
        jobs = self.campaign.unique_jobs()
        states = self.campaign.ledger.fold() if resume else {}
        results: Dict[str, SimResult] = {}
        todo: List[CampaignJob] = []
        for job in jobs:
            state = states.get(job.key)
            if state is not None and state.status == "done":
                hit = store.get(job.key)
                if hit is not None:
                    results[job.key] = hit
                    continue
                # A done record whose result was evicted: run it again.
            todo.append(job)
        run_list = todo if limit is None else todo[: max(0, int(limit))]
        if run_list:
            workers = min(self.runtime.jobs, len(run_list))
            if workers > 1:
                if self.stream:
                    raise CampaignError(
                        "telemetry streaming needs a serial runner (--jobs 1) "
                        "or the multi-worker path (python -m repro.campaign "
                        "worker --stream): a live collector cannot cross the "
                        "process-pool boundary"
                    )
                self._run_parallel(run_list, results, store, workers)
            else:
                self._run_serial(run_list, results, store)
        return CampaignRun(self.campaign, results)

    def _finish(self, job, attempt, result, store, started, cached, worker) -> SimResult:
        store.put(job.key, result)
        self._record(
            job,
            "done",
            attempt,
            elapsed=round(time.perf_counter() - started, 6),
            cached=cached,
            worker=worker,
        )
        return result

    def _fail(self, job, attempt, error, started, worker) -> None:
        self._record(
            job,
            "failed",
            attempt,
            elapsed=round(time.perf_counter() - started, 6),
            error=_error_text(error),
            worker=worker,
        )

    def _run_serial(self, run_list, results, store) -> None:
        ledger = self.campaign.ledger
        for job in run_list:
            for attempt in range(1, self.retries + 2):
                self._record(job, "running", attempt, worker=os.getpid())
                started = time.perf_counter()
                hit = store.get(job.key)
                if hit is not None:
                    if self.stream and hit.trace is not None:
                        from repro.telemetry.stream import records_from_trace

                        ledger.clear_samples(job.key)
                        ledger.append_samples(
                            job.key, records_from_trace(hit.trace)
                        )
                    results[job.key] = self._finish(
                        job, attempt, hit, store, started, True, os.getpid()
                    )
                    break
                try:
                    if self.stream:
                        from repro.telemetry.stream import streamed_execute

                        if attempt > 1:
                            ledger.clear_samples(job.key)
                        result = streamed_execute(job.job, ledger, job.key)
                    else:
                        _, result = _worker_execute(job.job)
                except Exception as error:  # noqa: BLE001 - isolation is the point
                    self._fail(job, attempt, error, started, os.getpid())
                else:
                    results[job.key] = self._finish(
                        job, attempt, result, store, started, False, os.getpid()
                    )
                    break

    def _run_parallel(self, run_list, results, store, workers) -> None:
        attempts = {job.key: 0 for job in run_list}
        by_key = {job.key: job for job in run_list}
        started_at: Dict[str, float] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            def submit(job: CampaignJob):
                attempts[job.key] += 1
                self._record(job, "running", attempts[job.key], worker=None)
                started_at[job.key] = time.perf_counter()
                hit = store.get(job.key)
                if hit is not None:
                    results[job.key] = self._finish(
                        job,
                        attempts[job.key],
                        hit,
                        store,
                        started_at[job.key],
                        True,
                        None,
                    )
                    return None
                return pool.submit(_worker_execute, job.job)

            pending = {}
            for job in run_list:
                future = submit(job)
                if future is not None:
                    pending[future] = job.key
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    key = pending.pop(future)
                    job = by_key[key]
                    try:
                        worker_pid, result = future.result()
                    except Exception as error:  # noqa: BLE001
                        self._fail(job, attempts[key], error, started_at[key], None)
                        if attempts[key] <= self.retries:
                            retry = submit(job)
                            if retry is not None:
                                pending[retry] = key
                    else:
                        results[key] = self._finish(
                            job,
                            attempts[key],
                            result,
                            store,
                            started_at[key],
                            False,
                            worker_pid,
                        )


def submit(
    spec: CampaignSpec,
    directory=None,
    runtime=None,
    retries: int = 1,
) -> CampaignRun:
    """Run a spec to completion through its persistent campaign.

    This is the library entry point the figure scripts use: it binds the
    spec to its canonical campaign directory (resume-aware, so a warm
    rerun touches no simulation), executes whatever is not ``done``, and
    raises :class:`CampaignError` listing the casualties if anything
    failed.  The returned :class:`CampaignRun` resolves grid cells to
    :class:`~repro.sim.results.SimResult` values.
    """
    runtime = runtime or get_runtime()
    campaign = Campaign.create(spec, directory or default_directory(spec, runtime.store.root))
    run = CampaignRunner(campaign, runtime=runtime, retries=retries).run(resume=True)
    return run.require_complete()
