"""Resumable, fault-isolated execution of campaign jobs.

The executor is layered on :mod:`repro.runtime`: it reuses the runtime's
worker count and on-disk :class:`~repro.runtime.store.ResultStore`, so a
campaign job and the identical figure-script job share one cache entry.
What it adds over ``Runtime.run_many`` is the campaign contract:

* **fault isolation** — one crashing job's row turns ``failed`` and
  keeps its traceback under its content key, and every sibling job
  still runs to completion (``run_many``'s bare ``pool.map`` would have
  aborted the whole batch);
* **bounded retries** — each job gets ``retries`` extra attempts within
  a run before its failure is final;
* **resume** — a rerun consults the job states and re-executes only jobs
  that are not ``done``; finished jobs are served straight from the
  result store, so an interrupted-then-resumed campaign performs no
  duplicate simulation work and exports bit-for-bit the same results.

:class:`Campaign` is the one handle over a campaign directory: its
spec snapshot, its job store and the reads over both (status, export,
live progress and samples).

:func:`drain` runs every campaign.  It serves finished jobs from the
result store and runs the lease-based worker loop of
:mod:`repro.campaign.worker`, which records and isolates every job, in
this process or in a pool of worker processes — the loop ``python -m
repro.campaign worker`` runs on other machines.

Job states live in the campaign's :class:`~repro.campaign.jobstore
.SqliteJobStore` (``jobs.sqlite``).  A directory without one — written
by an older build that journaled elsewhere — simply starts with every
job ``pending``; each then resolves as a result-store hit.  A
``jobs.sqlite`` written while the store also journaled every transition
keeps its job rows (done jobs stay done) and gains the outcome columns
on first open; its ``records`` table is never read.

Under ``--no-cache``/``$REPRO_CACHE=0``, :func:`submit` (the figure
scripts' entry) runs the campaign in a private temporary directory,
holding its result store and campaign directory, and deletes it before
returning: nothing is read from the cache or left in it.
:func:`run_persistent` (``api.campaign``) and :func:`drain` (``python -m
repro.campaign``) always persist — a campaign *is* its on-disk record.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.campaign import report
from repro.campaign.jobstore import DB_NAME, JobState, SqliteJobStore, status_counts
from repro.campaign.spec import CampaignJob, CampaignSpec, expand, unique_jobs
from repro.campaign.worker import run_worker
from repro.runtime import Runtime, get_runtime
from repro.sim.results import SimResult

SPEC_FILE = "campaign.json"

# Seconds a drain worker sleeps while siblings hold every open claim.
# Drain workers share one host and finish together, so the last job's
# siblings should notice it is done at once.
DRAIN_POLL = 0.05


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


def default_directory(spec: CampaignSpec, root=None) -> Path:
    """Canonical directory for a spec: ``<root>/<name>-<fingerprint12>``.

    ``root`` is the campaigns root (default :func:`campaigns_root`).
    The fingerprint suffix means the same campaign name at a different
    scale/grid gets its own job store instead of clashing.
    """
    root = Path(root) if root is not None else campaigns_root()
    return root / f"{spec.name}-{spec.fingerprint()[:12]}"


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


def coerce_spec(spec) -> CampaignSpec:
    """A :class:`CampaignSpec`, a preset name or a spec dict, as a spec."""
    if isinstance(spec, CampaignSpec):
        return spec
    if isinstance(spec, str):
        # Imported lazily: presets pull in repro.experiments, which
        # imports this package.
        from repro.campaign import presets

        return presets.build(spec)
    return CampaignSpec.from_dict(spec)


class Campaign:
    """A spec bound to its on-disk directory (snapshot + job store).

    The one handle over a campaign directory: the executor and the
    workers run it, and the CLI, the HTTP service, the dashboard and
    :mod:`repro.api` read it.

    >>> handle = Campaign.create("smoke")
    >>> handle.status()["counts"]
    >>> handle.export(fmt="csv")
    >>> for row in handle.stream(follow=True): ...   # live samples
    >>> handle.metrics()["progress"]["eta_seconds"]  # dashboard payload

    ``runtime`` names the result store :meth:`export` reads (default:
    the process-wide runtime's).
    """

    def __init__(
        self, directory, spec: CampaignSpec, *, runtime: Optional[Runtime] = None
    ):
        self.directory = Path(directory)
        self.spec = spec
        self._runtime = runtime
        self._jobs: Optional[List[CampaignJob]] = None

    # -- open/create ----------------------------------------------------------

    @classmethod
    def create(
        cls, spec, directory=None, *, root=None, runtime: Optional[Runtime] = None
    ) -> "Campaign":
        """Bind ``spec`` to ``directory``, writing the snapshot on first use.

        ``spec`` is a :class:`CampaignSpec`, a preset name or a spec
        dict; ``root`` is the campaigns root the default directory is
        derived under (default :func:`campaigns_root` of ``runtime``'s
        result store when a runtime is given, else of the process-wide
        runtime's).  Nothing is enqueued: the first worker to start
        enqueues the whole expansion, and until then every job reads as
        ``pending``.

        Reopening an existing directory with a *different* spec is an
        error — the job store would silently describe the wrong grid.  The
        snapshot is created exclusively (hard-link rename), so when two
        creators race, exactly one writes it; the loser re-validates the
        winner's fingerprint and either adopts the directory or fails.
        """
        spec = coerce_spec(spec)
        if directory is None:
            if root is None and runtime is not None:
                root = campaigns_root(runtime.store.root)
            directory = default_directory(spec, root)
        directory = Path(directory)
        spec_path = directory / SPEC_FILE
        try:
            _write_json_exclusive(
                spec_path,
                {"fingerprint": spec.fingerprint(), "spec": spec.to_dict()},
            )
        except FileExistsError:
            existing = cls.open(directory, runtime=runtime)
            if existing.spec.fingerprint() != spec.fingerprint():
                raise CampaignError(
                    f"campaign directory {directory} already holds campaign "
                    f"{existing.spec.name!r} with a different spec "
                    f"(fingerprint {existing.spec.fingerprint()[:12]} != "
                    f"{spec.fingerprint()[:12]}); pick another --dir or delete it"
                ) from None
            return existing
        return cls(directory, spec, runtime=runtime)

    @classmethod
    def open(cls, directory, *, runtime: Optional[Runtime] = None) -> "Campaign":
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
        return cls(directory, CampaignSpec.from_dict(payload["spec"]), runtime=runtime)

    # -- derived views --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def inner(self) -> "Campaign":
        # perfbench/workloads.py passes ``handle.inner``, and perfbench
        # changes only with the benchmark; delete this property then.
        return self

    @property
    def ledger(self) -> SqliteJobStore:
        """This campaign's job store (job states, leases, samples)."""
        return SqliteJobStore(self.directory / DB_NAME)

    def jobs(self) -> List[CampaignJob]:
        """Full deterministic expansion (duplicates included)."""
        if self._jobs is None:
            self._jobs = expand(self.spec)
        return self._jobs

    def unique_jobs(self) -> List[CampaignJob]:
        return unique_jobs(self.jobs())

    def states(self) -> Dict[str, JobState]:
        """Job-store states extended with implicit ``pending`` entries."""
        states = self.ledger.fold()
        for job in self.unique_jobs():
            states.setdefault(job.key, JobState(job.key))
        return states

    def status_counts(self) -> Dict[str, int]:
        jobs = self.unique_jobs()
        states = self.states()
        return status_counts(states[job.key] for job in jobs)

    # -- reads ----------------------------------------------------------------

    def status(self) -> Dict:
        """Identity + status histogram as plain JSON-able data."""
        jobs = self.unique_jobs()
        states = self.states()
        counts = status_counts(states[job.key] for job in jobs)
        return {
            "id": self.directory.name,
            "directory": str(self.directory),
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "total": len(jobs),
            "counts": counts,
            "complete": counts["done"] == len(jobs),
            "text": report.status_summary(self, states),
        }

    def export(self, *, fmt: str = "csv") -> str:
        """Deterministic CSV/JSON export (streamed or not)."""
        runtime = self._runtime or get_runtime()
        return report.export(self, runtime.store, fmt=fmt)

    def progress(self) -> Dict:
        """Live progress: counts, ETA, per-job states + sample counts."""
        from repro.dashboard.aggregate import progress

        return progress(self)

    def metrics(self, *, max_jobs: Optional[int] = None) -> Dict:
        """The full dashboard payload (progress + series + fdp + pressure)."""
        from repro.dashboard.aggregate import campaign_metrics

        return campaign_metrics(self, max_jobs=max_jobs)

    def stream(
        self,
        *,
        after: int = 0,
        key: Optional[str] = None,
        follow: bool = False,
        poll: float = 0.5,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict]:
        """Iterate streamed sample rows, optionally tailing the store.

        Yields ``{"id", "key", "idx", "record"}`` rows in landing order,
        starting after cursor ``after`` (a previously-yielded ``id``).
        ``key`` restricts to one job.  ``follow=True`` keeps polling
        every ``poll`` seconds for new rows until the campaign is
        complete (or ``timeout`` seconds elapse); otherwise one pass
        over what has landed.
        """
        store = self.ledger
        cursor = int(after)
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            rows, cursor = store.samples_since(cursor, key=key)
            yield from rows
            if not follow:
                return
            counts = self.status_counts()
            if counts["done"] + counts["failed"] >= len(self.unique_jobs()):
                # Terminal: drain whatever landed after the last poll.
                rows, cursor = store.samples_since(cursor, key=key)
                yield from rows
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(max(0.05, float(poll)))

    def fold_trace(self, key: str):
        """Fold one job's streamed samples back into its ``SimTrace``.

        Returns ``None`` when the job has streamed nothing yet; raises
        :class:`~repro.telemetry.stream.StreamError` on a torn/partial
        stream (a header with no intervals folds fine — zero-interval
        traces are valid).
        """
        from repro.telemetry.stream import fold_samples

        records = self.ledger.samples(key)
        if not records:
            return None
        return fold_samples(records)


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
        self._raise_if_incomplete(
            f"resume with: python -m repro.campaign resume {self.campaign.directory}"
        )
        return self

    def _raise_if_incomplete(self, advice: str) -> None:
        """Raise :class:`CampaignError` listing the unfinished jobs, then
        ``advice``; return if every job is done."""
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
                + advice
            )

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


def _stored_results(keys, states: Dict[str, JobState], store) -> Dict[str, SimResult]:
    """Results of the ``done`` jobs among ``keys`` that ``store`` still holds."""
    results: Dict[str, SimResult] = {}
    for key in keys:
        state = states.get(key)
        if state is not None and state.status == "done":
            hit = store.get(key)
            if hit is not None:
                results[key] = hit
    return results


def drain(
    campaign: Campaign,
    runtime=None,
    retries: int = 1,
    stream: bool = False,
    limit: Optional[int] = None,
) -> CampaignRun:
    """Drive a campaign to completion; returns the (possibly partial) run.

    A ``done`` job whose result is in the store is served from it.
    Every other job — ``failed``, a ``done`` one whose result was
    evicted, or one not run yet — goes back to ``pending`` with a fresh
    budget of ``retries`` extra attempts, and :func:`~repro.campaign
    .worker.run_worker` drains the job store: in this process when the
    runtime has one worker or ``limit`` is set, else in one process per
    worker (at most one per job).  ``limit`` claims at most that many
    jobs and leaves the rest pending — the hook the CI smoke job uses to
    emulate a mid-run kill.  ``stream=True`` streams per-interval
    telemetry into the job store from every worker.
    """
    runtime = runtime or get_runtime()
    store = runtime.store
    keys = [job.key for job in campaign.unique_jobs()]
    results = _stored_results(keys, campaign.ledger.fold(), store)
    todo = [key for key in keys if key not in results]
    if todo:
        campaign.ledger.reopen(todo)
        options = dict(poll=DRAIN_POLL, retries=retries, stream=stream)
        workers = 1 if limit is not None else min(runtime.jobs, len(todo))
        if workers > 1:
            # The platform's default start method, as Runtime's pool uses:
            # under spawn every worker re-imports the simulator first.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(run_worker, campaign, runtime, **options)
                    for _ in range(workers)
                ]
                for future in futures:
                    future.result()
        else:
            run_worker(campaign, runtime, max_jobs=limit, **options)
        results.update(_stored_results(todo, campaign.ledger.fold(), store))
    return CampaignRun(campaign, results)


def submit(
    spec: CampaignSpec,
    directory=None,
    runtime=None,
    retries: int = 1,
) -> CampaignRun:
    """Run a spec to completion through its campaign.

    This is the library entry point the figure scripts use: it binds the
    spec to its canonical campaign directory (resume-aware, so a warm
    rerun touches no simulation), executes whatever is not ``done``, and
    raises :class:`CampaignError` listing the casualties if anything
    failed.  The returned :class:`CampaignRun` resolves grid cells to
    :class:`~repro.sim.results.SimResult` values.  With the runtime's
    cache disabled, the result store and the default campaign directory
    are a temporary directory deleted on return, so a failed campaign
    cannot be resumed.
    """
    runtime = runtime or get_runtime()
    if runtime.cache_enabled:
        return run_persistent(spec, directory, runtime, retries)
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as private:
        private_runtime = Runtime(runtime.jobs, private, cache_enabled=True)
        if directory is not None:
            return run_persistent(spec, directory, private_runtime, retries)
        directory = default_directory(spec, Path(private) / "campaigns")
        result = drain(Campaign.create(spec, directory), private_runtime, retries)
        result._raise_if_incomplete(
            "--no-cache ran it in a temporary directory deleted on return, so it "
            "cannot be resumed; run it with the cache on to keep its progress"
        )
        return result


def run_persistent(
    spec: CampaignSpec, directory=None, runtime=None, retries: int = 1
) -> CampaignRun:
    """Run a spec to completion in its persistent campaign directory.

    Like :func:`submit` with the cache on, whatever the runtime's cache
    setting: ``api.campaign`` runs here, since a campaign *is* its
    on-disk record.  Raises :class:`CampaignError` listing the casualties
    and how to resume if anything failed.
    """
    runtime = runtime or get_runtime()
    campaign = Campaign.create(spec, directory, runtime=runtime)
    return drain(campaign, runtime=runtime, retries=retries).require_complete()
