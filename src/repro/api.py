"""The public simulation API: one front door for every way to run.

Three verbs, one vocabulary:

* :func:`simulate` — run one configuration right here, right now, and
  get the :class:`~repro.sim.results.SimResult` back.  All tuning knobs
  (``seed``, ``max_cycles``, ``collect_service_times``, ``check``,
  ``telemetry``) are keyword-only, so call sites read unambiguously.
* :func:`submit` / :func:`submit_many` — the same simulation through
  the process-wide :class:`~repro.runtime.Runtime`: results come from
  the on-disk cache when warm, from parallel workers when cold, and
  are bit-for-bit identical either way.
* :func:`campaign` — a whole sweep (a :class:`CampaignSpec`, a preset
  name, or a spec dict) through the resumable campaign executor.
* :class:`Campaign` — the handle over a persistent campaign directory:
  ``Campaign.create(spec)`` / :func:`campaign_open` bind it, then
  ``.status()``, ``.export()``, ``.progress()``, ``.metrics()`` and
  ``.stream()`` read it — the one object the CLI, the HTTP service and
  the dashboard all route through.

``repro.experiments``, the examples and both CLIs call through this
module, so its signatures are the project's compatibility surface.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.params import SystemConfig
from repro.runtime import Runtime, SimJob, get_runtime
from repro.runtime.parallel import SIM_KWARG_NAMES, suggest
from repro.sim import results as _results
from repro.sim import system as _system
from repro.sim.results import SimResult
from repro.telemetry.collector import NoopCollector

ProfileLike = _system.ProfileLike
TelemetryLike = Union[None, bool, NoopCollector]


def simulate(
    config: SystemConfig,
    benchmarks: Sequence[ProfileLike],
    max_accesses_per_core: int = 20_000,
    *,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    collect_service_times: bool = False,
    check: Optional[bool] = None,
    telemetry: TelemetryLike = None,
    backend: Optional[str] = None,
) -> SimResult:
    """Run one simulation in-process and return its result.

    ``telemetry=True`` attaches an interval-sampled
    :class:`~repro.telemetry.trace.SimTrace` as ``result.trace``;
    ``check=True`` (or ``$REPRO_CHECK=1``) audits invariants while
    running.  ``backend`` picks the scheduling round the simulation loop
    runs (``"event"``, the cached-key round, or ``"reference"``, the
    naive oracle; default ``$REPRO_BACKEND`` or ``"event"``) — the choice
    never changes the result, only the wall-clock.
    Each call builds a fresh
    :class:`~repro.sim.system.System` — the system itself refuses to run
    twice.
    """
    return _system.simulate(
        config,
        benchmarks,
        max_accesses_per_core,
        seed=seed,
        max_cycles=max_cycles,
        collect_service_times=collect_service_times,
        check=check,
        telemetry=telemetry,
        backend=backend,
    )


def _make_job(
    config: SystemConfig,
    benchmarks: Sequence[ProfileLike],
    accesses: int,
    seed: int,
    **sim_kwargs,
) -> SimJob:
    # Reject a misspelt knob here, before it is keyed or shipped to a
    # worker where it would only fail inside simulate().
    for name in sim_kwargs:
        if name not in SIM_KWARG_NAMES:
            raise TypeError(
                f"unknown simulate keyword {name!r}{suggest(name, SIM_KWARG_NAMES)}; "
                f"known keywords: {', '.join(SIM_KWARG_NAMES)}"
            )
    # Default-valued knobs are dropped so a call that merely spells out a
    # default hashes to the same cache key as one that omits it.  ``None``
    # always means "default"; ``False`` is also the default for the two
    # purely-additive knobs (but NOT for ``check``, where an explicit
    # False overrides $REPRO_CHECK=1 and must survive).
    pruned = {name: value for name, value in sim_kwargs.items() if value is not None}
    for flag in ("telemetry", "collect_service_times"):
        if pruned.get(flag) is False:
            del pruned[flag]
    # The backend knob never reaches a job: every backend is certified
    # byte-identical (equivalence matrix + differential fuzzer), so cache
    # entries are shared across backends and the worker runs whichever
    # backend its own environment resolves.
    pruned.pop("backend", None)
    if pruned.get("telemetry"):
        # Collector objects are neither picklable nor hashable; through
        # the runtime the knob is a plain flag.
        pruned["telemetry"] = True
    return SimJob.make(config, benchmarks, accesses, seed=seed, **pruned)


def submit(
    config: SystemConfig,
    benchmarks: Sequence[ProfileLike],
    max_accesses_per_core: int = 20_000,
    *,
    seed: int = 0,
    runtime: Optional[Runtime] = None,
    **sim_kwargs,
) -> SimResult:
    """Run one simulation through the cache-aware runtime.

    Deterministic in its inputs: a warm cache returns the stored result,
    a cold one computes and stores it.  Extra keyword arguments are the
    same knobs :func:`simulate` takes (``max_cycles``, ``check``,
    ``telemetry=True``, ...).
    """
    return submit_many(
        [(config, benchmarks)],
        max_accesses_per_core,
        seed=seed,
        runtime=runtime,
        **sim_kwargs,
    )[0]


def submit_many(
    runs: Sequence[Union[Tuple[SystemConfig, Sequence[ProfileLike]], SimJob]],
    max_accesses_per_core: int = 20_000,
    *,
    seed: int = 0,
    runtime: Optional[Runtime] = None,
    **sim_kwargs,
) -> List[SimResult]:
    """Run a batch of simulations through the runtime, preserving order.

    Each entry is either a ``(config, benchmarks)`` pair — which shares
    the batch-wide access count, seed and simulate knobs — or a prebuilt
    :class:`~repro.runtime.SimJob` for heterogeneous batches (per-entry
    seeds, accesses, ...), used verbatim.  Cache hits are served without
    touching a worker; identical entries are computed once.
    """
    runtime = runtime or get_runtime()
    jobs = [
        run
        if isinstance(run, SimJob)
        else _make_job(run[0], run[1], max_accesses_per_core, seed, **sim_kwargs)
        for run in runs
    ]
    return runtime.run_many(jobs)


def campaign(
    spec,
    *,
    directory=None,
    runtime: Optional[Runtime] = None,
    retries: int = 1,
):
    """Run a sweep to completion; returns the :class:`CampaignRun`.

    ``spec`` may be a :class:`~repro.campaign.CampaignSpec`, a preset
    name from :mod:`repro.campaign.presets` (``"smoke"``, ``"paper"``),
    or a spec dict (as produced by ``CampaignSpec.to_dict`` / written by
    hand).  Resume-aware: a warm rerun touches no simulation.  Like
    ``python -m repro.campaign run``, it always keeps the campaign and
    its results on disk, even with the runtime's cache disabled.
    """
    # Imported lazily: repro.campaign pulls in repro.experiments, which
    # itself imports this module.
    from repro.campaign import executor as _executor

    spec = _coerce_spec(spec)
    return _executor.run_persistent(
        spec, directory=directory, runtime=runtime, retries=retries
    )


def _coerce_spec(spec):
    from repro.campaign import CampaignSpec

    if isinstance(spec, str):
        from repro.campaign import presets as _presets

        return _presets.build(spec)
    if isinstance(spec, CampaignSpec):
        return spec
    return CampaignSpec.from_dict(spec)


class Campaign:
    """Handle over one persistent campaign directory.

    The unified front door to a campaign's lifecycle after submission:

    >>> handle = api.Campaign.create("smoke")
    >>> handle.status()["counts"]
    >>> handle.export(fmt="csv")
    >>> for row in handle.stream(follow=True): ...   # live samples
    >>> handle.metrics()["progress"]["eta_seconds"]  # dashboard payload

    All constructor and method knobs are keyword-only.  The handle wraps
    the executor-level :class:`repro.campaign.Campaign` (exposed as
    ``.inner`` for execution-layer code) plus the runtime whose result
    store exports read from.
    """

    def __init__(self, inner, *, runtime: Optional[Runtime] = None):
        self._inner = inner
        self._runtime = runtime

    # -- binding ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        spec,
        *,
        directory=None,
        root=None,
        runtime: Optional[Runtime] = None,
    ) -> "Campaign":
        """Create (or idempotently reopen) a campaign without executing it.

        The submission half of the campaign service: bind ``spec`` (a
        :class:`~repro.campaign.CampaignSpec`, preset name, or spec
        dict) to its directory, snapshot it, and enqueue the full job
        expansion so workers (``python -m repro.campaign worker``) can
        start claiming.  ``root`` overrides the campaigns root the
        default directory is derived under.
        """
        from repro.campaign import executor as _executor
        from repro.campaign.worker import job_meta

        spec = _coerce_spec(spec)
        if directory is None:
            directory = _executor.default_directory(spec, root)
        created = _executor.Campaign.create(spec, directory)
        created.ledger.ensure_jobs(
            [(job.key, job_meta(job)) for job in created.unique_jobs()]
        )
        return cls(created, runtime=runtime)

    @classmethod
    def open(cls, directory, *, runtime: Optional[Runtime] = None) -> "Campaign":
        """Bind an existing campaign directory (see :func:`campaign_open`)."""
        from repro.campaign import executor as _executor

        return cls(_executor.Campaign.open(directory), runtime=runtime)

    # -- identity --------------------------------------------------------------

    @property
    def inner(self):
        """The executor-level campaign (spec + directory + job store)."""
        return self._inner

    @property
    def directory(self):
        return self._inner.directory

    @property
    def spec(self):
        return self._inner.spec

    @property
    def name(self) -> str:
        return self._inner.spec.name

    def unique_jobs(self):
        return self._inner.unique_jobs()

    def __repr__(self) -> str:
        return f"api.Campaign({self.name!r}, directory={str(self.directory)!r})"

    # -- reads -----------------------------------------------------------------

    def status(self) -> Dict:
        """Identity + status histogram as plain JSON-able data."""
        from repro.campaign.report import status_summary

        inner = self._inner
        counts = inner.status_counts()
        return {
            "id": inner.directory.name,
            "directory": str(inner.directory),
            "name": inner.spec.name,
            "fingerprint": inner.spec.fingerprint(),
            "total": len(inner.unique_jobs()),
            "counts": counts,
            "complete": counts.get("done", 0) == len(inner.unique_jobs()),
            "text": status_summary(inner),
        }

    def export(self, *, fmt: str = "csv") -> str:
        """Deterministic CSV/JSON export (streamed or not)."""
        from repro.campaign.report import export as _export

        runtime = self._runtime or get_runtime()
        return _export(self._inner, runtime.store, fmt=fmt)

    def progress(self) -> Dict:
        """Live progress: counts, ETA, per-job states + sample counts."""
        from repro.dashboard.aggregate import progress as _progress

        return _progress(self._inner)

    def metrics(self, *, max_jobs: Optional[int] = None) -> Dict:
        """The full dashboard payload (progress + series + fdp + pressure)."""
        from repro.dashboard.aggregate import campaign_metrics

        return campaign_metrics(self._inner, max_jobs=max_jobs)

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
        store = self._inner.ledger
        cursor = int(after)
        deadline = None if timeout is None else _time.monotonic() + float(timeout)
        while True:
            rows, cursor = store.samples_since(cursor, key=key)
            for row in rows:
                yield row
            if not follow:
                return
            counts = self._inner.status_counts()
            total = len(self._inner.unique_jobs())
            if counts.get("done", 0) + counts.get("failed", 0) >= total:
                # Terminal: drain whatever landed after the last poll.
                rows, cursor = store.samples_since(cursor, key=key)
                for row in rows:
                    yield row
                return
            if deadline is not None and _time.monotonic() >= deadline:
                return
            _time.sleep(max(0.05, float(poll)))

    def fold_trace(self, key: str):
        """Fold one job's streamed samples back into its ``SimTrace``.

        Returns ``None`` when the job has streamed nothing yet; raises
        :class:`~repro.telemetry.stream.StreamError` on a torn/partial
        stream (a header with no intervals folds fine — zero-interval
        traces are valid).
        """
        from repro.telemetry.stream import fold_samples

        records = self._inner.ledger.samples(key)
        if not records:
            return None
        return fold_samples(records)


def campaign_open(directory, *, runtime: Optional[Runtime] = None) -> Campaign:
    """Bind an existing campaign directory to a :class:`Campaign` handle.

    The read-side entry point: ``.status()`` and ``.export(fmt=...)``
    read the campaign, and ``.stream()`` / ``.metrics()`` are the
    live-telemetry surface the dashboard polls.
    """
    return Campaign.open(directory, runtime=runtime)


def register_trace(name: str, path) -> None:
    """Bind ``trace:<name>`` to a converted ``.rtr`` file for this process.

    After registration the name works everywhere a benchmark name does —
    :func:`simulate`, :func:`submit`, campaign specs.  Lazy import: the
    trace subsystem loads only when traces are actually used.
    """
    from repro.trace import register_trace as _register

    _register(name, path)


def trace_workload(spec: str, *, name: Optional[str] = None):
    """Resolve ``trace:<name-or-path>`` (or a bare path) to a workload.

    Returns a :class:`~repro.trace.TraceWorkload` whose cache identity is
    the file's embedded content digest plus windowing knobs (``start``,
    ``limit``, ``loop``) — never the path.  Raises
    :class:`~repro.trace.TraceLookupError` with nearest-match
    suggestions on unknown names.
    """
    from repro.trace import resolve_trace as _resolve

    return _resolve(spec, name=name)


RESULT_SCHEMA_VERSION = _results.RESULT_SCHEMA_VERSION

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "Campaign",
    "SimResult",
    "campaign",
    "campaign_open",
    "register_trace",
    "simulate",
    "submit",
    "submit_many",
    "trace_workload",
]
