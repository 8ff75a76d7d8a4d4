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
* ``Campaign`` — :class:`repro.campaign.Campaign`, the one handle over a
  persistent campaign directory: ``Campaign.create(spec)`` /
  :func:`campaign_open` bind it, then ``.status()``, ``.export()``,
  ``.progress()``, ``.metrics()`` and ``.stream()`` read it.  The
  executor, the workers, the CLI, the HTTP service and the dashboard
  all hold this same class.  It is looked up on first use, so
  ``import repro`` does not load the campaign package.

``repro.experiments``, the examples and both CLIs call through this
module, so its signatures are the project's compatibility surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.params import SystemConfig
from repro.runtime import Runtime, SimJob, get_runtime
from repro.runtime.parallel import SIM_KWARG_NAMES, suggest
from repro.sim import results as _results
from repro.sim import system as _system
from repro.sim.results import SimResult
from repro.telemetry.collector import NoopCollector

if TYPE_CHECKING:
    from repro.campaign import Campaign

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
    its results on disk, even with the runtime's cache disabled.  The
    run's ``.campaign`` is the :class:`Campaign` handle over it.
    """
    # Imported lazily, as ``Campaign`` is (see __getattr__ below).
    from repro.campaign.executor import coerce_spec, run_persistent

    return run_persistent(
        coerce_spec(spec), directory=directory, runtime=runtime, retries=retries
    )


def campaign_open(directory, *, runtime: Optional[Runtime] = None) -> Campaign:
    """Bind an existing campaign directory to a :class:`Campaign` handle.

    The read-side entry point: ``.status()`` and ``.export(fmt=...)``
    read the campaign (exports from ``runtime``'s result store), and
    ``.stream()`` / ``.metrics()`` are the live-telemetry surface the
    dashboard polls.
    """
    from repro.campaign import Campaign

    return Campaign.open(directory, runtime=runtime)


def __getattr__(name: str):
    # ``api.Campaign`` is repro.campaign.Campaign, looked up on first
    # use: ``import repro`` imports this module, and loading the
    # campaign package (sqlite3, the worker pool) here would slow the
    # start of every process, campaign or not.
    if name == "Campaign":
        from repro.campaign import Campaign

        return Campaign
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
