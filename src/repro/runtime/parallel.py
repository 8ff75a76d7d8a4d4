"""Parallel, cache-aware execution of independent simulation jobs.

:class:`SimJob` freezes one ``simulate()`` call into a hashable,
picklable value; :class:`Runtime` runs batches of jobs — serving hits
from the on-disk :class:`~repro.runtime.store.ResultStore`, deduplicating
identical jobs within a batch, and fanning the misses out over a
:class:`~concurrent.futures.ProcessPoolExecutor` when more than one
worker is configured.

Because every simulation is fully deterministic in its seed, a job's
result is identical whether it ran serially, in a worker process, or was
loaded back from the cache — ``tests/test_parallel.py`` asserts this
bit-for-bit across worker counts and cold/warm caches.

Knobs (flag overrides env, env overrides default):

* workers — ``--jobs N`` / ``$REPRO_JOBS`` (default 1 = serial;
  0 = one per CPU core);
* cache location — ``--cache-dir`` / ``$REPRO_CACHE_DIR``
  (default ``~/.cache/repro``);
* cache on/off — ``--no-cache`` / ``$REPRO_CACHE=0``.
"""

from __future__ import annotations

import difflib
import inspect
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.params import SystemConfig
from repro.runtime.hashing import canonicalize
from repro.runtime.store import ResultStore, cache_key
from repro.sim.results import SimResult
from repro.sim.system import simulate as _simulate

# simulate() arguments a job fills from its own fields; every other
# simulate() keyword may ride in its ``sim_kwargs``.
JOB_SIM_ARGS = ("config", "benchmarks", "max_accesses_per_core", "seed")

# Read once from simulate()'s signature, so a new knob needs no edit here.
SIM_KWARG_NAMES = tuple(
    sorted(set(inspect.signature(_simulate).parameters) - set(JOB_SIM_ARGS))
)


def suggest(name: str, known: Sequence[str]) -> str:
    """`` (did you mean a, b?)`` naming the entries of ``known`` closest
    to ``name``, or ``""`` when none is close."""
    close = difflib.get_close_matches(name, known, n=3)
    return f" (did you mean {', '.join(close)}?)" if close else ""


@dataclass(frozen=True)
class SimJob:
    """One independent ``simulate()`` call, ready to hash, pickle or ship."""

    config: SystemConfig
    benchmarks: Tuple = ()
    accesses: int = 0
    seed: int = 0
    # Extra simulate() keyword arguments as a sorted tuple of pairs so the
    # job stays hashable (e.g. (("collect_service_times", True),)).
    sim_kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, config, benchmarks, accesses, seed=0, **sim_kwargs) -> "SimJob":
        return cls(
            config=config,
            benchmarks=tuple(benchmarks),
            accesses=int(accesses),
            seed=int(seed),
            sim_kwargs=tuple(sorted(sim_kwargs.items())),
        )

    def payload(self) -> Dict:
        """Canonical content of this job, for cache keying.

        Workloads canonicalize through
        :func:`repro.workloads.canonical_workload`: benchmark names stay
        strings, while ``trace:`` specs and ``TraceWorkload`` values hash
        by the trace file's embedded content digest (never its path), so
        the same trace at two paths shares cache entries and an edited
        trace invalidates them.
        """
        from repro.workloads.resolve import canonical_workload

        return {
            "config": canonicalize(self.config),
            "benchmarks": [
                canonical_workload(benchmark) for benchmark in self.benchmarks
            ],
            "accesses": self.accesses,
            "seed": self.seed,
            "sim_kwargs": canonicalize(dict(self.sim_kwargs)),
        }

    def key(self) -> str:
        return cache_key(self)


class JobExecutionError(RuntimeError):
    """A simulation job died; carries the job's identity, not just a trace.

    A bare worker traceback says *that* something crashed but not *what*
    was running; this error pins the failure to a job via its cache key
    and a config summary (policy, cores, benchmarks, accesses, seed).
    The three-argument form keeps the default ``Exception`` pickling
    working, so the error crosses the ProcessPoolExecutor boundary
    intact.
    """

    def __init__(self, key: str, summary: str, traceback_text: str):
        super().__init__(key, summary, traceback_text)
        self.key = key
        self.summary = summary
        self.traceback_text = traceback_text

    def __str__(self) -> str:
        return (
            f"simulation job {self.key[:16]} failed ({self.summary})\n"
            f"{self.traceback_text.rstrip()}"
        )


def job_summary(job: SimJob) -> str:
    """One-line human identity of a job for error reports and ledgers."""
    names = ",".join(
        getattr(benchmark, "name", str(benchmark)) for benchmark in job.benchmarks
    )
    return (
        f"policy={job.config.policy} cores={job.config.num_cores} "
        f"benchmarks={names} accesses={job.accesses} seed={job.seed}"
    )


def execute_job(job: SimJob, *, telemetry=None) -> SimResult:
    """Run one job in this process (also the worker-side entry point).

    Any simulation failure is re-raised as :class:`JobExecutionError`
    carrying the job's cache key and config summary, so callers (and
    users reading a worker traceback) know which job died.

    ``telemetry`` (keyword-only) overrides the job's own telemetry knob
    with a live collector — the streaming path.  The override is
    **cache-neutral**: it never reaches the job's key (the job is
    untouched), and if the job did not itself ask for telemetry the
    collector's piggy-backed trace is stripped from the result, so the
    persisted bytes are identical to an unstreamed run.
    """
    # Late attribute lookup so tests can monkeypatch repro.sim.simulate.
    import repro.sim

    sim_kwargs = dict(job.sim_kwargs)
    job_wants_trace = bool(sim_kwargs.get("telemetry"))
    if telemetry is not None:
        sim_kwargs["telemetry"] = telemetry
    try:
        result = repro.sim.simulate(
            job.config,
            list(job.benchmarks),
            max_accesses_per_core=job.accesses,
            seed=job.seed,
            **sim_kwargs,
        )
    except Exception as error:
        raise JobExecutionError(
            job.key(), job_summary(job), traceback.format_exc()
        ) from error
    if telemetry is not None and not job_wants_trace:
        result.trace = None
    return result


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1").strip()
        try:
            jobs = int(raw)
        except ValueError:
            # Fail loudly, mirroring Scale.from_env: a typo'd
            # REPRO_JOBS=1O silently serializing a whole campaign is
            # far worse than dying at startup.
            raise ValueError(
                f"$REPRO_JOBS must be an integer worker count "
                f"(0 = one per CPU core), got {raw!r}"
            ) from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _resolve_cache_enabled(enabled: Optional[bool]) -> bool:
    if enabled is not None:
        return enabled
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in {
        "0",
        "off",
        "false",
        "no",
    }


class Runtime:
    """Cache-aware serial/parallel executor for simulation jobs."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir=None,
        cache_enabled: Optional[bool] = None,
    ):
        self.jobs = _resolve_jobs(jobs)
        self.cache_enabled = _resolve_cache_enabled(cache_enabled)
        self.store = ResultStore(cache_dir)

    def run(self, job: SimJob) -> SimResult:
        return self.run_many([job])[0]

    def run_many(self, jobs: Sequence[SimJob]) -> List[SimResult]:
        """Run a batch of independent jobs, preserving input order.

        Cache hits never touch a worker; identical jobs within the batch
        are computed once and fanned back to every requesting slot.
        """
        jobs = list(jobs)
        results: List[Optional[SimResult]] = [None] * len(jobs)
        pending: Dict[str, List[int]] = {}
        misses: List[Tuple[str, SimJob]] = []
        for index, job in enumerate(jobs):
            key = job.key()
            if key in pending:
                pending[key].append(index)
                continue
            if self.cache_enabled:
                hit = self.store.get(key)
                if hit is not None:
                    results[index] = hit
                    continue
            pending[key] = [index]
            misses.append((key, job))
        if misses:
            computed = self._execute([job for _, job in misses])
            for (key, _), result in zip(misses, computed):
                if self.cache_enabled:
                    self.store.put(key, result)
                for index in pending[key]:
                    results[index] = result
        return results

    def _execute(self, jobs: List[SimJob]) -> List[SimResult]:
        try:
            if self.jobs > 1 and len(jobs) > 1:
                workers = min(self.jobs, len(jobs))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(execute_job, jobs))
            return [execute_job(job) for job in jobs]
        except JobExecutionError as error:
            # Report which member of the batch died; the whole batch is
            # abandoned here (the campaign executor is the fault-isolated
            # path that lets siblings finish).  Folded into the message
            # rather than BaseException.add_note: that API is 3.11+ and
            # this package declares 3.9 support — and unlike a note, the
            # message also reaches ledgers that record str(error).
            error.traceback_text = (
                error.traceback_text.rstrip()
                + f"\nwhile running a batch of {len(jobs)} jobs; "
                "the rest of the batch was abandoned"
            )
            raise


# -- the process-wide runtime -------------------------------------------------
#
# CLI flags install an explicit runtime via configure(); otherwise
# get_runtime() builds one from the environment and rebuilds it whenever
# the relevant variables change (tests flip them per-case).

_CONFIGURED: Optional[Runtime] = None
_ENV_RUNTIME: Optional[Runtime] = None
_ENV_SNAPSHOT: Optional[Tuple] = None

_ENV_VARS = ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_CACHE")


def _env_snapshot() -> Tuple:
    return tuple(os.environ.get(name) for name in _ENV_VARS)


def get_runtime() -> Runtime:
    """The active runtime: configure()'d one, else env-derived."""
    global _ENV_RUNTIME, _ENV_SNAPSHOT
    if _CONFIGURED is not None:
        return _CONFIGURED
    snapshot = _env_snapshot()
    if _ENV_RUNTIME is None or snapshot != _ENV_SNAPSHOT:
        _ENV_RUNTIME = Runtime()
        _ENV_SNAPSHOT = snapshot
    return _ENV_RUNTIME


def configure(
    jobs: Optional[int] = None,
    cache_dir=None,
    cache_enabled: Optional[bool] = None,
) -> Runtime:
    """Install an explicit process-wide runtime (CLI flags land here)."""
    global _CONFIGURED
    _CONFIGURED = Runtime(jobs=jobs, cache_dir=cache_dir, cache_enabled=cache_enabled)
    return _CONFIGURED


def reset() -> None:
    """Drop any configured/env-derived runtime (test isolation)."""
    global _CONFIGURED, _ENV_RUNTIME, _ENV_SNAPSHOT
    _CONFIGURED = None
    _ENV_RUNTIME = None
    _ENV_SNAPSHOT = None
