"""Per-layer spans and counts for the benchmark's traced child.

Every span is recorded from outside the program, by wrapping public entry
points at class level, so the wrappers also see the ``System``, store and
job-store objects the campaign stack creates internally (``Campaign.ledger``
builds a new store on each access, so instance-level wrappers would miss
calls).  ``install()`` patches classes for the rest of the process: it is
meant for the traced child, which exits after one repetition.

Layers and their spans:

* ``workloads`` -- a timed iterator around each core's ``core.trace``;
* ``controller`` -- the per-channel scheduling-round timer of
  :func:`repro.bench._install_tick_timer`;
* ``sim`` -- ``System.__init__`` and ``System.run``; its self time is the
  run span minus the ``workloads`` and ``controller`` spans inside it.
  The cache, core and prefetcher models are inlined into the run loop, so
  they are counts here, not spans: wrapping the prefetcher's ``on_access``
  would switch off the event loop's fused stream fork;
* ``runtime`` -- ``ResultStore.get`` / ``put``;
* ``campaign`` -- ``SqliteJobStore.claim`` / ``append`` / ``append_samples``.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Dict


class Span:
    """Accumulated busy time and call count of one boundary."""

    __slots__ = ("busy", "calls")

    def __init__(self) -> None:
        self.busy = 0.0
        self.calls = 0


class _TimedIterator:
    """Times each ``next()`` of a trace iterator into a span."""

    __slots__ = ("_next", "_span")

    def __init__(self, iterator, span: Span) -> None:
        self._next = iterator.__next__
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        entry = self._next()
        span = self._span
        span.busy += perf_counter() - start
        span.calls += 1
        return entry


class Tracer:
    """The spans and counts of one traced child."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.counts: Dict[str, int] = {}

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, cls, method: str, span_name: str, count=None) -> None:
        """Replace ``cls.method`` with a version timed into ``span_name``.

        ``count(args, result)``, when given, runs after each call, outside
        the span.
        """
        inner = getattr(cls, method)
        span = self.span(span_name)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span.busy += perf_counter() - start
                span.calls += 1
            if count is not None:
                count(args, result)
            return result

        setattr(cls, method, timed)

    def wrap_run(self, system_cls) -> None:
        """Time ``System.run`` and the trace and controller spans inside it."""
        from repro.bench import _install_tick_timer

        inner = system_cls.run
        run_span = self.span("sim.run")
        trace_span = self.span("workloads")
        tick_span = self.span("controller")

        @functools.wraps(inner)
        def traced_run(system, *args, **kwargs):
            timer = _install_tick_timer(system, system.backend)
            for core in system.cores:
                core.trace = _TimedIterator(core.trace, trace_span)
            start = perf_counter()
            result = inner(system, *args, **kwargs)
            run_span.busy += perf_counter() - start
            run_span.calls += 1
            tick_span.busy += timer.elapsed
            tick_span.calls += timer.calls
            self._count_result(system, result)
            return result

        system_cls.run = traced_run

    def _count_result(self, system, result) -> None:
        cores = result.cores
        self.count("l2_hits", sum(core.l2_hits for core in cores))
        self.count("l2_misses", sum(core.l2_misses for core in cores))
        self.count("mshr_stalls", sum(core.mshr_stalls for core in cores))
        self.count("pf_sent", sum(core.pf_sent for core in cores))
        self.count("pf_used", sum(core.pf_used for core in cores))
        self.count("pf_dropped", result.dropped_prefetches)
        engine = system.engine
        self.count("serviced", engine.stats.serviced_total)
        banks = [bank for channel in engine.channels for bank in channel.banks]
        self.count("row_hits", sum(bank.hits for bank in banks))
        self.count("row_accesses", sum(bank.total_accesses for bank in banks))

    def layers(self, rep: Dict, campaign: bool) -> Dict[str, float]:
        """The per-layer metrics of this repetition, keyed by metric name.

        ``rep`` is the child's own measurement of the repetition, which
        supplies the drain time, the job count and the timed export and
        dashboard calls of the campaign workload.
        """
        busy = {name: span.busy for name, span in self.spans.items()}
        calls = {name: span.calls for name, span in self.spans.items()}
        counts = self.counts
        run_s = busy["sim.run"]
        accesses = counts.get("l2_hits", 0) + counts.get("l2_misses", 0)
        self_s = run_s - busy["workloads"] - busy["controller"]
        sent = counts.get("pf_sent", 0)
        row_accesses = counts.get("row_accesses", 0)
        simulate_s = busy["sim.build"] + run_s
        return {
            "workloads.busy_s": busy["workloads"],
            "workloads.entries": calls["workloads"],
            "workloads.ns_per_entry": _per(busy["workloads"] * 1e9, calls["workloads"]),
            "sim.build_s": busy["sim.build"],
            "sim.run_s": run_s,
            "sim.self_s": self_s,
            "sim.us_per_access": _per(self_s * 1e6, accesses),
            "cache.l2_hit_ratio": _per(counts.get("l2_hits", 0), accesses),
            "cache.mshr_stalls": counts.get("mshr_stalls", 0),
            "prefetch.sent": sent,
            "prefetch.accuracy": _per(counts.get("pf_used", 0), sent),
            "prefetch.dropped": counts.get("pf_dropped", 0),
            "controller.busy_s": busy["controller"],
            "controller.ticks": calls["controller"],
            "controller.us_per_tick": _per(busy["controller"] * 1e6, calls["controller"]),
            "controller.serviced": counts.get("serviced", 0),
            "controller.row_hit_rate": _per(counts.get("row_hits", 0), row_accesses),
            "runtime.store_get_s": busy["runtime.get"],
            "runtime.store_put_s": busy["runtime.put"],
            "runtime.store_hits": counts.get("store_hits", 0),
            "campaign.claim_s": busy["campaign.claim"],
            "campaign.journal_s": busy["campaign.journal"],
            "campaign.samples_s": busy["campaign.samples"],
            "campaign.overhead_ms_per_job": (
                _per((rep["run_s"] - simulate_s) * 1e3, rep["jobs"]) if campaign else 0.0
            ),
            "campaign.export_s": rep.get("export_s", 0.0),
            "dashboard.metrics_s": rep.get("metrics_s", 0.0),
            "telemetry.samples": counts.get("samples", 0),
        }


def _per(amount: float, count: int) -> float:
    return amount / count if count else 0.0


def install() -> Tracer:
    """Patch the layer boundaries of this process and return the tracer."""
    from repro.campaign.jobstore import SqliteJobStore
    from repro.runtime.store import ResultStore
    from repro.sim.system import System

    tracer = Tracer()
    tracer.wrap(System, "__init__", "sim.build")
    tracer.wrap_run(System)
    tracer.wrap(
        ResultStore, "get", "runtime.get",
        count=lambda args, hit: tracer.count("store_hits", int(hit is not None)),
    )
    tracer.wrap(ResultStore, "put", "runtime.put")
    tracer.wrap(SqliteJobStore, "claim", "campaign.claim")
    tracer.wrap(SqliteJobStore, "append", "campaign.journal")
    # Called as store.append_samples(key, records).
    tracer.wrap(
        SqliteJobStore, "append_samples", "campaign.samples",
        count=lambda args, _: tracer.count("samples", len(args[2])),
    )
    return tracer
