"""Performance benchmark harness for the scheduling hot path (DESIGN.md §10-11).

Two benchmark tiers, both deterministic and cache-free (results come from
freshly built :class:`~repro.sim.system.System` instances — the disk-backed
experiment cache is never consulted, so numbers always reflect the code as
it is now):

* **tick-loop microbench** — drives the scheduling round directly
  (``DRAMControllerEngine.tick``) on a pre-filled request buffer, with no
  core/cache/event-loop machinery around it.  Isolates the scheduler
  itself.
* **campaign-preset macrobench** — the ``padc`` 4-core multiprogrammed mix
  used by the campaign presets, run end-to-end through ``System.run`` with
  the scheduling entry point wrapped in a timing accumulator.  Reports
  both end-to-end throughput (simulated DRAM cycles per wall-clock second)
  and *tick-loop throughput* (simulated cycles per second spent inside the
  scheduling round).

Every run executes against both backends (the skip-ahead ``event``
backend and the naive ``reference`` oracle); their ``SimResult.to_dict()``
outputs are asserted identical by :func:`verify_equivalence` before any
numbers are reported, so a bench report is also an equivalence
certificate.

The report is a schema-versioned JSON document.  It carries no speed
gate: the benchmark of record is ``python3 perfbench/run.py`` and its
``compare`` command, which bound every end-to-end metric against the
parent commit with noise-aware repeats.

The **phase-attribution section** (``--phases``; see
:mod:`repro.bench.phases`) is a cProfile pass over the macrobench whose
self-time is bucketed into workload / core_cache / prefetcher /
controller / telemetry / other.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.params import BACKENDS, SystemConfig, baseline_config
from repro.sim.system import System

# Schema 4: one column per entry of BACKENDS (event, reference) and no
# speed certificate or regression side-tables.
SCHEMA_VERSION = 4
BENCH_NAME = "BENCH_11"

# The campaign-preset macrobench: the padc 4-core multiprogrammed mix.
MACRO_MIX: Tuple[str, ...] = ("mcf_06", "libquantum_06", "lucas_00", "hmmer_06")
MACRO_SEED = 7

# Policies benchmarked (and verified) by default — the golden-equivalence
# matrix of DESIGN.md §10.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "fcfs",
    "frfcfs",
    "demand-first",
    "demand-first-apd",
    "padc",
    "padc-rank",
)

# Workload mixes for the equivalence sweep (the macrobench mix plus a
# second mix with different stream/locality character).
VERIFY_MIXES: Tuple[Tuple[str, ...], ...] = (
    MACRO_MIX,
    ("swim_00", "galgel_00", "art_00", "ammp_00"),
)
VERIFY_SEEDS: Tuple[int, ...] = (7, 11)


@dataclass(frozen=True)
class Scale:
    """Benchmark sizing: accesses per core (macro) and requests (micro)."""

    name: str
    macro_accesses: int
    micro_requests: int
    verify_accesses: int


SCALES: Dict[str, Scale] = {
    scale.name: scale
    for scale in (
        Scale("tiny", macro_accesses=1_500, micro_requests=2_000, verify_accesses=800),
        Scale("quick", macro_accesses=5_000, micro_requests=8_000, verify_accesses=1_500),
        Scale("medium", macro_accesses=20_000, micro_requests=30_000, verify_accesses=3_000),
        Scale("paper", macro_accesses=50_000, micro_requests=100_000, verify_accesses=5_000),
    )
}


def _macro_config(policy: str) -> SystemConfig:
    return baseline_config(num_cores=len(MACRO_MIX), policy=policy)


class _TickTimer:
    """Accumulates wall time spent inside the scheduling round.

    For the reference backend it is installed as an instance attribute on
    the engine (shadowing the bound ``tick`` method), so every call site —
    including the run loop's hoisted local — goes through it.  For the
    event backend (which never calls ``engine.tick``) the per-channel
    ticker closures are wrapped instead; see :func:`_install_tick_timer`.
    The overhead (two ``perf_counter`` calls per round) is identical for
    both backends, so speedup ratios are unaffected.
    """

    __slots__ = ("_inner", "elapsed", "calls")

    def __init__(self, inner=None):
        self._inner = inner
        self.elapsed = 0.0
        self.calls = 0

    def __call__(self, *args):
        start = perf_counter()
        result = self._inner(*args)
        self.elapsed += perf_counter() - start
        self.calls += 1
        return result


def _install_tick_timer(system: System, backend: str) -> _TickTimer:
    """Install round timing on ``system`` for the given backend.

    The reference backend routes every scheduling round through
    ``engine.tick``; the event backend builds one fused ticker closure
    per channel via ``engine.make_event_ticker`` and calls those
    directly, so there the factory is shadowed and each closure it
    returns is wrapped.  All
    wrapped closures share one accumulator, so ``elapsed``/``calls``
    aggregate across channels exactly like the shared-``tick`` path.
    """
    engine = system.engine
    if backend == "event":
        timer = _TickTimer()
        inner_factory = engine.make_event_ticker

        def timed_factory(channel_id: int):
            inner = inner_factory(channel_id)

            def timed(now: int):
                start = perf_counter()
                result = inner(now)
                timer.elapsed += perf_counter() - start
                timer.calls += 1
                return result

            return timed

        engine.make_event_ticker = timed_factory  # instance attr shadow
        return timer
    timer = _TickTimer(engine.tick)
    engine.tick = timer  # instance attr shadows the bound method
    return timer


# -- macrobench ------------------------------------------------------------


def run_macro(
    policy: str,
    scale: str,
    backend: str = "event",
    *,
    seed: int = MACRO_SEED,
) -> Dict[str, object]:
    """Run the campaign-preset macrobench once; return its measurements.

    ``tick_loop_s`` is the wall time spent inside the scheduling round
    (the hot path); ``cycles_per_sec`` and ``tick_cycles_per_sec`` divide
    the simulated cycle count by end-to-end and tick-loop wall time
    respectively.
    """
    sizing = SCALES[scale]
    system = System(
        _macro_config(policy), list(MACRO_MIX), seed=seed, backend=backend
    )
    timer = _install_tick_timer(system, backend)
    start = perf_counter()
    result = system.run(sizing.macro_accesses)
    wall = perf_counter() - start
    cycles = result.total_cycles
    return {
        "backend": backend,
        "accesses_per_core": sizing.macro_accesses,
        "cycles": cycles,
        "wall_s": round(wall, 6),
        "cycles_per_sec": round(cycles / wall, 1) if wall else None,
        "tick_loop_s": round(timer.elapsed, 6),
        "tick_calls": timer.calls,
        "tick_cycles_per_sec": (
            round(cycles / timer.elapsed, 1) if timer.elapsed else None
        ),
    }


def bench_macro_policy(policy: str, scale: str, repeats: int = 1) -> Dict[str, object]:
    """Macrobench one policy on both backends; best-of-``repeats``.

    The backends are interleaved within each repeat round so transient
    machine load hits them symmetrically.  ``speedup_end_to_end`` and
    ``speedup_tick_loop`` are the event backend's gain over the naive
    reference.
    """
    best: Dict[str, Dict[str, object]] = {}
    for _ in range(max(1, repeats)):
        for backend in BACKENDS:
            sample = run_macro(policy, scale, backend)
            incumbent = best.get(backend)
            if incumbent is None or sample["wall_s"] < incumbent["wall_s"]:
                best[backend] = sample
    event, ref = best["event"], best["reference"]
    return {
        "event": event,
        "reference": ref,
        "speedup_end_to_end": round(
            event["cycles_per_sec"] / ref["cycles_per_sec"], 3
        ),
        "speedup_tick_loop": round(
            event["tick_cycles_per_sec"] / ref["tick_cycles_per_sec"], 3
        ),
    }


# -- tick-loop microbench --------------------------------------------------


def run_micro(
    policy: str,
    scale: str,
    backend: str = "event",
    *,
    seed: int = 3,
) -> Dict[str, object]:
    """Drive the scheduling round directly on a synthetic request population.

    A fresh engine (built with the macrobench's config so the policy,
    tracker and dropper wiring match production) is loaded with
    ``micro_requests`` pseudo-random requests — mixed demand/prefetch,
    spread across cores, banks and rows — and then ticked to exhaustion.
    Only the tick loop is timed; request construction and admission are
    excluded (overflow draining, which happens inside the round, is part
    of the measured path by design — it is part of every real round).
    Both backends go through ``engine.tick``, which on the event backend
    dispatches to the fused per-channel ticker closures.
    """
    sizing = SCALES[scale]
    system = System(
        _macro_config(policy), list(MACRO_MIX), seed=seed, backend=backend
    )
    engine = system.engine
    rng = random.Random(seed)
    num_cores = len(MACRO_MIX)
    for arrival in range(sizing.micro_requests):
        request = engine.build_request(
            line_addr=rng.randrange(1 << 26),
            core_id=rng.randrange(num_cores),
            is_prefetch=rng.random() < 0.5,
            now=arrival,
        )
        engine.enqueue_demand(request)  # overflow FIFO absorbs the excess
    admitted = engine.stats.enqueued_total
    num_channels = engine.config.num_channels
    stats = engine.stats
    now = 0
    ticks = 0
    tick = engine.tick
    start = perf_counter()
    while stats.serviced_total + stats.dropped_prefetches < admitted:
        next_now = None
        for channel_id in range(num_channels):
            _, wake = tick(channel_id, now)
            ticks += 1
            if wake is not None and (next_now is None or wake < next_now):
                next_now = wake
        now = next_now if next_now is not None and next_now > now else now + 1
    elapsed = perf_counter() - start
    return {
        "backend": backend,
        "requests": admitted,
        "cycles": now,
        "ticks": ticks,
        "wall_s": round(elapsed, 6),
        "cycles_per_sec": round(now / elapsed, 1) if elapsed else None,
        "requests_per_sec": round(admitted / elapsed, 1) if elapsed else None,
    }


def bench_micro_policy(policy: str, scale: str, repeats: int = 1) -> Dict[str, object]:
    """Microbench one policy on both backends; best-of-``repeats``."""
    best: Dict[str, Dict[str, object]] = {}
    for _ in range(max(1, repeats)):
        for backend in BACKENDS:
            sample = run_micro(policy, scale, backend)
            incumbent = best.get(backend)
            if incumbent is None or sample["wall_s"] < incumbent["wall_s"]:
                best[backend] = sample
    event, ref = best["event"], best["reference"]
    return {
        "event": event,
        "reference": ref,
        "speedup": round(event["requests_per_sec"] / ref["requests_per_sec"], 3),
    }


# -- trace encode/decode throughput ----------------------------------------

# Entries per trace-bench run = micro_requests x this multiplier (decode
# is far cheaper per entry than a scheduling round, so it needs a larger
# population for stable numbers).
TRACE_BENCH_MULTIPLIER = 25
TRACE_BENCH_BENCHMARK = "swim_00"


def bench_trace(scale: str, *, seed: int = MACRO_SEED) -> Dict[str, object]:
    """Measure ``.rtr`` encode and streaming-decode throughput.

    Renders a synthetic trace to a temporary ``.rtr`` file (timing the
    encoder), then iterates the whole file back (timing the mmap-backed
    decoder).  Reported entries/sec are machine-dependent; bytes/entry is
    not, so it doubles as a compactness snapshot of the format.
    """
    import os
    import tempfile

    from repro.trace.format import TraceReader, write_trace
    from repro.workloads import make_trace

    entries = SCALES[scale].micro_requests * TRACE_BENCH_MULTIPLIER
    descriptor, path = tempfile.mkstemp(suffix=".rtr")
    os.close(descriptor)
    try:
        start = perf_counter()
        header = write_trace(
            path, make_trace(TRACE_BENCH_BENCHMARK, seed=seed), limit=entries
        )
        encode_s = perf_counter() - start
        size = os.path.getsize(path)
        reader = TraceReader(path)
        decoded = 0
        start = perf_counter()
        for _ in reader.entries():
            decoded += 1
        decode_s = perf_counter() - start
    finally:
        os.unlink(path)
    if decoded != entries:
        raise RuntimeError(
            f"trace bench decoded {decoded} of {entries} entries"
        )
    return {
        "benchmark": TRACE_BENCH_BENCHMARK,
        "entries": entries,
        "blocks": header.blocks,
        "file_bytes": size,
        "bytes_per_entry": round(size / entries, 3),
        "encode_s": round(encode_s, 6),
        "encode_entries_per_sec": round(entries / encode_s, 1) if encode_s else None,
        "decode_s": round(decode_s, 6),
        "decode_entries_per_sec": round(entries / decode_s, 1) if decode_s else None,
    }


# -- equivalence -----------------------------------------------------------


def verify_equivalence(
    policies: Sequence[str],
    scale: str,
    *,
    mixes: Sequence[Sequence[str]] = VERIFY_MIXES,
    seeds: Sequence[int] = VERIFY_SEEDS,
    backends: Sequence[str] = BACKENDS,
) -> Dict[str, object]:
    """Cross-backend differential over policies × mixes × seeds.

    Every backend's ``SimResult.to_dict()`` is compared against the first
    backend's output for the same case.  Returns ``{"cases": N,
    "backends": [...], "mismatches": [case descriptions]}``; an empty
    mismatch list certifies byte-identical results for every case.
    """
    accesses = SCALES[scale].verify_accesses
    mismatches: List[str] = []
    cases = 0
    for policy in policies:
        for mix in mixes:
            for seed in seeds:
                cases += 1
                config = baseline_config(num_cores=len(mix), policy=policy)
                golden = None
                for backend in backends:
                    system = System(config, list(mix), seed=seed, backend=backend)
                    output = system.run(accesses).to_dict()
                    if golden is None:
                        golden = (backend, output)
                    elif output != golden[1]:
                        mismatches.append(
                            f"policy={policy} mix={','.join(mix)} seed={seed}: "
                            f"{backend} != {golden[0]}"
                        )
    return {"cases": cases, "backends": list(backends), "mismatches": mismatches}


# -- report ---------------------------------------------------------------


def build_report(
    scale: str,
    policies: Sequence[str],
    *,
    repeats: int = 1,
    verify: bool = True,
    run_micro_bench: bool = True,
    run_trace_bench: bool = True,
    phases: bool = False,
    phase_backend: str = "event",
    progress=None,
) -> Dict[str, object]:
    """Run the full bench matrix and assemble the report document.

    With ``phases`` the report gains a ``"phases"`` section: one
    phase-attributed cProfile breakdown per policy on ``phase_backend``
    (see :mod:`repro.bench.phases`).  The profiled runs are separate
    from the timed macrobench runs, so the attribution never perturbs
    the reported walls.
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "bench": BENCH_NAME,
        "scale": scale,
        "macro": {
            "mix": list(MACRO_MIX),
            "seed": MACRO_SEED,
            "accesses_per_core": SCALES[scale].macro_accesses,
            "policies": {},
        },
        "micro": {"requests": SCALES[scale].micro_requests, "policies": {}},
    }
    if verify:
        note("verifying event == reference over the policy matrix ...")
        report["equivalence"] = verify_equivalence(policies, scale)
    for policy in policies:
        note(f"macrobench {policy} ...")
        report["macro"]["policies"][policy] = bench_macro_policy(
            policy, scale, repeats
        )
        if run_micro_bench:
            note(f"microbench {policy} ...")
            report["micro"]["policies"][policy] = bench_micro_policy(
                policy, scale, repeats
            )
    if phases:
        from repro.bench.phases import run_phases

        phase_entries = {}
        for policy in policies:
            note(f"phase attribution {policy} ({phase_backend}) ...")
            phase_entries[policy] = run_phases(policy, scale, phase_backend)
        report["phases"] = {"backend": phase_backend, "policies": phase_entries}
    if run_trace_bench:
        note("trace encode/decode throughput ...")
        report["trace"] = bench_trace(scale)
    return report


def load_report(path: str) -> Optional[Dict[str, object]]:
    """Read a bench report; None if the file is absent or unparseable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write_report(path: str, report: Dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
