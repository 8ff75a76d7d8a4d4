"""Phase-attributed profiling of the macrobench mix (DESIGN.md §15).

Of the time a simulation spends, how much goes to workload generation,
to the core+cache model, to the prefetchers, to the DRAM controller, to
telemetry?  :func:`run_phases` answers that with one deterministic
cProfile pass over the campaign-preset mix (:data:`repro.bench.MACRO_MIX`):

* every profiled function's **self time** (cProfile ``tottime``) is
  attributed to exactly one bucket by its defining module's path, so the
  buckets partition the profiled time — they sum to ``profiled_s``
  exactly, with no double counting;
* the bucket names are a stable contract (:data:`PHASE_BUCKETS`) — the
  CLI table, the CI grep and the tests all key on them;
* wall time is measured with ``perf_counter_ns`` around the profiled
  run.  cProfile's per-call hook inflates wall time substantially (the
  simulator makes tens of millions of calls), so ``wall_s`` here is NOT
  an absolute speed — use the **shares**, which divide out the overhead,
  and ``python3 perfbench/run.py`` for throughput.

The run builds its ``System`` without a backend, so ``$REPRO_BACKEND``
picks the scheduling round; the entry reports the backend that ran.

Bucket map (module path → bucket):

=============  ========================================================
bucket         modules
=============  ========================================================
``workload``   ``repro.workloads``, ``repro.trace``, numpy RNG builtins
``core_cache`` ``repro.sim``, ``repro.cache``, ``repro.core``
``prefetcher`` ``repro.prefetch``
``controller`` ``repro.controller``, ``repro.dram``
``telemetry``  ``repro.telemetry``, ``repro.metrics``
``other``      everything else (heapq, builtins, interpreter plumbing)
=============  ========================================================

``front_end_share`` is ``workload + core_cache + prefetcher`` over the
profiled total — the fraction of simulator self-time spent outside the
DRAM controller, i.e. the territory the front-end hot-path work targets.
"""

from __future__ import annotations

import cProfile
import pstats
from time import perf_counter_ns
from typing import Dict, Iterable, List

from repro.bench import MACRO_MIX, MACRO_SEED, SCALES, _macro_config
from repro.sim.system import System

# The stable bucket contract.  Order is presentation order; tests pin
# the exact tuple, so adding/renaming a bucket changes the contract.
PHASE_BUCKETS = (
    "workload",
    "core_cache",
    "prefetcher",
    "controller",
    "telemetry",
    "other",
)

# Buckets counted as "front end" (everything except the DRAM controller
# back end; telemetry and interpreter overhead are reported separately).
FRONT_END_BUCKETS = ("workload", "core_cache", "prefetcher")

# (path markers, bucket) — first match wins.  Markers are substring
# matches on the '/'-normalized co_filename, so they work for installed
# packages and source checkouts alike.
_BUCKET_RULES = (
    (("/repro/workloads/", "/repro/trace/"), "workload"),
    (("/repro/sim/", "/repro/cache/", "/repro/core/"), "core_cache"),
    (("/repro/prefetch/",), "prefetcher"),
    (("/repro/controller/", "/repro/dram/"), "controller"),
    (("/repro/telemetry/", "/repro/metrics/"), "telemetry"),
)


def classify(filename: str, funcname: str = "") -> str:
    """Map one profiled function to its phase bucket.

    ``filename``/``funcname`` are the pstats key fields (``co_filename``
    and ``co_name``; C functions report ``'~'`` and a descriptive
    funcname).  The numpy Generator's batched draw methods are C-level
    builtins, but they do the workload's random number generation, so
    they are attributed to ``workload`` rather than ``other``.
    """
    path = filename.replace("\\", "/")
    for markers, bucket in _BUCKET_RULES:
        for marker in markers:
            if marker in path:
                return bucket
    if "numpy" in path or "numpy" in funcname:
        return "workload"
    return "other"


def run_phases(policy: str, scale: str) -> Dict[str, object]:
    """Profile one run of the macrobench mix; return its phase breakdown."""
    accesses = SCALES[scale]
    system = System(_macro_config(policy), list(MACRO_MIX), seed=MACRO_SEED)
    profiler = cProfile.Profile()
    start = perf_counter_ns()
    profiler.enable()
    result = system.run(accesses)
    profiler.disable()
    wall_s = (perf_counter_ns() - start) / 1e9
    stats = pstats.Stats(profiler)
    buckets = {name: 0.0 for name in PHASE_BUCKETS}
    for (filename, _lineno, funcname), row in stats.stats.items():  # type: ignore[attr-defined]
        buckets[classify(filename, funcname)] += row[2]  # tt: self time
    profiled_s = sum(buckets.values())
    shares = {
        name: round(seconds / profiled_s, 4) if profiled_s else 0.0
        for name, seconds in buckets.items()
    }
    front_end = sum(buckets[name] for name in FRONT_END_BUCKETS)
    return {
        "policy": policy,
        "scale": scale,
        "backend": system.backend,
        "seed": MACRO_SEED,
        "accesses_per_core": accesses,
        "cycles": result.total_cycles,
        "wall_s": round(wall_s, 6),
        "profiled_s": round(profiled_s, 6),
        "buckets": {name: round(buckets[name], 6) for name in PHASE_BUCKETS},
        "shares": shares,
        "front_end_share": (
            round(front_end / profiled_s, 4) if profiled_s else 0.0
        ),
    }


def phase_table(entries: Iterable[Dict[str, object]]) -> List[str]:
    """Render phase breakdowns as aligned CLI/CI lines (one per entry)."""
    lines = []
    for entry in entries:
        shares: Dict[str, float] = entry["shares"]  # type: ignore[assignment]
        cells = " | ".join(
            f"{name} {shares.get(name, 0.0):6.1%}" for name in PHASE_BUCKETS
        )
        lines.append(
            f"{entry['policy']:>18s}/{entry['backend']:<9s} {cells} "
            f"| front-end {entry['front_end_share']:6.1%}"
        )
    return lines

