"""Figure 25: sensitivity to last-level cache size (512KB-8MB/core, §6.9).

Paper: PADC wins at every cache size; demand-prefetch-equal starts
beating demand-first beyond 1MB per core (larger caches tolerate
pollution and raise prefetch accuracy), and APD's contribution shrinks.
"""

from __future__ import annotations

from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentResult,
    Scale,
    average,
    register,
    run_configs,
    speedup_metrics,
)
from repro.params import baseline_config
from repro.workloads import BenchmarkProfile, get_profile

CACHE_KB_PER_CORE = (256, 512, 1024, 2048, 4096)


def _cache_walker(name: str, hot_lines: int) -> BenchmarkProfile:
    """A workload whose hot set cycles near the small-cache capacity.

    Its re-reference interval sits at the eviction horizon of the small
    cache points, so growing the L2 converts its misses into hits — the
    property Figure 25's sweep needs the workload population to have.
    """
    return BenchmarkProfile(
        name=name,
        pf_class=2,
        apki=30.0,
        stream_fraction=0.35,
        run_length=24,
        num_streams=4,
        ws_lines=200_000,
        hot_lines=hot_lines,
        hot_fraction=0.85,
    )


# Two mixes pairing cache-sensitive walkers with calibrated benchmarks.
def _mixes():
    return (
        [_cache_walker("walker3k", 3_500), get_profile("galgel"),
         get_profile("libquantum"), get_profile("gcc_06")],
        [_cache_walker("walker6k", 5_000), get_profile("omnetpp"),
         get_profile("leslie3d"), get_profile("dealII")],
    )


@register("fig25")
def fig25(scale: Scale) -> ExperimentResult:
    mixes = _mixes()
    result = ExperimentResult(
        "fig25",
        "Weighted speedup vs L2 cache size per core (4-core)",
        notes="Paper Fig.25: PADC consistently best across cache sizes.",
    )
    for cache_kb in CACHE_KB_PER_CORE:
        alone_config = baseline_config(
            1, policy="demand-first", cache_kb_per_core=cache_kb
        )
        configs = [
            baseline_config(4, policy=policy, cache_kb_per_core=cache_kb)
            for policy in DEFAULT_POLICIES
        ]
        ws = {policy: [] for policy in DEFAULT_POLICIES}
        accesses = scale.accesses * 2  # long enough to exercise capacity
        for index, mix in enumerate(mixes):
            runs = run_configs(configs, list(mix), accesses, seed=index)
            for policy, run in zip(DEFAULT_POLICIES, runs):
                ws[policy].append(
                    speedup_metrics(
                        run,
                        list(mix),
                        accesses,
                        alone_config=alone_config,
                        seed=index,
                    )["ws"]
                )
        row = {"cache_kb_per_core": cache_kb}
        for policy in DEFAULT_POLICIES:
            row[policy] = average(ws[policy])
        result.rows.append(row)
    return result
