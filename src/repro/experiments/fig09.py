"""Figure 9: overall performance on the 2-core system.

Average WS/HS and bus traffic over random 2-benchmark mixes (the paper
averages 54 mixes; the quick scale uses fewer).

:func:`multicore_overview` — shared by every figure that averages
random multiprogrammed mixes (9, 16, 17, 19-24, 26-32) — declares its
whole grid as a :class:`~repro.campaign.CampaignSpec` and submits it
through the campaign layer: every run is recorded in a persistent
ledger, a crashed job no longer kills the sweep (resume re-runs only
it), and the figure itself is just a view over the campaign's results.
A sensitivity figure declares every point as one :class:`PolicyVariant`
(a filter, permutation or runahead flag, or a swept row-buffer size,
prefetcher or row policy; :func:`variant_overview`) in one campaign, so
its points share the mixes' alone runs, then reshapes the rows.  Job
content hashes match the direct ``run_policies``/``alone_ipcs`` path, so
both share cache entries.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.campaign import CampaignSpec, PolicyVariant, Workload, submit
from repro.experiments.runner import (
    DEFAULT_POLICIES,
    ExperimentResult,
    Scale,
    average,
    register,
)
from repro.metrics import harmonic_speedup, unfairness, weighted_speedup
from repro.workloads import workload_mixes


def multicore_overview(
    experiment_id: str,
    title: str,
    num_cores: int,
    num_mixes: int,
    scale: Scale,
    policies: Sequence = DEFAULT_POLICIES,
    seed: int = 100,
    overrides: Optional[Mapping[str, object]] = None,
) -> ExperimentResult:
    """Shared machinery for the 2/4/8-core overview figures.

    ``policies`` entries are policy names or :class:`PolicyVariant`
    values (for relabelled/overridden points like "padc-rank");
    ``overrides`` are ``baseline_config`` keyword arguments applied to
    every grid cell (e.g. ``{"num_channels": 2}`` for the
    dual-controller figures).  Alone runs always use the paper's plain
    single-core demand-first baseline (§5.2), matching ``alone_ipcs``.
    """
    mixes = workload_mixes(num_cores, num_mixes, seed=seed)
    variants = [
        entry if isinstance(entry, PolicyVariant) else PolicyVariant.make(entry)
        for entry in policies
    ]
    spec = CampaignSpec.build(
        name=experiment_id,
        workloads=[
            Workload.make([profile.name for profile in mix], seed=index)
            for index, mix in enumerate(mixes)
        ],
        policies=variants,
        accesses=scale.accesses,
        variants={"base": dict(overrides or {})},
    )
    run = submit(spec)
    labels = [variant.label for variant in variants]
    metrics = {label: {"ws": [], "hs": [], "uf": [], "traffic": []} for label in labels}
    for index in range(len(mixes)):
        alone = run.alone_ipcs(index)
        for label in labels:
            result = run.grid(index, label)
            together = result.ipcs()
            metrics[label]["ws"].append(weighted_speedup(together, alone))
            metrics[label]["hs"].append(harmonic_speedup(together, alone))
            metrics[label]["uf"].append(unfairness(together, alone))
            metrics[label]["traffic"].append(result.total_traffic)
    result = ExperimentResult(experiment_id, title)
    for label in labels:
        result.rows.append(
            {
                "policy": label,
                "ws": average(metrics[label]["ws"]),
                "hs": average(metrics[label]["hs"]),
                "uf": average(metrics[label]["uf"]),
                "traffic": average(metrics[label]["traffic"]),
            }
        )
    result.notes = f"averaged over {len(mixes)} random {num_cores}-core mixes"
    return result


def variant_overview(
    experiment_id: str, title: str, variants: Sequence, scale: Scale
) -> ExperimentResult:
    """WS and traffic per policy variant on the sensitivity figures' 4-core
    grid (half the scale's 4-core mixes, at least two), one row each."""
    overview = multicore_overview(
        experiment_id,
        title,
        num_cores=4,
        num_mixes=max(2, scale.mixes_4core // 2),
        scale=scale,
        policies=variants,
    )
    rows = [
        {"variant": row["policy"], "ws": row["ws"], "traffic": row["traffic"]}
        for row in overview.rows
    ]
    return ExperimentResult(experiment_id, title, rows=rows)


@register("fig09")
def fig09(scale: Scale) -> ExperimentResult:
    return multicore_overview(
        "fig09",
        "2-core overall performance and bus traffic",
        num_cores=2,
        num_mixes=scale.mixes_2core,
        scale=scale,
    )
