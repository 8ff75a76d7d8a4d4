"""Figure 28: PADC under stride, C/DC and Markov prefetchers (§6.11).

Paper: PADC improves performance and bandwidth-efficiency with all three;
the Markov prefetcher benefits least (low accuracy, mostly APD-driven
traffic savings).
"""

from __future__ import annotations

from itertools import product

from repro.campaign import PolicyVariant
from repro.experiments.fig09 import multicore_overview
from repro.experiments.runner import ExperimentResult, Scale, register

PREFETCHERS = ("stride", "cdc", "markov")
POLICIES = ("no-pref", "demand-first", "demand-prefetch-equal", "padc")


@register("fig28")
def fig28(scale: Scale) -> ExperimentResult:
    # One campaign over every (prefetcher, policy) point, so the mixes'
    # alone runs are shared by all three prefetchers.
    points = list(product(PREFETCHERS, POLICIES))
    overview = multicore_overview(
        "fig28",
        "",
        num_cores=4,
        num_mixes=max(2, scale.mixes_4core // 2),
        scale=scale,
        policies=[
            PolicyVariant.make(
                f"{policy}@{prefetcher}", policy, prefetcher_kind=prefetcher
            )
            for prefetcher, policy in points
        ],
    )
    result = ExperimentResult(
        "fig28",
        "PADC with stride, C/DC and Markov prefetchers (4-core)",
        notes="Paper Fig.28: PADC helps all three; Markov benefits least.",
    )
    for (prefetcher, policy), row in zip(points, overview.rows):
        result.rows.append(
            {
                "prefetcher": prefetcher,
                "policy": policy,
                "ws": row["ws"],
                "traffic": row["traffic"],
            }
        )
    return result
