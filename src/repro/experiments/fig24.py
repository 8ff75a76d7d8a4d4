"""Figure 24: PADC under the closed-row buffer policy (§6.8).

The closed-row policy precharges a bank once no queued request targets
the open row.  Paper: PADC still improves WS ~7.6% over demand-first with
closed-row, though open-row PADC remains slightly better overall.
"""

from __future__ import annotations

from repro.campaign import PolicyVariant
from repro.experiments.fig09 import multicore_overview
from repro.experiments.runner import ExperimentResult, Scale, register

VARIANTS = tuple(
    PolicyVariant.make(
        f"{policy}-{'open' if open_row else 'closed'}", policy, open_row=open_row
    )
    for policy, open_row in (
        ("demand-first", True),
        ("demand-first", False),
        ("demand-prefetch-equal", False),
        ("aps", False),
        ("padc", False),
        ("padc", True),
    )
)


@register("fig24")
def fig24(scale: Scale) -> ExperimentResult:
    result = multicore_overview(
        "fig24",
        "Open-row vs closed-row policies (4-core)",
        num_cores=4,
        num_mixes=max(2, scale.mixes_4core // 2),
        scale=scale,
        policies=VARIANTS,
    )
    result.notes = "Paper Fig.24: PADC effective under both row-buffer policies."
    return result
