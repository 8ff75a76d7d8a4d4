"""Figure 32: PADC on a runahead-execution processor (§6.14).

Runahead issues future memory accesses as demand requests while the core
is stalled (with the only-train prefetcher update policy).  Paper:
runahead improves the baseline ~3.7%, and PADC still adds +6.7% WS and
-10.2% traffic on top.
"""

from __future__ import annotations

from repro.campaign import PolicyVariant
from repro.experiments.fig09 import variant_overview
from repro.experiments.runner import ExperimentResult, Scale, register

VARIANTS = tuple(
    PolicyVariant.make(
        f"{policy}-ra" if runahead else policy, policy, runahead=runahead
    )
    for policy in ("no-pref", "demand-first", "aps", "padc")
    for runahead in (False, True)
)


@register("fig32")
def fig32(scale: Scale) -> ExperimentResult:
    result = variant_overview(
        "fig32",
        "PADC on a runahead execution processor (4-core)",
        VARIANTS,
        scale,
    )
    result.notes = "Paper Fig.32: PADC remains effective with runahead enabled."
    return result
