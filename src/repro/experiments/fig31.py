"""Figure 31: permutation-based page interleaving (§6.13).

The Zhang et al. bank-remapping scheme spreads row conflicts across
banks.  Paper: the remapping helps every policy (+3.8% baseline), and
PADC remains complementary (+5.4% WS over demand-first-with-permutation,
-11.3% traffic).
"""

from __future__ import annotations

from repro.campaign import PolicyVariant
from repro.experiments.fig09 import variant_overview
from repro.experiments.runner import ExperimentResult, Scale, register

VARIANTS = tuple(
    PolicyVariant.make(
        f"{policy}-perm" if permutation else policy, policy, permutation=permutation
    )
    for policy in ("no-pref", "demand-first", "aps", "padc")
    for permutation in (False, True)
)


@register("fig31")
def fig31(scale: Scale) -> ExperimentResult:
    result = variant_overview(
        "fig31",
        "Permutation-based page interleaving (4-core)",
        VARIANTS,
        scale,
    )
    result.notes = "Paper Fig.31: PADC complements the remapping scheme."
    return result
