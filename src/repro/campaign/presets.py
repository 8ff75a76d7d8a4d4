"""Predefined campaigns runnable by name from the CLI.

* ``smoke`` — a deliberately tiny two-policy campaign (two 2-core mixes,
  short runs) for CI and local sanity checks: it finishes in seconds and
  still exercises the full grid/alone/ledger/resume machinery.
* ``paper`` — the headline multiprogrammed evaluation: the 2/4/8-core
  mix grids of Figures 9, 16 and 17 under all five scheduling policies,
  with the single-core alone runs the speedup metrics need.  Workload
  seeds restart at 0 within each core-count group, so every job is
  content-identical to the one the corresponding figure script submits —
  running the campaign warms the figures and vice versa.

Both presets size themselves from ``$REPRO_SCALE`` unless given an
explicit :class:`~repro.experiments.runner.Scale`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.campaign.spec import CampaignSpec, SpecError, Workload
from repro.experiments.runner import DEFAULT_POLICIES, Scale
from repro.workloads import workload_mixes


def smoke_campaign(scale: Optional[Scale] = None) -> CampaignSpec:
    """Tiny 2-policy campaign: 2 workloads × 2 policies + 4 alone runs."""
    return CampaignSpec.build(
        name="smoke",
        workloads=[["swim", "milc"], ["art", "libquantum"]],
        policies=["demand-first", "padc"],
        accesses=600,
    )


def paper_campaign(scale: Optional[Scale] = None) -> CampaignSpec:
    """The headline 2/4/8-core sweep behind Figures 9, 16 and 17."""
    scale = scale or Scale.from_env()
    workloads = []
    groups = (
        (2, scale.mixes_2core),
        (4, scale.mixes_4core),
        (8, scale.mixes_8core),
    )
    for num_cores, num_mixes in groups:
        for index, mix in enumerate(workload_mixes(num_cores, num_mixes, seed=100)):
            workloads.append(
                Workload.make([profile.name for profile in mix], seed=index)
            )
    return CampaignSpec.build(
        name="paper",
        workloads=workloads,
        policies=list(DEFAULT_POLICIES),
        accesses=scale.accesses,
    )


PRESETS: Dict[str, Callable[[Optional[Scale]], CampaignSpec]] = {
    "smoke": smoke_campaign,
    "paper": paper_campaign,
}


def build(name: str, scale: Optional[Scale] = None) -> CampaignSpec:
    """Build a preset campaign by name, or raise with the known names."""
    if name not in PRESETS:
        raise SpecError(
            f"unknown campaign preset {name!r}; known presets: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name](scale)
