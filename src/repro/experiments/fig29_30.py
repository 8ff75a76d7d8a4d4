"""Figures 29-30: comparison and combination with DDPF and FDP (§6.12).

Fig.29 pairs the filters with demand-first and with APS; Fig.30 pairs
them with demand-prefetch-equal.  Paper: the filters cut more traffic
than APD but also kill useful prefetches, so APD (and full PADC) wins on
performance while the filters win on raw bandwidth; APS composes with
either filter.
"""

from __future__ import annotations

from repro.campaign import PolicyVariant
from repro.experiments.fig09 import variant_overview
from repro.experiments.runner import ExperimentResult, Scale, register

FIG29_VARIANTS = (
    PolicyVariant.make("demand-first"),
    PolicyVariant.make("demand-first-ddpf", "demand-first", filter_kind="ddpf"),
    PolicyVariant.make("demand-first-fdp", "demand-first", filter_kind="fdp"),
    PolicyVariant.make("demand-first-apd"),
    PolicyVariant.make("aps-ddpf", "aps", filter_kind="ddpf"),
    PolicyVariant.make("aps-fdp", "aps", filter_kind="fdp"),
    PolicyVariant.make("aps-apd (PADC)", "padc"),
)

FIG30_VARIANTS = (
    PolicyVariant.make("demand-first"),
    PolicyVariant.make("demand-pref-equal", "demand-prefetch-equal"),
    PolicyVariant.make(
        "demand-pref-equal-ddpf", "demand-prefetch-equal", filter_kind="ddpf"
    ),
    PolicyVariant.make(
        "demand-pref-equal-fdp", "demand-prefetch-equal", filter_kind="fdp"
    ),
    PolicyVariant.make("aps"),
    PolicyVariant.make("aps-apd (PADC)", "padc"),
)


@register("fig29")
def fig29(scale: Scale) -> ExperimentResult:
    return variant_overview(
        "fig29",
        "DDPF / FDP / APD with demand-first and APS (4-core)",
        FIG29_VARIANTS,
        scale,
    )


@register("fig30")
def fig30(scale: Scale) -> ExperimentResult:
    return variant_overview(
        "fig30",
        "DDPF / FDP with demand-prefetch-equal vs PADC (4-core)",
        FIG30_VARIANTS,
        scale,
    )
