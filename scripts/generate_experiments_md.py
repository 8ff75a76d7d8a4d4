#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs every registered experiment at the current REPRO_SCALE and writes
the measured tables next to the paper's expectations.  The preamble and
per-experiment expectation text are maintained here; the numbers are
always regenerated.

Usage: [REPRO_SCALE=quick|medium|paper] python scripts/generate_experiments_md.py
"""

import os
import sys
import time

from repro.campaign import submit
from repro.campaign.presets import paper_campaign
from repro.campaign.report import status_summary
from repro.experiments import REGISTRY, Scale, run_experiment

# Paper expectation per experiment id (shown verbatim in EXPERIMENTS.md).
PAPER_EXPECTATIONS = {
    "fig01": "Unfriendly five (galgel, ammp, xalancbmk, art, milc) prefer "
             "demand-first; friendly five (swim, libquantum, bwaves, "
             "leslie3d, lbm) prefer demand-prefetch-equal. Paper extremes: "
             "libquantum 2.69x (equal) vs 1.60x (demand-first); milc 0.64x "
             "(equal) vs 1.10x (demand-first).",
    "fig02": "Exact: useful prefetches 725 (demand-first) vs 575 (equal); "
             "useless 325 vs 525.",
    "fig04a": "56% of milc's prefetches take >1600 cycles; 86% of those are "
              "useless; useless mean 2238 vs useful 1486 cycles.",
    "fig04b": "Accuracy shows strong phases: near 0% for a long stretch, "
              "high elsewhere.",
    "fig06": "gmean over the suite: demand-pref-equal +0.5% over "
             "demand-first; APS +3.6%; PADC +4.3%.",
    "fig07": "PADC cuts SPL ~5% vs demand-first on average.",
    "fig08": "PADC cuts total traffic ~10.4%, almost all from useless "
             "prefetches.",
    "table05": "Per-benchmark IPC/MPKI/RBH/ACC/COV; e.g. libquantum ACC "
               "~100% COV ~80%; ammp ACC 6%; art ACC 36%.",
    "table07": "RBHU: equal highest, APS within ~2%, demand-first clearly "
               "lower (amean 0.68 vs 0.63).",
    "fig09": "2-core: PADC +8.4% WS, +6.4% HS vs demand-first; -10% traffic.",
    "fig10_11": "Case I (all friendly): equal +28% WS over demand-first; "
                "PADC +31.3%; traffic savings small (0.9%).",
    "fig12_13": "Case II (all unfriendly): equal collapses; PADC +17.7% WS "
                "over demand-first, -9.1% traffic, within 2% of no-pref.",
    "fig14_15": "Case III (mixed): APD drops 67%/57% of omnetpp/galgel's "
                "useless prefetches; -14.5% traffic vs demand-first.",
    "table08": "Without urgency UF blows up to 4.55; with urgency 1.84. "
               "Urgency: +13.7% UF, +8.8% HS, +3.8% WS on average.",
    "table09": "4x libquantum: equal/APS/PADC all reach WS 3.14 vs 2.66 "
               "demand-first, evenly across instances.",
    "table10": "4x milc: PADC WS 2.33 vs 1.99 demand-first vs 1.45 equal; "
               "UF stays ~1.0.",
    "fig16": "4-core average: PADC +8.2% WS, +4.1% HS vs demand-first; "
             "-10.1% traffic vs best rigid (demand-first).",
    "fig17": "8-core: rigid policies make prefetching a net loss; PADC "
             "+9.9% WS, -9.4% traffic.",
    "fig19": "4-core ranking: WS -0.4%, HS +0.9%, UF 1.63 -> 1.53.",
    "fig20": "8-core ranking: WS +2.0%, HS +5.4%, UF -10.4%.",
    "fig21": "Dual controller 4-core: PADC +5.9% WS, -12.9% traffic vs "
             "demand-first.",
    "fig22": "Dual controller 8-core: PADC +5.5% WS, -13.2% traffic.",
    "fig23": "PADC best at every row-buffer size; demand-first degrades "
             "below no-pref beyond 64KB rows.",
    "fig24": "Closed-row: PADC +7.6% WS vs closed-row demand-first; "
             "open-row PADC ~1.1% better than closed-row PADC.",
    "fig25": "PADC best at every cache size; equal overtakes demand-first "
             "beyond 1MB/core; APD's margin shrinks with cache size.",
    "fig26": "Shared L2 4-core: PADC +8.0% WS; equal -2.4% and +22.3% "
             "traffic vs demand-first.",
    "fig27": "Shared L2 8-core: PADC +7.6% WS; equal -10.4% and +46.3% "
             "traffic.",
    "fig28": "PADC improves WS and traffic with stride, C/DC and Markov; "
             "Markov gains least (+2.2% WS, -10.3% traffic).",
    "fig29": "DDPF/FDP with demand-first: +1.5%/+1.7% WS; APD +2.6%. "
             "Composed with APS: +6.3%/+7.4%; PADC best overall (+8.2%).",
    "fig30": "DDPF/FDP with equal: only +2.3%/+2.7% (they kill useful "
             "prefetches); PADC +8.2%.",
    "fig31": "Permutation helps everyone (+3.8% baseline); PADC adds +5.4% "
             "WS, -11.3% traffic on top.",
    "fig32": "Runahead baseline +3.7% WS; PADC still adds +6.7% WS, -10.2% "
             "traffic.",
    "table01_02": "Exact: 34,720 bits (~4.25KB, 0.2% of L2) for 4 cores; "
                  "1,824 bits if caches already have P bits.",
    "ablation_drop_threshold": "(extension, not in paper) Table 6's dynamic "
        "thresholds should approach fixed-100's junk removal without its "
        "useful-prefetch casualties.",
    "ablation_promotion": "(extension) the paper's 85% threshold should sit "
        "near the sweep's optimum.",
    "ablation_interval": "(extension) shorter sampling catches milc's "
        "phases and drops more junk.",
    "ablation_aggressiveness": "(extension) PADC tolerates over-aggressive "
        "prefetching better than rigid demand-first.",
}

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Generated by `scripts/generate_experiments_md.py` at scale
`{scale_name}` ({scale}).  Regenerate with:

```bash
REPRO_SCALE={scale_name} python scripts/generate_experiments_md.py
```

**How to read this file.**  Our substrate is a first-order simulator over
synthetic SPEC-like traces (see DESIGN.md §2), so the comparison target is
the *shape* of each result — which policy wins, where the crossovers fall,
what APD drops — not absolute IPC/WS values.  Two artifacts reproduce the
paper's numbers exactly (Figure 2 and Tables 1–2) because they are
closed-form.

**Known deviation (multicore magnitudes).**  On random multiprogrammed
4/8-core mixes, our PADC lands within a few percent of demand-first
instead of ~8–10% above it.  The per-application adaptivity works (APS
tracks the best rigid policy per benchmark single-core; APD removes most
useless prefetches and cuts traffic), but the paper's multicore headline
additionally relies on equal-treatment of accurate prefetches being a net
*throughput* win under contention.  In our model three second-order
effects mute that win: (1) the first-order ROB model gives cores enough
memory-level parallelism to tolerate the demand-queueing that
equal-treatment introduces, so coverage gains buy less; (2) with
bank-level parallelism, row-conflicts burn bank-parallel slack rather
than bus throughput; and (3) our closed-loop cores throttle their own
request generation when stalled, draining the queues the paper's
saturated system kept full.  We verified the underlying mechanisms the
paper describes are present (§6.1 coverage loss under demand-first:
measured COV 0.37 vs 0.72 in case study I; request-buffer overflow under
demand-first: thousands of blocked demands) — they simply convert to less
end-to-end WS here.  All of this is measured below.

**Other recorded deviations.**
* *fig24 (closed-row)*: our closed-row policy **outperforms** open-row on
  conflict-heavy multiprogrammed mixes, inverting the paper's slight
  open-row edge.  Cause: the in-order data-bus grant (chosen to match the
  paper's Figure 2 service model) wastes idle bus time behind long
  precharge+activate sequences, which the closed-row policy shortens.
* *fig25 (cache sweep)*: weighted speedup is nearly flat across cache
  sizes because IS normalizes each run against an alone run with the
  *same* cache — capacity effects cancel by construction.  The underlying
  capacity sensitivity exists (the cache-walker workload's hit count
  rises ~30% from 256KB to 1MB single-core) and the equal-vs-demand-first
  gap narrows with cache size, as the paper predicts.
* *table08 (urgency)*: in our case-III mix the prefetch-*friendly* cores
  are the starved ones (equal-treatment costs them under contention), so
  boosting the unfriendly cores' demands does not improve fairness the
  way it does in the paper; the mechanism itself is implemented and unit
  tested, and the bench bounds its regression instead.

"""


def main() -> int:
    scale_name = os.environ.get("REPRO_SCALE", "quick")
    scale = Scale.from_env()  # dies loudly on a typo'd scale name
    # Drive the headline multiprogrammed sweep through the campaign layer
    # first: every job lands in a persistent ledger (resumable if this
    # script is interrupted), and the per-figure generators below become
    # thin views served from the warm result store.
    spec = paper_campaign(scale)
    print(f"campaign: {spec.name} at scale {scale_name}")
    start = time.time()
    run = submit(spec)
    print(status_summary(run.campaign, run.states))
    print(f"campaign complete in {time.time() - start:.1f}s")
    sections = [PREAMBLE.format(scale_name=scale_name, scale=scale)]
    for name in sorted(REGISTRY):
        start = time.time()
        result = run_experiment(name, scale)
        elapsed = time.time() - start
        expectation = PAPER_EXPECTATIONS.get(name, "(no recorded expectation)")
        sections.append(f"## {result.experiment_id}: {result.title}\n")
        sections.append(f"**Paper:** {expectation}\n")
        sections.append("**Measured:**\n")
        sections.append("```")
        sections.append(result.to_table())
        sections.append("```")
        sections.append(f"_(generated in {elapsed:.1f}s)_\n")
        print(f"{name}: {elapsed:.1f}s")
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write("\n".join(sections))
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
