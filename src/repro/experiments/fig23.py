"""Figure 23: sensitivity to DRAM row-buffer size (2KB-128KB, §6.7).

Paper: PADC wins at every size; with very large row buffers the rigid
demand-first policy degrades below no-prefetching because breaking row
locality becomes increasingly expensive.
"""

from __future__ import annotations

from repro.campaign import PolicyVariant
from repro.experiments.fig09 import multicore_overview
from repro.experiments.runner import DEFAULT_POLICIES, ExperimentResult, Scale, register

ROW_BUFFER_KB = (2, 4, 16, 64, 128)


@register("fig23")
def fig23(scale: Scale) -> ExperimentResult:
    # One campaign over every (size, policy) point, so the mixes' alone
    # runs are shared by all five sizes.
    overview = multicore_overview(
        "fig23",
        "",
        num_cores=4,
        num_mixes=max(2, scale.mixes_4core // 2),
        scale=scale,
        policies=[
            PolicyVariant.make(f"{policy}@{row_kb}KB", policy, row_buffer_kb=row_kb)
            for row_kb in ROW_BUFFER_KB
            for policy in DEFAULT_POLICIES
        ],
    )
    ws = {entry["policy"]: entry["ws"] for entry in overview.rows}
    result = ExperimentResult(
        "fig23",
        "Weighted speedup vs DRAM row-buffer size (4-core)",
        notes="Paper Fig.23: PADC consistently best across 2KB-128KB rows.",
    )
    for row_kb in ROW_BUFFER_KB:
        row = {"row_buffer_kb": row_kb}
        row.update((policy, ws[f"{policy}@{row_kb}KB"]) for policy in DEFAULT_POLICIES)
        result.rows.append(row)
    return result
