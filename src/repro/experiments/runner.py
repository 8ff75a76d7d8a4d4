"""Shared infrastructure for the per-figure experiments.

* :class:`Scale` — run sizes (``quick`` for tests/benchmarks, ``paper``
  for the full overnight reproduction).
* :class:`ExperimentResult` — id, title, rows (list of dicts) and notes,
  with an ASCII table renderer.
* :func:`run_policies` / :func:`run_configs` / :func:`alone_ipc` /
  :func:`alone_ipcs` — memoized simulation helpers (the paper measures
  IPC_alone with the demand-first policy, §5.2).

Figures that average random multiprogrammed mixes (9, 16, 17, 19-24,
26-32) run as campaigns through
:func:`repro.experiments.fig09.multicore_overview`.  The rest submit
:class:`~repro.runtime.SimJob` values directly, fig04 through the
runtime and the others through these helpers: the single-core sweeps
(fig01, fig06-08, tables 5 and 7), the one-mix case studies (figs
10-15) and Tables 8-10, which report per-core speedups, and fig25,
fig04 and the ablations, whose profile objects, per-size alone config
or nested config fields a :class:`~repro.campaign.CampaignSpec` cannot
express.  Through :func:`repro.api.submit_many`, independent jobs fan
out over ``--jobs``/``$REPRO_JOBS`` worker processes, and every result
is persisted to the on-disk cache so a rerun at the same scale and
seeds performs no new simulation work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import api
from repro.metrics import harmonic_speedup, unfairness, weighted_speedup
from repro.params import SystemConfig, baseline_config
from repro.runtime import SimJob, config_fingerprint
from repro.sim import SimResult

DEFAULT_POLICIES = (
    "no-pref",
    "demand-first",
    "demand-prefetch-equal",
    "aps",
    "padc",
)


@dataclass(frozen=True)
class Scale:
    """Run-size knobs for an experiment."""

    accesses: int = 5_000
    mixes_2core: int = 4
    mixes_4core: int = 4
    mixes_8core: int = 3
    single_core_benches: int = 15

    @staticmethod
    def from_env() -> "Scale":
        """Pick the scale from $REPRO_SCALE (tiny|quick|medium|paper).

        An unknown value is an error, not a silent fall-back to quick —
        an overnight "paper " run with a typo must die at startup, not
        after producing a full sweep at the wrong size.
        """
        name = os.environ.get("REPRO_SCALE", "quick")
        try:
            return SCALES[name]
        except KeyError:
            raise ValueError(
                f"unknown $REPRO_SCALE value {name!r}; "
                f"known scales: {', '.join(SCALES)}"
            ) from None


SCALES: Dict[str, Scale] = {
    "tiny": Scale(
        accesses=2_500,
        mixes_2core=2,
        mixes_4core=2,
        mixes_8core=1,
        single_core_benches=10,
    ),
    "quick": Scale(),
    "medium": Scale(
        accesses=12_000,
        mixes_2core=10,
        mixes_4core=8,
        mixes_8core=5,
        single_core_benches=15,
    ),
    "paper": Scale(
        accesses=40_000,
        mixes_2core=54,
        mixes_4core=32,
        mixes_8core=21,
        single_core_benches=55,
    ),
}


@dataclass
class ExperimentResult:
    """Rows reproducing one table/figure, plus provenance notes."""

    experiment_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    notes: str = ""

    def to_table(self) -> str:
        """Render the rows as a fixed-width ASCII table."""
        if not self.rows:
            return f"[{self.experiment_id}] {self.title}\n(no rows)"
        # Ordered union of all row keys: a key present only in later rows
        # (e.g. a metric some policy cannot produce) still gets a column.
        columns: List[str] = []
        for row in self.rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        widths = {
            col: max(
                len(str(col)),
                max(len(_fmt(row.get(col, ""))) for row in self.rows),
            )
            for col in columns
        }
        lines = [f"[{self.experiment_id}] {self.title}"]
        lines.append("  ".join(str(col).ljust(widths[col]) for col in columns))
        lines.append("  ".join("-" * widths[col] for col in columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(col, "")).ljust(widths[col]) for col in columns)
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def column(self, name: str) -> List:
        return [row[name] for row in self.rows]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


REGISTRY: Dict[str, Callable[[Scale], ExperimentResult]] = {}


def register(name: str):
    """Decorator registering an experiment generator under ``name``."""

    def wrap(function):
        REGISTRY[name] = function
        return function

    return wrap


def run_experiment(name: str, scale: Optional[Scale] = None) -> ExperimentResult:
    """Run one registered experiment by name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name](scale or Scale.from_env())


# -- memoized simulation helpers ---------------------------------------------

# In-process memo of alone IPCs, layered over the disk cache: repeated
# alone_ipc calls within one run skip even the cache-file read.
_ALONE_CACHE: Dict = {}


def alone_ipc(
    benchmark,
    accesses: int,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> float:
    """IPC of ``benchmark`` running alone (demand-first policy, §5.2).

    ``benchmark`` is a profile name or a BenchmarkProfile (profiles are
    frozen/hashable, so both memoize).
    """
    return alone_ipcs([benchmark], accesses, config=config, seed=seed)[0]


def alone_ipcs(
    benchmarks: Sequence,
    accesses: int,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> List[float]:
    """Alone IPCs for a whole mix, submitted as one parallel batch.

    Benchmark ``i`` runs with ``seed + i``, matching the seeds its
    multiprogrammed counterpart uses in :func:`speedup_metrics`.
    """
    base = config or baseline_config(1, policy="demand-first")
    if base.num_cores != 1:
        raise ValueError("alone_ipc requires a single-core config")
    keys = [
        (benchmark, accesses, seed + index, _config_key(config))
        for index, benchmark in enumerate(benchmarks)
    ]
    missing = [
        (index, benchmark)
        for index, benchmark in enumerate(benchmarks)
        if keys[index] not in _ALONE_CACHE
    ]
    if missing:
        jobs = [
            SimJob.make(base, [benchmark], accesses, seed=seed + index)
            for index, benchmark in missing
        ]
        for (index, _), result in zip(missing, api.submit_many(jobs)):
            _ALONE_CACHE[keys[index]] = result.cores[0].ipc
    return [_ALONE_CACHE[key] for key in keys]


def _config_key(config: Optional[SystemConfig]):
    """Memo key component for a config: a hash of *every* field.

    The old implementation enumerated a hand-picked tuple of fields and
    silently collided on anything outside it (dram.banks_per_channel,
    APD drop thresholds, ...); the full content hash cannot.
    """
    if config is None:
        return None
    return config_fingerprint(config)


def run_policies(
    benchmarks: Sequence[str],
    accesses: int,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 0,
    **sim_kwargs,
) -> Dict[str, SimResult]:
    """Run one workload under several baseline policies and return the results.

    The per-policy runs are independent, so they form one batch for the
    runtime: cache hits load from disk, misses fan out over ``--jobs``
    worker processes.
    """
    configs = [baseline_config(len(benchmarks), policy=policy) for policy in policies]
    results = run_configs(configs, benchmarks, accesses, seed=seed, **sim_kwargs)
    return dict(zip(policies, results))


def run_configs(
    configs: Sequence[SystemConfig],
    benchmarks: Sequence[str],
    accesses: int,
    seed: int = 0,
    **sim_kwargs,
) -> List[SimResult]:
    """Run one workload under several explicit configs as one batch."""
    return api.submit_many(
        [(config, benchmarks) for config in configs],
        accesses,
        seed=seed,
        **sim_kwargs,
    )


def speedup_metrics(
    result: SimResult,
    benchmarks: Sequence[str],
    accesses: int,
    alone_config: Optional[SystemConfig] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """WS/HS/UF of a multiprogrammed run against demand-first alone runs."""
    alone = alone_ipcs(benchmarks, accesses, config=alone_config, seed=seed)
    together = result.ipcs()
    return {
        "ws": weighted_speedup(together, alone),
        "hs": harmonic_speedup(together, alone),
        "uf": unfairness(together, alone),
    }


def average(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
