"""Differential backend fuzzer (DESIGN.md §11).

Both backends run the one simulation loop (``repro.sim.loop``) and
differ only in the scheduling round: the cached-key round of the
``event`` backend must make exactly the choices of the naive
``reference`` round.  This module checks that.  It draws random simulation
cases — random synthetic workload profiles × scheduling policy ×
system-config knobs × seed — from a seeded RNG, runs every backend on
each case in checked mode (the invariant checker of
:mod:`repro.validate.checker` audits every interval and the end of the
run), and asserts byte-identical ``SimResult.to_dict()`` outputs.

A divergence is *shrunk* before it is reported: the shrinker greedily
applies reductions (fewer accesses, fewer cores, default knobs, simpler
policy/prefetcher) while the case still diverges, so the repro handed to
a human is the smallest configuration this shrinker can reach, not the
original 4-core kitchen-sink draw.  A backend crash counts as a
divergence — a case that makes one backend raise while another finishes
is exactly as broken as a mismatch — and so does an
``InvariantViolation``, which the checker raises as a crash.

Every case is fully determined by its integer ``case_seed``, so a failure
report is reproducible with ``python -m repro.fuzz --case <seed>``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.params import BACKENDS, SystemConfig, baseline_config
from repro.sim.system import System
from repro.workloads.profiles import BenchmarkProfile

# Every spelling in the policy registry: the point of the fuzzer is to
# exercise scheduler × prefetcher interleavings the golden matrix does
# not enumerate.
POLICY_POOL: Tuple[str, ...] = (
    "fcfs",
    "frfcfs",
    "parbs",
    "no-pref",
    "demand-first",
    "demand-first-apd",
    "demand-prefetch-equal",
    "prefetch-first",
    "aps",
    "aps-rank",
    "padc",
    "padc-no-urgency",
    "padc-rank",
)

# Stream is weighted: it is the paper's prefetcher and the one whose
# trigger batches load the request buffer hardest, so most draws should
# go through it.
PREFETCHER_POOL: Tuple[str, ...] = (
    "stream",
    "stream",
    "stream",
    "stride",
    "cdc",
    "markov",
    "none",
)
FILTER_POOL: Tuple[Optional[str], ...] = (None, None, "fdp", "ddpf")

# Small access counts keep a 200-case sweep around a minute; the risky
# interleavings (retry vs fill vs tick ordering, drops, promotions) all
# happen within the first few hundred requests.
ACCESS_POOL: Tuple[int, ...] = (150, 300, 600)


@dataclass(frozen=True)
class FuzzCase:
    """One fully-determined differential case (profiles included)."""

    case_seed: int
    policy: str
    prefetcher_kind: str
    filter_kind: Optional[str]
    num_cores: int
    num_channels: int
    shared_cache: bool
    permutation: bool
    runahead: bool
    refresh_enabled: bool
    refresh_interval: int
    accesses_per_core: int
    sim_seed: int
    profiles: Tuple[BenchmarkProfile, ...]

    def describe(self) -> str:
        knobs = [
            f"policy={self.policy}",
            f"prefetcher={self.prefetcher_kind}",
            f"filter={self.filter_kind}",
            f"cores={self.num_cores}",
            f"channels={self.num_channels}",
            f"accesses={self.accesses_per_core}",
            f"sim_seed={self.sim_seed}",
        ]
        if self.shared_cache:
            knobs.append("shared_cache")
        if self.permutation:
            knobs.append("permutation")
        if self.runahead:
            knobs.append("runahead")
        if self.refresh_enabled:
            knobs.append(f"refresh@{self.refresh_interval}")
        return f"case_seed={self.case_seed} [{' '.join(knobs)}]"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def random_profile(rng: random.Random, index: int) -> BenchmarkProfile:
    """Draw one synthetic workload profile honoring the dataclass bounds."""
    return BenchmarkProfile(
        name=f"fuzz{index}",
        pf_class=rng.randrange(3),
        apki=round(rng.choice([0.3, 1.0, 4.0, 12.0, 30.0]) * (0.5 + rng.random()), 3),
        stream_fraction=round(rng.random(), 3),
        run_length=rng.choice([2, 4, 16, 64, 256, 2048]),
        num_streams=rng.randrange(1, 9),
        ws_lines=1 << rng.randrange(10, 23),
        reuse_fraction=round(rng.random() * 0.7, 3),
        phase_period=rng.choice([0, 0, 500, 2000]),
        bad_phase_stream_fraction=round(rng.random(), 3),
        bad_phase_run_length=rng.choice([2, 4, 8]),
        bad_phase_ratio=rng.randrange(1, 4),
        hot_lines=rng.choice([0, 0, 256, 4096]),
        hot_fraction=round(rng.random() * 0.5, 3),
        write_fraction=rng.choice([0.0, 0.0, 0.1, 0.3]),
    )


def random_case(case_seed: int) -> FuzzCase:
    """Derive one case deterministically from its seed."""
    # String seeding hashes with sha512 — stable across processes and
    # Python versions (unlike hash()-based tuple seeding, which random
    # rejects anyway).
    rng = random.Random(f"repro-fuzz-{case_seed}")
    num_cores = rng.choice([1, 2, 2, 4])
    return FuzzCase(
        case_seed=case_seed,
        policy=rng.choice(POLICY_POOL),
        prefetcher_kind=rng.choice(PREFETCHER_POOL),
        filter_kind=rng.choice(FILTER_POOL),
        num_cores=num_cores,
        num_channels=rng.choice([1, 1, 2]),
        shared_cache=rng.random() < 0.2,
        permutation=rng.random() < 0.25,
        runahead=rng.random() < 0.2,
        refresh_enabled=rng.random() < 0.35,
        refresh_interval=rng.choice([5_000, 31_200]),
        accesses_per_core=rng.choice(ACCESS_POOL),
        sim_seed=rng.randrange(1 << 16),
        profiles=tuple(random_profile(rng, index) for index in range(num_cores)),
    )


def build_config(case: FuzzCase) -> SystemConfig:
    """Materialize the case's :class:`SystemConfig`."""
    config = baseline_config(
        num_cores=case.num_cores,
        policy=case.policy,
        prefetcher_kind=case.prefetcher_kind,
        filter_kind=case.filter_kind,
        shared_cache=case.shared_cache,
        num_channels=case.num_channels,
        permutation=case.permutation,
        runahead=case.runahead,
    )
    if case.refresh_enabled:
        config = dataclasses.replace(
            config,
            dram=dataclasses.replace(
                config.dram,
                refresh_enabled=True,
                refresh_interval=case.refresh_interval,
            ),
        )
    return config


def run_case(
    case: FuzzCase, backends: Sequence[str] = BACKENDS
) -> List[str]:
    """Run every backend on the case; return the backends that diverged.

    Divergence is measured against the first backend in ``backends``
    (byte-inequality of ``SimResult.to_dict()``).  Every run is checked,
    so a broken invariant raises ``InvariantViolation``.  Exceptions
    propagate — callers that want crash-as-divergence semantics (the
    shrinker, the sweep) wrap this call.
    """
    golden = None
    diverged: List[str] = []
    for backend in backends:
        system = System(
            build_config(case),
            list(case.profiles),
            seed=case.sim_seed,
            backend=backend,
            check=True,
        )
        output = system.run(case.accesses_per_core).to_dict()
        if golden is None:
            golden = (backend, output)
        elif output != golden[1]:
            diverged.append(backend)
    return diverged


def _case_fails(case: FuzzCase, backends: Sequence[str]) -> bool:
    try:
        return bool(run_case(case, backends))
    except Exception:
        return True  # a crashing backend is a divergence too


def _reductions(case: FuzzCase) -> Iterator[FuzzCase]:
    """Candidate simplifications, most aggressive first."""
    if case.accesses_per_core > 50:
        yield dataclasses.replace(
            case, accesses_per_core=max(50, case.accesses_per_core // 2)
        )
    if case.num_cores > 1:
        half = max(1, case.num_cores // 2)
        yield dataclasses.replace(
            case, num_cores=half, profiles=case.profiles[:half]
        )
    if case.refresh_enabled:
        yield dataclasses.replace(case, refresh_enabled=False)
    if case.num_channels > 1:
        yield dataclasses.replace(case, num_channels=1)
    if case.runahead:
        yield dataclasses.replace(case, runahead=False)
    if case.permutation:
        yield dataclasses.replace(case, permutation=False)
    if case.shared_cache:
        yield dataclasses.replace(case, shared_cache=False)
    if case.filter_kind is not None:
        yield dataclasses.replace(case, filter_kind=None)
    if case.prefetcher_kind not in ("none", "stream"):
        yield dataclasses.replace(case, prefetcher_kind="stream")
    if case.prefetcher_kind != "none":
        yield dataclasses.replace(case, prefetcher_kind="none")
    if case.policy != "fcfs":
        yield dataclasses.replace(case, policy="fcfs")


def shrink(
    case: FuzzCase,
    backends: Sequence[str] = BACKENDS,
    *,
    fails: Optional[Callable[[FuzzCase], bool]] = None,
    max_attempts: int = 200,
) -> FuzzCase:
    """Greedily reduce ``case`` while it still fails.

    ``fails`` defaults to re-running the backends (crash counts as a
    failure); tests inject a synthetic predicate.  Each accepted
    reduction restarts the scan, so the result is a local minimum under
    :func:`_reductions` — small enough to read, not globally minimal.
    """
    if fails is None:
        fails = lambda candidate: _case_fails(candidate, backends)
    current = case
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _reductions(current):
            attempts += 1
            if fails(candidate):
                current = candidate
                progressed = True
                break
            if attempts >= max_attempts:
                break
    return current


def run_fuzz(
    num_cases: int,
    *,
    start_seed: int = 0,
    backends: Sequence[str] = BACKENDS,
    shrink_failures: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Sweep ``num_cases`` seeded cases; return a report dict.

    ``{"cases": N, "backends": [...], "failures": [...]}`` where each
    failure carries the original case description, the diverging
    backends (or the crash), and — when ``shrink_failures`` — the shrunk
    minimal repro.
    """
    failures: List[Dict[str, object]] = []
    for offset in range(num_cases):
        case = random_case(start_seed + offset)
        try:
            diverged = run_case(case, backends)
            crash = None
        except Exception as error:  # crash-as-divergence
            diverged = list(backends[1:])
            crash = f"{type(error).__name__}: {error}"
        if diverged:
            failure: Dict[str, object] = {
                "case": case.describe(),
                "case_seed": case.case_seed,
                "diverged": diverged,
            }
            if crash is not None:
                failure["crash"] = crash
            if shrink_failures:
                shrunk = shrink(case, backends)
                failure["shrunk"] = shrunk.describe()
                failure["shrunk_case"] = shrunk.to_dict()
            failures.append(failure)
            if progress is not None:
                progress(f"DIVERGENCE {case.describe()}")
        elif progress is not None and (offset + 1) % 20 == 0:
            progress(f"{offset + 1}/{num_cases} cases identical")
    return {
        "cases": num_cases,
        "backends": list(backends),
        "start_seed": start_seed,
        "failures": failures,
    }
