"""Stored digests pin every result the simulation loop produces.

Each case's ``SimResult.to_dict()`` is serialized with sorted keys and
hashed with sha256; ``tests/golden/loop_digests.json`` holds the digest
every backend must reproduce.  The cases are the first 64 differential
fuzz cases (every policy, writes, runahead, refresh, two channels, a
shared cache, DDPF and FDP), plus configurations the fuzzer never
draws: a closed-row controller under padc-rank, a ``max_cycles`` cap
that ends the run while requests are still in flight, a traced run
that also collects prefetch service times, eight intense cores under
the ranking policies (the fuzzer draws at most four cores, so only
these cases churn the core rank every round), FDP throttling two
prefetch-unfriendly cores (the only case whose streams change degree and
distance mid-run), streams of degree 8 and distance 128 (windows wider
than 64 lines) and perfbench's four L2-resident profiles (a full stream
table that mostly matches nothing).

A deliberate behaviour change regenerates the file with
``PYTHONPATH=src python tests/test_loop_digests.py`` and bumps
``repro.runtime.store.CACHE_VERSION`` in the same change.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.fuzz import build_config, random_case
from repro.params import BACKENDS, baseline_config
from repro.sim.results import SimResult
from repro.sim.system import System
from repro.workloads import get_profile

GOLDEN = Path(__file__).parent / "golden" / "loop_digests.json"

FUZZ_SEEDS = range(64)

MIX2 = ("libquantum_06", "swim_00")
MIX4 = ("mcf_06", "libquantum_06", "lucas_00", "hmmer_06")
# Eight prefetch-unfriendly, memory-intense profiles: the request buffer
# fills and the per-core critical counts reorder almost every round.
MIX8 = (
    "art_00", "milc_06", "galgel_00", "omnetpp_06",
    "swim_00", "lbm_06", "mcf_06", "leslie3d_06",
)
# perfbench's l2-resident workload: working sets that fit the private L2,
# with a 2% stream component.
L2_RESIDENT = tuple(
    dataclasses.replace(
        get_profile(base), name=f"{base}_res", stream_fraction=0.02
    )
    for base in ("eon_00", "gamess_06", "povray_06", "crafty_00")
)


def _fuzz(seed: int) -> Callable[[str], SimResult]:
    def run(backend: str) -> SimResult:
        case = random_case(seed)
        system = System(
            build_config(case),
            list(case.profiles),
            seed=case.sim_seed,
            backend=backend,
        )
        return system.run(case.accesses_per_core)

    return run


def _closed_row_padc_rank(backend: str) -> SimResult:
    config = baseline_config(num_cores=2, policy="padc-rank", open_row=False)
    return System(config, MIX2, seed=5, backend=backend).run(800)


def _max_cycles_cap(backend: str) -> SimResult:
    config = baseline_config(num_cores=4, policy="padc")
    system = System(config, MIX4, seed=3, backend=backend)
    return system.run(2_000, max_cycles=30_000)


def _telemetry_service_times(backend: str) -> SimResult:
    config = baseline_config(num_cores=2, policy="padc")
    system = System(
        config,
        MIX2,
        seed=9,
        backend=backend,
        telemetry=True,
        collect_service_times=True,
    )
    return system.run(3_000)


def _eight_core_padc_rank(backend: str) -> SimResult:
    config = baseline_config(num_cores=8, policy="padc-rank")
    return System(config, MIX8, seed=7, backend=backend).run(1_500)


def _eight_core_aps_rank_2ch(backend: str) -> SimResult:
    config = baseline_config(
        num_cores=8, policy="aps-rank", num_channels=2, permutation=True
    )
    return System(config, MIX8, seed=7, backend=backend).run(1_500)


def _fdp_level_moves_system(backend: str) -> System:
    config = baseline_config(num_cores=2, policy="demand-first", filter_kind="fdp")
    return System(config, ("omnetpp_06", "xalancbmk_06"), seed=5, backend=backend)


def _fdp_level_moves(backend: str) -> SimResult:
    return _fdp_level_moves_system(backend).run(6_000)


def _wide_streams_system(backend: str) -> System:
    config = baseline_config(num_cores=4, policy="padc")
    config = dataclasses.replace(
        config,
        prefetcher=dataclasses.replace(config.prefetcher, degree=8, distance=128),
    )
    return System(config, MIX4, seed=3, backend=backend)


def _wide_streams(backend: str) -> SimResult:
    return _wide_streams_system(backend).run(1_500)


def _l2_resident_system(backend: str) -> System:
    config = baseline_config(num_cores=4, policy="demand-first")
    return System(config, L2_RESIDENT, seed=7, backend=backend)


def _l2_resident(backend: str) -> SimResult:
    return _l2_resident_system(backend).run(2_000)


CASES: Dict[str, Callable[[str], SimResult]] = {
    **{f"fuzz-{seed}": _fuzz(seed) for seed in FUZZ_SEEDS},
    "closed-row-padc-rank": _closed_row_padc_rank,
    "max-cycles-cap": _max_cycles_cap,
    "telemetry-service-times": _telemetry_service_times,
    "eight-core-padc-rank": _eight_core_padc_rank,
    "eight-core-aps-rank-2ch": _eight_core_aps_rank_2ch,
    "fdp-level-moves": _fdp_level_moves,
    "wide-streams": _wide_streams,
    "l2-resident": _l2_resident,
}


def digest(result: SimResult) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _stored() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_stored()) == sorted(CASES)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(CASES))
def test_result_matches_stored_digest(name, backend):
    assert digest(CASES[name](backend)) == _stored()[name]


class TestExtraCasesExerciseTheirPath:
    def test_cap_ends_the_run_mid_flight(self):
        result = _max_cycles_cap(BACKENDS[0])
        assert result.total_cycles == 30_000
        assert sum(core.loads for core in result.cores) < 4 * 2_000

    def test_traced_run_keeps_samples_and_service_times(self):
        result = _telemetry_service_times(BACKENDS[0])
        assert result.trace is not None and result.trace.intervals
        assert any(core.useful_service_times for core in result.cores)

    def test_eight_core_rank_run_crosses_two_intervals(self):
        result = _eight_core_padc_rank(BACKENDS[0])
        assert all(len(par) >= 2 for par in result.accuracy_history)

    def test_fdp_moves_stream_aggressiveness(self):
        system = _fdp_level_moves_system(BACKENDS[0])
        system.run(6_000)
        assert any(fdp.level_changes for fdp in system._fdp)
        assert any(
            (prefetcher.degree, prefetcher.distance) != (4, 64)
            for prefetcher in system._prefetchers
        )

    def test_wide_streams_span_three_buckets(self):
        system = _wide_streams_system(BACKENDS[0])
        result = system.run(1_500)
        assert sum(core.pf_sent for core in result.cores) > 0
        windows = [
            (entry.lo, entry.hi)
            for prefetcher in system._prefetchers
            for entry in prefetcher.entries
            if entry.direction
        ]
        assert windows and all(hi - lo == 128 for lo, hi in windows)
        assert any((hi >> 6) - (lo >> 6) == 2 for lo, hi in windows)

    def test_l2_resident_run_fills_every_stream_table(self):
        system = _l2_resident_system(BACKENDS[0])
        result = system.run(2_000)
        hits = sum(core.l2_hits for core in result.cores)
        misses = sum(core.l2_misses for core in result.cores)
        assert hits > 2 * misses
        assert all(
            len(prefetcher.entries) == prefetcher.num_streams
            for prefetcher in system._prefetchers
        )


def _regenerate() -> None:
    digests = {name: digest(run(BACKENDS[0])) for name, run in CASES.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
