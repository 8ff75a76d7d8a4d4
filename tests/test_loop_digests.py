"""Stored digests pin every result the simulation loop produces.

Each case's ``SimResult.to_dict()`` is serialized with sorted keys and
hashed with sha256; ``tests/golden/loop_digests.json`` holds the digest
every backend must reproduce.  The cases are the first 64 differential
fuzz cases (every policy, writes, runahead, refresh, two channels, a
shared cache, DDPF and FDP), plus configurations the fuzzer never
draws: a closed-row controller under padc-rank, a ``max_cycles`` cap
that ends the run while requests are still in flight, a traced run
that also collects prefetch service times, and eight intense cores
under the ranking policies (the fuzzer draws at most four cores, so
only these cases churn the core rank every round).

A deliberate behaviour change regenerates the file with
``PYTHONPATH=src python tests/test_loop_digests.py`` and bumps
``repro.runtime.store.CACHE_VERSION`` in the same change.
"""

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.fuzz import build_config, random_case
from repro.params import BACKENDS, baseline_config
from repro.sim.results import SimResult
from repro.sim.system import System

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


CASES: Dict[str, Callable[[str], SimResult]] = {
    **{f"fuzz-{seed}": _fuzz(seed) for seed in FUZZ_SEEDS},
    "closed-row-padc-rank": _closed_row_padc_rank,
    "max-cycles-cap": _max_cycles_cap,
    "telemetry-service-times": _telemetry_service_times,
    "eight-core-padc-rank": _eight_core_padc_rank,
    "eight-core-aps-rank-2ch": _eight_core_aps_rank_2ch,
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


def _regenerate() -> None:
    digests = {name: digest(run(BACKENDS[0])) for name, run in CASES.items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
