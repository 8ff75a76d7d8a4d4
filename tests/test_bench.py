"""Tests for repro.bench: its sizes, the tick timer perfbench imports, the CLI."""

import pytest

from repro.bench import (
    MACRO_MIX,
    MACRO_SEED,
    SCALES,
    _install_tick_timer,
    _macro_config,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.phases import PHASE_BUCKETS
from repro.params import BACKENDS
from repro.sim.system import System


class TestScales:
    def test_known_scales(self):
        assert {"tiny", "quick", "medium", "paper"} <= set(SCALES)

    def test_sizes_monotone(self):
        order = ["tiny", "quick", "medium", "paper"]
        accesses = [SCALES[name] for name in order]
        assert accesses == sorted(accesses)


class TestTickTimer:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_times_every_scheduling_round(self, backend):
        system = System(
            _macro_config("fcfs"), list(MACRO_MIX), seed=MACRO_SEED, backend=backend
        )
        timer = _install_tick_timer(system, backend)
        system.run(SCALES["tiny"])
        assert timer.calls > 0
        assert timer.calls == system.engine.stats.rounds
        assert timer.elapsed > 0


class TestCLI:
    def test_prints_one_phase_row_per_policy(self, capsys):
        assert bench_main(["--scale", "tiny", "--policies", "fcfs,padc"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        for row, policy in zip(rows, ["fcfs", "padc"]):
            assert row.split("/")[0].strip() == policy
            for name in PHASE_BUCKETS + ("front-end",):
                assert name in row
