"""Tests for the repro.bench performance harness."""

import json

import pytest

from repro.bench import (
    BENCH_NAME,
    DEFAULT_POLICIES,
    SCALES,
    SCHEMA_VERSION,
    load_report,
    run_macro,
    run_micro,
    verify_equivalence,
    write_report,
)
from repro.bench.__main__ import main as bench_main
from repro.params import BACKENDS


class TestScales:
    def test_known_scales(self):
        assert {"tiny", "quick", "medium", "paper"} <= set(SCALES)

    def test_sizes_monotone(self):
        order = ["tiny", "quick", "medium", "paper"]
        accesses = [SCALES[name].macro_accesses for name in order]
        assert accesses == sorted(accesses)

    def test_default_policies_cover_golden_matrix(self):
        assert "padc" in DEFAULT_POLICIES
        assert "fcfs" in DEFAULT_POLICIES


class TestMacro:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_macro_reports_tick_loop(self, backend):
        sample = run_macro("fcfs", "tiny", backend)
        assert sample["backend"] == backend
        assert sample["cycles"] > 0
        assert sample["wall_s"] > 0
        assert sample["tick_loop_s"] > 0
        assert sample["tick_calls"] > 0
        assert sample["tick_loop_s"] <= sample["wall_s"]
        assert sample["cycles_per_sec"] == pytest.approx(
            sample["cycles"] / sample["wall_s"], rel=1e-3
        )
        assert sample["tick_cycles_per_sec"] >= sample["cycles_per_sec"]

    def test_run_macro_deterministic_cycles(self):
        # Same simulation on every backend; only the wall time may differ.
        cycles = {run_macro("fcfs", "tiny", backend)["cycles"] for backend in BACKENDS}
        assert len(cycles) == 1


class TestMicro:
    def test_run_micro_drains_all_requests(self):
        sample = run_micro("demand-first", "tiny", "event")
        assert sample["requests"] > 0
        assert sample["cycles"] > 0
        assert sample["ticks"] > 0
        assert sample["requests_per_sec"] > 0

    def test_micro_deterministic_across_backends(self):
        samples = [run_micro("demand-first", "tiny", b) for b in BACKENDS]
        assert len({s["requests"] for s in samples}) == 1
        assert len({s["cycles"] for s in samples}) == 1


class TestRoundsPinned:
    """Satellite regression pin for the padc-rank tiny-scale macrobench cell.

    The BENCH_5-era tick loop re-armed a wake for every scheduling round
    and the ranked census rebuilt even when nothing moved, which showed
    up as a 0.939x tick-loop ratio at tiny scale.  This pins the exact
    number of scheduling rounds the fixed hot path executes for the
    macrobench mix at tiny scale (seed 7) — a behavioral change that
    inflates round count (extra no-op wakes, lost skip-ahead) breaks the
    pin even when byte-identity still holds.  Regenerate the constant by
    running the loop below if the simulation semantics legitimately
    change (CACHE_VERSION bump).
    """

    PINNED_ROUNDS = 6582
    PINNED_CYCLES = 257295

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_padc_rank_tiny_rounds_pinned(self, backend):
        from repro.bench import MACRO_MIX, MACRO_SEED, _macro_config
        from repro.sim.system import System

        system = System(
            _macro_config("padc-rank"),
            list(MACRO_MIX),
            seed=MACRO_SEED,
            backend=backend,
        )
        result = system.run(SCALES["tiny"].macro_accesses)
        assert system.engine.stats.rounds == self.PINNED_ROUNDS
        assert result.total_cycles == self.PINNED_CYCLES


class TestEquivalence:
    def test_single_case_identical(self):
        result = verify_equivalence(
            ["padc"], "tiny", mixes=[["mcf_06", "swim_00"][:2]], seeds=[5]
        )
        assert result["cases"] == 1
        assert result["backends"] == list(BACKENDS)
        assert result["mismatches"] == []


def _report(scale="tiny", speedup=3.0, policy="padc"):
    return {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "macro": {"policies": {policy: {"speedup_tick_loop": speedup}}},
    }


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_6.json")
        report = _report()
        write_report(path, report)
        assert load_report(path) == report

    def test_load_missing_returns_none(self, tmp_path):
        assert load_report(str(tmp_path / "absent.json")) is None

    def test_load_garbage_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert load_report(str(path)) is None


class TestCLI:
    def test_main_writes_schema_versioned_report(self, tmp_path):
        out = str(tmp_path / "bench.json")
        code = bench_main(
            [
                "--scale",
                "tiny",
                "--policies",
                "fcfs",
                "--skip-verify",
                "--skip-micro",
                "--out",
                out,
            ]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["bench"] == BENCH_NAME
        assert report["scale"] == "tiny"
        entry = report["macro"]["policies"]["fcfs"]
        assert set(BACKENDS) <= set(entry)
        for backend in BACKENDS:
            assert entry[backend]["tick_cycles_per_sec"] > 0
        assert entry["speedup_tick_loop"] > 0
        assert entry["speedup_end_to_end"] > 0

    def test_main_fails_only_on_equivalence_mismatch(
        self, tmp_path, monkeypatch, capsys
    ):
        # Without --out nothing is written; an equivalence mismatch is the
        # one failure the bench CLI gates on.
        import repro.bench

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            repro.bench,
            "verify_equivalence",
            lambda policies, scale: {
                "cases": 1,
                "backends": list(BACKENDS),
                "mismatches": ["policy=fcfs: reference != event"],
            },
        )
        code = bench_main(
            ["--scale", "tiny", "--policies", "fcfs", "--skip-micro", "--skip-trace"]
        )
        assert code == 1
        assert "EQUIVALENCE FAILURE" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
