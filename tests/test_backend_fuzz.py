"""Tests for the differential backend fuzzer (DESIGN.md §11).

The CI ``equivalence-fuzz`` job runs the full 200-case sweep via
``python -m repro.fuzz``; the tier-1 suite keeps a smaller pinned-seed
sweep so every test run still exercises the event-vs-reference
differential, plus unit tests for case generation, the shrinker and the
CLI's up-front ``--backends`` validation.
"""

import dataclasses

import pytest

from repro.fuzz import (
    ACCESS_POOL,
    POLICY_POOL,
    FuzzCase,
    build_config,
    random_case,
    run_case,
    run_fuzz,
    shrink,
)
import repro.fuzz.__main__ as fuzz_cli
from repro.fuzz.__main__ import main as fuzz_main
from repro.params import BACKENDS, POLICY_TABLE


class TestCaseGeneration:
    def test_deterministic(self):
        assert random_case(5) == random_case(5)
        assert random_case(5) != random_case(6)

    def test_policy_pool_covers_registry(self):
        assert set(POLICY_POOL) == set(POLICY_TABLE)

    @pytest.mark.parametrize("seed", range(40))
    def test_cases_construct_valid_configs(self, seed):
        # BenchmarkProfile.__post_init__ and baseline_config validate on
        # construction; a draw outside the documented bounds raises here.
        case = random_case(seed)
        assert len(case.profiles) == case.num_cores
        assert case.accesses_per_core in ACCESS_POOL
        config = build_config(case)
        assert config.num_cores == case.num_cores
        assert config.dram.refresh_enabled == case.refresh_enabled

    def test_profiles_vary_across_seeds(self):
        cases = [random_case(seed) for seed in range(30)]
        assert len({case.policy for case in cases}) > 3
        assert len({case.profiles[0].stream_fraction for case in cases}) > 10


class TestDifferential:
    def test_pinned_sweep_byte_identical(self):
        # A small pinned-seed slice of the CI sweep; failures print the
        # shrunk repro via the report structure.
        report = run_fuzz(15, start_seed=0, shrink_failures=True)
        assert report["backends"] == list(BACKENDS)
        assert report["failures"] == [], report["failures"]

    def test_run_case_returns_divergent_backends(self):
        assert run_case(random_case(3)) == []

    def test_invariant_violation_is_a_failure(self, monkeypatch):
        from repro.validate.checker import InvariantChecker, InvariantViolation

        def violated(checker, now):
            raise InvariantViolation(f"planted at cycle {now}")

        # The suite defaults REPRO_CHECK to 1; the CI sweep runs without it.
        monkeypatch.setenv("REPRO_CHECK", "0")
        monkeypatch.setattr(InvariantChecker, "on_end", violated)
        (failure,) = run_fuzz(1, shrink_failures=False)["failures"]
        assert failure["crash"].startswith("InvariantViolation: planted")


class TestShrinker:
    def test_shrink_preserves_failure_predicate(self):
        # Synthetic divergence: only refresh-enabled cases with >=100
        # accesses "fail".  The shrinker must keep both properties while
        # minimizing everything else.
        case = dataclasses.replace(
            random_case(7), refresh_enabled=True, accesses_per_core=600
        )

        def fails(candidate: FuzzCase) -> bool:
            return candidate.refresh_enabled and candidate.accesses_per_core >= 100

        shrunk = shrink(case, fails=fails)
        assert shrunk.refresh_enabled
        assert 100 <= shrunk.accesses_per_core < 200
        assert shrunk.num_cores == 1
        assert shrunk.policy == "fcfs"
        assert shrunk.prefetcher_kind == "none"

    def test_shrink_noop_when_nothing_fails(self):
        case = random_case(9)
        assert shrink(case, fails=lambda candidate: False) == case


class TestCLI:
    def test_single_case_mode(self, capsys):
        assert fuzz_main(["--case", "11"]) == 0
        out = capsys.readouterr().out
        assert "case_seed=11" in out
        assert "byte-identical" in out

    def test_sweep_mode_exit_zero(self, capsys):
        assert fuzz_main(["--cases", "5", "--start-seed", "100"]) == 0
        assert "all byte-identical" in capsys.readouterr().out

    @pytest.mark.parametrize("backends", ["event,bogus", "event", "event,event"])
    def test_bad_backends_rejected_before_any_case(
        self, backends, monkeypatch, capsys
    ):
        def no_cases(*args, **kwargs):
            raise AssertionError("a case ran before --backends was validated")

        monkeypatch.setattr(fuzz_cli, "run_fuzz", no_cases)
        monkeypatch.setattr(fuzz_cli, "run_case", no_cases)
        for argv in (["--cases", "2"], ["--case", "11"]):
            with pytest.raises(SystemExit) as excinfo:
                fuzz_main(argv + ["--backends", backends, "--no-shrink"])
            assert excinfo.value.code == 2
            assert "known backends: event, reference" in capsys.readouterr().err
