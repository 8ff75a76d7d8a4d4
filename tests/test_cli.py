"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSimulateCommand:
    def test_single_core(self, capsys):
        code = main(
            [
                "simulate",
                "--cores", "1",
                "--policy", "padc",
                "--benchmarks", "swim",
                "--accesses", "800",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "swim_00" in out
        assert "traffic:" in out

    def test_multicore_with_alone(self, capsys):
        code = main(
            [
                "simulate",
                "--cores", "2",
                "--policy", "padc",
                "--benchmarks", "swim,milc",
                "--accesses", "600",
                "--alone",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "WS=" in out and "UF=" in out

    def test_benchmark_count_mismatch(self, capsys):
        code = main(
            ["simulate", "--cores", "2", "--benchmarks", "swim", "--accesses", "100"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--policy", "padc-rnak"], "did you mean padc-rank"),
            (["--cores", "2", "--benchmarks", "swim_00,swimm"], "did you mean swim"),
            (["--benchmarks", "trace:nosuch"], "unknown trace 'nosuch'"),
            (["--channels", "0"], "num_channels must be positive"),
            (["--prefetcher", "bogus"], "unknown prefetcher_kind 'bogus'"),
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, capsys, flags, message):
        argv = ["simulate", "--benchmarks", "swim", "--accesses", "100"]
        code = main(argv + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_help_lists_every_policy_spelling(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "padc-rank" in capsys.readouterr().out

    def test_variant_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--cores", "1",
                "--policy", "demand-first",
                "--benchmarks", "leslie3d",
                "--accesses", "500",
                "--prefetcher", "stride",
                "--channels", "2",
                "--runahead",
            ]
        )
        assert code == 0


class TestOtherCommands:
    def test_benchmarks_lists_55(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "55 profiles" in out
        assert "libquantum_06" in out

    def test_cost_matches_paper(self, capsys):
        assert main(["cost", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "34720" in out
        assert "1824" in out

    def test_cost_with_ranking(self, capsys):
        assert main(["cost", "--cores", "4", "--ranking"]) == 0
        assert "RANK" in capsys.readouterr().out

    def test_experiment_subcommand(self, capsys):
        assert main(["experiment", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "725" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
