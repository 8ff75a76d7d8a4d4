"""Self-test of the benchmark of record.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

It runs the whole benchmark once at 5% size (well under 15 s on two cores)
and checks what it prints, then unit-tests the failure counting
and the ``compare`` classification on synthetic inputs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_benchmark()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--rounds", "1",
         "--scale", "0.05", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), line


def test_benchmark_file_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_every_metric_is_printed_with_its_unit(small_run):
    report, line = small_run
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for name, entry in report["workloads"].items():
        assert entry["error_rate"] == 0, entry["errors"]
        for metric in SPEC["end_to_end"]:
            cell = line["metrics"][name][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert cell["value"] > 0, (name, metric["name"])
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["per_layer"]:
            assert entry["layers"][metric["name"]]["unit"] == metric["unit"]


def test_simulation_digests_match_the_reference_oracle(small_run):
    report, _ = small_run
    for name, workload in workloads.WORKLOADS.items():
        entry = report["workloads"][name]
        assert entry["digest"]
        if workload.kind == "sim":
            assert entry["oracle_digest"] == entry["digest"]


def test_layer_spans_partition_the_run_span(small_run):
    report, _ = small_run
    for name, entry in report["workloads"].items():
        layers = {k: v["value"] for k, v in entry["layers"].items()}
        parts = layers["workloads.busy_s"] + layers["controller.busy_s"] + layers["sim.self_s"]
        assert parts == pytest.approx(layers["sim.run_s"], rel=1e-9), name
        assert layers["sim.self_s"] > 0, name


def _rep(digest="d1", run_s=1.0):
    return {
        "digest": digest, "setup_s": 0.1, "run_s": run_s, "resume_s": 0.01,
        "accesses": 1000, "jobs": 1, "peak_rss_mb": 50.0,
        "calibration_s": workloads.CALIBRATION_REFERENCE_S,
    }


def test_digest_mismatch_and_crash_count_as_failures():
    record = run.WorkloadRecord(workloads.WORKLOADS["mix4-padc"])
    record.reps = [_rep(), _rep(digest="d2", run_s=0.5), _rep(), {"error": "boom"}]
    record.oracle = _rep()
    record.check()
    report = record.report(SPEC)
    assert report["attempted"] == 5
    assert report["failed"] == 2
    assert report["error_rate"] == pytest.approx(0.4)
    # The mismatching repetition is not measured, however fast it was.
    assert report["metrics"]["accesses_per_s"]["value"] == pytest.approx(1000.0)

    record.oracle = _rep(digest="wrong")
    record.check()
    assert len(record.errors) == 3


def _cell(value, samples, better="higher", bound=0.1):
    values = sorted(samples)
    return {
        "value": value, "better": better, "bound": bound,
        "q1": values[1], "median": values[len(values) // 2], "q3": values[-2],
        "samples": samples,
    }


def test_compare_classifies_agree_worse_and_unresolved():
    tight = [99.0, 100.0, 100.0, 101.0, 102.0]
    a = _cell(102.0, tight)
    assert run.verdict(a, _cell(100.0, tight)) == "agree"
    assert run.verdict(a, _cell(80.0, [x - 20 for x in tight])) == "worse"
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert run.verdict(a, _cell(140.0, wide)) == "unresolved"
    # A wide spread is still resolved when every sample of B is better.
    better = [x + 100 for x in wide]
    assert run.verdict(a, _cell(240.0, better)) == "agree"
    # Direction matters: for a time, a larger value is worse.
    lower_a = _cell(1.0, [1.0, 1.0, 1.01, 1.02, 1.02], better="lower")
    lower_b = _cell(1.2, [1.2, 1.2, 1.21, 1.22, 1.22], better="lower")
    assert run.verdict(lower_a, lower_b) == "worse"

    report_a = {"workloads": {"w": {"metrics": {"m": a}}}}
    report_b = {"workloads": {"w": {"metrics": {"m": _cell(80.0, [x - 20 for x in tight])}}}}
    rows = run.compare(report_a, report_b)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [("w", "m", "worse")]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix4-padc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
