"""The benchmark of record: host throughput end to end, and a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py [--workload NAME ...] [--seed 7] [--rounds 10 | --seconds S]
                             [--trace 0|1] [--out FILE]
    python3 perfbench/run.py compare A.json B.json

The load is a closed loop from this one driver process.  It starts one fresh
child interpreter (``perfbench/workloads.py``) per (workload, repetition),
one at a time, and waits for each.  Each round runs every selected workload
once in a fixed order, so a burst of machine noise lands on all workloads
instead of on every repetition of one.  After the rounds it runs one traced
child per workload (``--trace 1``) and one ``reference``-backend oracle
child per simulation workload.

Every end-to-end metric is the median over the N repetitions, with q1 and
q3 in the report.  Host times are reported at a reference machine speed:
each child times a fixed calibration loop next to its run (see
``workloads.calibrate``) and its times are scaled by the reference time
over the calibration time, which cancels the machine-wide slowdowns a
shared host goes through.  Names, units, directions and bounds come from
``BENCHMARK.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (with one ``--workload``, the
``end_to_end`` metrics for ``--trace 0`` and the ``per_layer`` metrics for
``--trace 1``).  The exit code is 0 only if every child ran and every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
CHILD = Path(__file__).resolve().parent / "workloads.py"
SCRATCH = ROOT / ".perfbench"
DEFAULT_SEED = 7
DEFAULT_ROUNDS = 10
# A repetition takes a few seconds; a hung one must not push a run past
# three minutes.
CHILD_TIMEOUT_S = 30
TIME_UNITS = ("s", "ms", "us", "ns")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def load_benchmark() -> Dict:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def child_env(workdir: Path, workload: workloads.Workload, oracle: bool) -> Dict[str, str]:
    """A hermetic environment: no inherited REPRO_* knob, fresh stores."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(workdir),
        REPRO_CACHE_DIR=str(workdir / "cache"),
        REPRO_CAMPAIGN_DIR=str(workdir / "campaigns"),
    )
    if workload.kind == "campaign":
        env["REPRO_CAMPAIGN_BACKEND"] = "sqlite"
    if oracle:
        env["REPRO_BACKEND"] = "reference"
    return env


def run_child(
    workload: workloads.Workload,
    seed: int,
    scale: float,
    scratch: Path,
    *,
    traced: bool = False,
    oracle: bool = False,
) -> Dict:
    """Run one repetition in a fresh interpreter; return its measurements.

    A crash, a timeout or an unreadable result comes back as
    ``{"error": ...}``.
    """
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    command = [
        sys.executable, str(CHILD),
        "--workload", workload.name,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--workdir", str(workdir),
    ]
    if traced:
        command.append("--traced")
    env = child_env(workdir, workload, oracle)
    try:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            env=env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


def slowdown(rep: Dict) -> float:
    """How much slower than the reference speed the machine ran this child."""
    return rep["calibration_s"] / workloads.CALIBRATION_REFERENCE_S


def e2e_sample(rep: Dict) -> Dict[str, float]:
    """The end-to-end metric values of one repetition, at reference speed."""
    factor = slowdown(rep)
    run_s = rep["run_s"] / factor
    return {
        "accesses_per_s": rep["accesses"] / run_s,
        "jobs_per_s": rep["jobs"] / run_s,
        "resume_s": rep["resume_s"] / factor,
        "setup_s": rep["setup_s"] / factor,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def summarize(values: List[float]) -> Dict:
    """The median of a metric's samples, with their quartiles."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "median": median, "q3": q3, "samples": values}


class WorkloadRecord:
    """Every child run of one workload, and the checks over them."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.reps: List[Dict] = []
        self.traced: Optional[Dict] = None
        self.oracle: Optional[Dict] = None
        self.errors: List[str] = []

    def attempted(self) -> int:
        return len(self.reps) + (self.traced is not None) + (self.oracle is not None)

    def check(self) -> None:
        """Count crashes and digest mismatches into ``errors``."""
        self.errors = []
        runs = [("rep", rep) for rep in self.reps]
        if self.traced is not None:
            runs.append(("traced", self.traced))
        if self.oracle is not None:
            runs.append(("oracle", self.oracle))
        expected = self.digest()
        for label, run in runs:
            if "error" in run:
                self.errors.append(f"{label}: {run['error']}")
            elif run["digest"] != expected:
                self.errors.append(
                    f"{label}: digest {run['digest'][:16]} != {(expected or 'none')[:16]}"
                )

    def good_reps(self) -> List[Dict]:
        expected = self.digest()
        return [rep for rep in self.reps if rep.get("digest") == expected]

    def digest(self) -> Optional[str]:
        """The digest of the first repetition that produced one."""
        for rep in self.reps:
            if "digest" in rep:
                return rep["digest"]
        return None

    def metrics(self, spec: Dict) -> Dict[str, Dict]:
        reps = self.good_reps()
        if not reps:
            return {}
        samples = [e2e_sample(rep) for rep in reps]
        out = {}
        for metric in spec["end_to_end"]:
            out[metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **summarize([sample[metric["name"]] for sample in samples]),
            }
        return out

    def layers(self, spec: Dict) -> Dict[str, Dict]:
        if self.traced is None or "layers" not in self.traced:
            return {}
        values = dict(self.traced["layers"])
        factor = slowdown(self.traced)
        untraced = [rep["run_s"] / slowdown(rep) for rep in self.good_reps()]
        values["trace.overhead"] = (
            self.traced["run_s"] / factor / statistics.median(untraced) if untraced else 0.0
        )
        out = {}
        for metric in spec["per_layer"]:
            value = values[metric["name"]]
            if metric["unit"] in TIME_UNITS:
                value /= factor
            out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        return out

    def report(self, spec: Dict) -> Dict:
        attempted = self.attempted()
        return {
            "kind": self.workload.kind,
            "reps": len(self.good_reps()),
            "attempted": attempted,
            "failed": len(self.errors),
            "error_rate": len(self.errors) / attempted if attempted else 0.0,
            "errors": self.errors,
            "digest": self.digest(),
            "oracle_digest": (self.oracle or {}).get("digest"),
            "metrics": self.metrics(spec),
            "layers": self.layers(spec),
            "runs": self.reps,
        }


def measure(
    names: List[str],
    seed: int,
    scale: float,
    rounds: int,
    seconds: Optional[float],
    trace: bool,
    scratch: Path,
    progress=lambda message: None,
) -> Dict[str, WorkloadRecord]:
    """Interleaved rounds, then the traced and oracle children."""
    records = {name: WorkloadRecord(workloads.WORKLOADS[name]) for name in names}
    # Untimed: compiles bytecode and warms the file cache, so the first
    # timed repetition does not pay for either.
    for record in records.values():
        warm = run_child(record.workload, seed, min(scale, 0.01), scratch)
        if "error" in warm:
            raise BenchError(f"warm-up of {record.workload.name} failed: {warm['error']}")
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if seconds is None:
            if done >= rounds:
                break
        elif done and elapsed + elapsed / done > seconds:
            break
        for record in records.values():
            record.reps.append(run_child(record.workload, seed, scale, scratch))
        done += 1
        progress(f"round {done} done at {time.perf_counter() - start:.1f}s")
    for record in records.values():
        if trace:
            record.traced = run_child(record.workload, seed, scale, scratch, traced=True)
        if record.workload.kind == "sim":
            record.oracle = run_child(record.workload, seed, scale, scratch, oracle=True)
        record.check()
    return records


def build_report(records: Dict[str, WorkloadRecord], spec: Dict, args) -> Dict:
    return {
        "benchmark": "perfbench",
        "seed": args.seed,
        "scale": args.scale,
        "trace": bool(args.trace),
        "workloads": {name: record.report(spec) for name, record in records.items()},
    }


def print_tables(report: Dict, spec: Dict) -> None:
    print(f"seed {report['seed']}, scale {report['scale']}")
    print(
        f"{'workload':22s} {'metric':16s} {'median':>14s} {'unit':6s} "
        f"{'q1':>14s} {'q3':>14s}  n"
    )
    for name, entry in report["workloads"].items():
        for metric, cell in entry["metrics"].items():
            print(
                f"{name:22s} {metric:16s} {cell['value']:14.6g} {cell['unit']:6s} "
                f"{cell['q1']:14.6g} {cell['q3']:14.6g}  {entry['reps']}"
            )
        print(
            f"{name:22s} {'error_rate':16s} {entry['error_rate']:14.6g} "
            f"{'ratio':6s} ({entry['failed']} of {entry['attempted']} child runs failed)"
        )
    if any(entry["layers"] for entry in report["workloads"].values()):
        names = list(report["workloads"])
        print("\nper-layer (one traced child per workload)")
        print(f"{'metric':30s} {'unit':6s} " + " ".join(f"{n[:20]:>20s}" for n in names))
        for metric in spec["per_layer"]:
            cells = []
            for name in names:
                cell = report["workloads"][name]["layers"].get(metric["name"])
                cells.append(f"{cell['value']:20.6g}" if cell else f"{'-':>20s}")
            print(f"{metric['name']:30s} {metric['unit']:6s} " + " ".join(cells))
    for name, entry in report["workloads"].items():
        print(f"digest {name}: {entry['digest']} oracle {entry['oracle_digest']}")
        for error in entry["errors"]:
            print(f"FAILED {name}: {error}")


def result_line(report: Dict, trace: bool) -> Dict:
    """The last line of output.

    With one workload the metrics are flat: the end-to-end ones, or the
    per-layer ones when traced.  With several they are keyed by workload
    and hold both.
    """
    entries = report["workloads"]

    def cells(entry, sections):
        return {
            metric: {"value": cell["value"], "unit": cell["unit"]}
            for section in sections
            for metric, cell in entry[section].items()
        }

    if len(entries) == 1:
        metrics = cells(next(iter(entries.values())), ["layers" if trace else "metrics"])
    else:
        metrics = {name: cells(entry, ["metrics", "layers"]) for name, entry in entries.items()}
    failed = sum(entry["failed"] for entry in entries.values())
    return {
        "correct": failed == 0,
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": failed,
        "metrics": metrics,
    }


# -- compare ---------------------------------------------------------------


def verdict(a: Dict, b: Dict) -> str:
    """``agree``, ``worse`` or ``unresolved`` for B against A on one metric.

    Worse when B's median is worse than A's by more than the metric's
    bound.  Unresolved when either run's interquartile spread is wider than
    the bound, unless every sample of B reads better than every sample of A.
    """
    bound, better = a["bound"], a["better"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] if side["median"] else 0.0
        for side in (a, b)
    )
    if spread > bound:
        if better == "higher":
            all_better = min(b["samples"]) > max(a["samples"])
        else:
            all_better = max(b["samples"]) < min(a["samples"])
        return "agree" if all_better else "unresolved"
    return "worse" if worse_by > bound else "agree"


def compare(a: Dict, b: Dict) -> List[Dict]:
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, cell_a in entry_a["metrics"].items():
            cell_b = entry_b["metrics"].get(metric)
            if cell_b is None:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "a": cell_a["value"],
                    "b": cell_b["value"],
                    "change": (cell_b["value"] - cell_a["value"]) / cell_a["value"],
                    "bound": cell_a["bound"],
                    "verdict": verdict(cell_a, cell_b),
                }
            )
    return rows


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py compare",
        description="Classify report B against report A, metric by workload.",
    )
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        report_b = json.load(handle)
    rows = compare(report_a, report_b)
    print(
        f"{'workload':22s} {'metric':16s} {'A':>14s} {'B':>14s} "
        f"{'change':>8s} {'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:22s} {row['metric']:16s} {row['a']:14.6g} "
            f"{row['b']:14.6g} {row['change']:+8.1%} {row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


# -- main --------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(workloads.WORKLOADS),
        help="workload to run (repeatable; default: all, in table order)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload-generation seed (default {DEFAULT_SEED}; 11 is held out)",
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help=f"interleaved rounds (default {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="instead of --rounds, start rounds while they fit in this many seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="run the traced children and report the per-layer metrics (default 1)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload's size (default 1.0; the self-test uses 0.05)",
    )
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so the running child is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    spec = load_benchmark()
    names = args.workload or list(workloads.WORKLOADS)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        records = measure(
            names,
            args.seed,
            args.scale,
            args.rounds,
            args.seconds,
            bool(args.trace),
            scratch,
            progress=lambda message: print(f"[perfbench] {message}", flush=True),
        )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    report = build_report(records, spec, args)
    print_tables(report, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    line = result_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
