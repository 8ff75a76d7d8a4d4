"""The benchmark's workloads, and the child process that runs one repetition.

``run.py`` starts this file as a fresh interpreter for every repetition::

    python3 perfbench/workloads.py --workload mix4-padc --seed 7 \\
        --scale 1.0 --workdir DIR --spawned-at T [--traced]

The child builds the workload's inputs from ``--seed``, runs it once and
prints one JSON object as its last line of standard output: the phase
timings, the work done, the peak RSS, the calibration time and a digest of
the output, plus the per-layer spans when ``--traced``.  It raises (and so
exits non-zero) when an output check fails.  ``repro`` is imported inside
the functions, so the driver can import this module without it.

Modelled caches start empty and every statistic includes warm-up.  The
simulation workloads never pass ``backend=``: they measure the default
loop, and the driver runs the ``reference`` oracle by setting
``$REPRO_BACKEND`` in the child's environment instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``accesses`` is per core (per core per job for
    the campaign), before ``--scale``."""

    name: str
    kind: str  # "sim": one System run; "campaign": a whole sweep
    policy: str
    accesses: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Each repetition is kept near a second of work: the median's run-to-run
# spread shrinks with the number of repetitions that fit in a run.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mix4-padc", "sim", "padc", 5_000),
        Workload("mix8-unfriendly-rank", "sim", "padc-rank", 1_500),
        Workload("l2-resident", "sim", "demand-first", 20_000),
        Workload("campaign-sweep", "campaign", "", 250),
    )
}

MIX8_UNFRIENDLY = (
    "art_00", "milc_06", "galgel_00", "omnetpp_06",
    "swim_00", "lbm_06", "mcf_06", "leslie3d_06",
)
L2_RESIDENT = ("eon_00", "gamess_06", "povray_06", "crafty_00")
# Streams are what miss in these profiles; at 2% the random component, whose
# 2K-4K-line working sets fit the 8K-line private L2, dominates.
L2_RESIDENT_STREAM_FRACTION = 0.02
SWEEP_MIXES = 4
SWEEP_MIX_SEED = 100
SWEEP_POLICIES = ("demand-first", "padc", "frfcfs")
RESUME_READS = 5

CALIBRATION_STEPS = 60_000
# What calibrate() takes on the unloaded 2-core Xeon (2.0 GHz) sandbox the
# benchmark was tuned on.  Host times are reported at this speed.
CALIBRATION_REFERENCE_S = 0.042


def calibrate() -> float:
    """Time a fixed pure-Python loop: how fast the machine runs right now.

    The loop does what the simulator does most -- dict lookups with
    pop-and-reinsert recency, evictions, heap pushes and pops of small
    tuples -- but touches no ``repro`` code, so no change to the program
    moves it.  The collector is off while it runs, so neither does the
    size of the program's heap.
    """
    rng = random.Random(1)
    keys = [rng.getrandbits(16) for _ in range(CALIBRATION_STEPS)]
    sets: List[Dict[int, int]] = [{} for _ in range(1024)]
    heap: List = []
    push, pop = heapq.heappush, heapq.heappop
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for step, key in enumerate(keys):
            lines = sets[key & 1023]
            if key in lines:
                lines[key] = lines.pop(key)
            else:
                if len(lines) >= 8:
                    del lines[next(iter(lines))]
                lines[key] = step
            push(heap, (step + (key & 63), step, key))
            if len(heap) > 64:
                pop(heap)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def calibrated(run: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Time ``run()`` between two calibrations.

    Returns its result, its host seconds and the calibration time.  The
    two calibrations bracket the machine's speed during the run; the faster
    reading is the less disturbed one.
    """
    before = calibrate()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    return result, elapsed, min(before, calibrate())


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def sim_benchmarks(name: str) -> List:
    """The per-core workload list of a simulation workload."""
    if name == "mix4-padc":
        from repro.bench import MACRO_MIX

        return list(MACRO_MIX)
    if name == "mix8-unfriendly-rank":
        return list(MIX8_UNFRIENDLY)
    from repro.workloads import get_profile

    return [
        dataclasses.replace(
            get_profile(base),
            name=f"{base}_res",
            stream_fraction=L2_RESIDENT_STREAM_FRACTION,
        )
        for base in L2_RESIDENT
    ]


def sweep_spec(seed: int, scale: float):
    """The campaign-sweep spec: 2-core mixes x 3 policies, alone runs included."""
    from repro.campaign import CampaignSpec
    from repro.workloads import workload_mixes

    mixes = workload_mixes(2, scaled(SWEEP_MIXES, scale), seed=SWEEP_MIX_SEED)
    return CampaignSpec.build(
        name="perfbench-sweep",
        workloads=[[profile.name for profile in mix] for mix in mixes],
        policies=list(SWEEP_POLICIES),
        accesses=scaled(WORKLOADS["campaign-sweep"].accesses, scale),
        seeds=(seed,),
    )


def result_digest(result) -> str:
    """sha256 of a SimResult's canonical JSON form."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class CheckFailed(RuntimeError):
    """An output of the program was wrong."""


def _since(spawned_at: float) -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at


def run_sim(workload: Workload, seed: int, scale: float, spawned_at: float) -> Dict:
    """Build and run one System, persist the result, read it back warm."""
    from repro import api
    from repro.params import baseline_config
    from repro.runtime import SimJob, get_runtime
    from repro.sim.system import System

    benchmarks = sim_benchmarks(workload.name)
    accesses = scaled(workload.accesses, scale)
    config = baseline_config(num_cores=len(benchmarks), policy=workload.policy)
    system = System(config, benchmarks, seed=seed)
    setup_s = _since(spawned_at)
    result, run_s, calibration_s = calibrated(lambda: system.run(accesses))
    digest = result_digest(result)

    # What api.submit would have stored; the resume is then a warm hit.
    # One read takes about a millisecond, so the median of a few is kept.
    job = SimJob.make(config, benchmarks, accesses, seed=seed)
    get_runtime().store.put(job.key(), result)
    reads = []
    for _ in range(RESUME_READS):
        start = time.perf_counter()
        warm = api.submit(config, benchmarks, accesses, seed=seed)
        warm_digest = result_digest(warm)
        reads.append(time.perf_counter() - start)
        if warm_digest != digest:
            raise CheckFailed(f"warm result {warm_digest} != cold result {digest}")
    resume_s = statistics.median(reads)
    return {
        "digest": digest,
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "run_s": run_s,
        "resume_s": resume_s,
        "accesses": sum(core.l2_hits + core.l2_misses for core in result.cores),
        "jobs": 1,
    }


def run_campaign(seed: int, scale: float, workdir: str, spawned_at: float) -> Dict:
    """Create, drain cold, then resume warm and read the campaign back."""
    from repro import api
    from repro.campaign.worker import run_worker

    spec = sweep_spec(seed, scale)
    directory = f"{workdir}/campaign"
    handle = api.Campaign.create(spec, directory=directory)
    jobs = handle.unique_jobs()
    setup_s = _since(spawned_at)
    stats, drain_s, calibration_s = calibrated(
        lambda: run_worker(handle.inner, stream=True)
    )
    if stats.failed or stats.done != len(jobs):
        raise CheckFailed(
            f"drain finished {stats.done} of {len(jobs)} jobs, {stats.failed} failed"
        )
    cold_csv = handle.export()

    start = time.perf_counter()
    api.campaign(spec, directory=directory)
    reopened = api.campaign_open(directory)
    export_start = time.perf_counter()
    warm_csv = reopened.export()
    metrics_start = time.perf_counter()
    reopened.metrics()
    end = time.perf_counter()

    status = reopened.status()
    if not status["complete"]:
        raise CheckFailed(f"campaign not complete after resume: {status['counts']}")
    if warm_csv != cold_csv:
        raise CheckFailed("warm CSV export differs from the cold one")
    return {
        "digest": hashlib.sha256(warm_csv.encode()).hexdigest(),
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "run_s": drain_s,
        "resume_s": end - start,
        "accesses": sum(len(job.benchmarks) * spec.accesses for job in jobs),
        "jobs": len(jobs),
        "export_s": metrics_start - export_start,
        "metrics_s": end - metrics_start,
    }


def run_rep(args) -> Dict:
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        import spans

        tracer = spans.install()
    if workload.kind == "campaign":
        rep = run_campaign(args.seed, args.scale, args.workdir, args.spawned_at)
    else:
        rep = run_sim(workload, args.seed, args.scale, args.spawned_at)
    # ru_maxrss is in KiB on Linux.
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        rep["layers"] = tracer.layers(rep, campaign=workload.kind == "campaign")
    return rep


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="CLOCK_MONOTONIC reading taken by the driver just before spawning",
    )
    parser.add_argument("--traced", action="store_true")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    print(json.dumps(run_rep(parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
