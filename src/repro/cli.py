"""Command-line interface.

Subcommands::

    python -m repro simulate --cores 4 --policy padc --benchmarks swim,art,libquantum,milc
    python -m repro benchmarks                 # list the 55 workload profiles
    python -m repro cost --cores 4             # Tables 1-2 storage cost
    python -m repro experiment fig16 fig01     # regenerate paper artifacts
    python -m repro campaign run --name paper  # ledgered sweep (run/status/resume/export)
    python -m repro telemetry report result.json  # interval telemetry reports

Synthetic traces are written with ``python -m repro.trace synth``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api
from repro.controller.cost import cost_as_fraction_of_l2, padc_storage_cost
from repro.metrics import harmonic_speedup, unfairness, weighted_speedup
from repro.params import ALL_POLICIES, baseline_config
from repro.runtime import SimJob
from repro.workloads import ALL_BENCHMARKS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prefetch-Aware DRAM Controllers (MICRO 2008) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation")
    sim.add_argument("--cores", type=int, default=1)
    sim.add_argument("--policy", default="padc", help=f"one of {ALL_POLICIES}")
    sim.add_argument(
        "--benchmarks",
        required=True,
        help="comma-separated benchmark names (one per core)",
    )
    sim.add_argument("--accesses", type=int, default=8_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--prefetcher", default="stream")
    sim.add_argument("--channels", type=int, default=1)
    sim.add_argument("--shared-cache", action="store_true")
    sim.add_argument("--runahead", action="store_true")
    sim.add_argument(
        "--alone",
        action="store_true",
        help="also run each benchmark alone and report WS/HS/UF",
    )
    sim.add_argument(
        "--telemetry",
        action="store_true",
        help="trace interval telemetry and print the phase summary "
        "(full reports: python -m repro.telemetry)",
    )
    _add_runtime_flags(sim)

    sub.add_parser("benchmarks", help="list the workload profiles")

    cost = sub.add_parser("cost", help="PADC storage cost (Tables 1-2)")
    cost.add_argument("--cores", type=int, default=4)
    cost.add_argument("--cache-lines", type=int, default=8192)
    cost.add_argument("--buffer-entries", type=int, default=128)
    cost.add_argument("--ranking", action="store_true")

    experiment = sub.add_parser("experiment", help="run paper experiments")
    experiment.add_argument("names", nargs="+", help="experiment ids, or 'all'")
    _add_runtime_flags(experiment)

    campaign = sub.add_parser(
        "campaign",
        help="sweep campaigns: run/status/resume/export (see python -m repro.campaign)",
        add_help=False,
    )
    campaign.add_argument("rest", nargs=argparse.REMAINDER)

    telemetry = sub.add_parser(
        "telemetry",
        help="interval telemetry: report/run/campaign (see python -m repro.telemetry)",
        add_help=False,
    )
    telemetry.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Parallelism/caching knobs shared by simulation-running subcommands."""
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for independent simulations "
        "(0 = one per CPU core; default $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="checked mode: audit simulator invariants at every interval "
        "boundary and end-of-sim (also $REPRO_CHECK=1)",
    )


def _configure_runtime(args):
    """Install the runtime the CLI flags ask for; returns it."""
    from repro import runtime

    if args.jobs is not None or args.cache_dir is not None or args.no_cache:
        return runtime.configure(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_enabled=False if args.no_cache else None,
        )
    return runtime.get_runtime()


def _cmd_simulate(args) -> int:
    benchmarks = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    if len(benchmarks) != args.cores:
        print(
            f"error: {args.cores} cores but {len(benchmarks)} benchmarks",
            file=sys.stderr,
        )
        return 2
    config = baseline_config(
        args.cores,
        policy=args.policy,
        prefetcher_kind=args.prefetcher,
        num_channels=args.channels,
        shared_cache=args.shared_cache,
        runahead=args.runahead,
    )
    runtime = _configure_runtime(args)
    sim_kwargs = {"check": True} if args.check else {}
    result = api.submit(
        config,
        benchmarks,
        args.accesses,
        seed=args.seed,
        runtime=runtime,
        telemetry=args.telemetry,
        **sim_kwargs,
    )
    print(f"policy={args.policy} cycles={result.total_cycles}")
    print(
        f"{'core':<6}{'benchmark':<16}{'IPC':>7}{'MPKI':>7}{'ACC':>7}"
        f"{'COV':>7}{'SPL':>8}{'dropped':>9}"
    )
    for core in result.cores:
        print(
            f"{core.core_id:<6}{core.benchmark:<16}{core.ipc:>7.3f}"
            f"{core.mpki:>7.1f}{core.accuracy:>7.2f}{core.coverage:>7.2f}"
            f"{core.spl:>8.1f}{core.pf_dropped:>9}"
        )
    breakdown = result.traffic_breakdown()
    print(
        f"traffic: {result.total_traffic} lines "
        f"(demand {breakdown['demand']}, useful-pref {breakdown['pref-useful']}, "
        f"useless-pref {breakdown['pref-useless']}); "
        f"row-buffer hit rate {result.row_buffer_hit_rate:.2f}"
    )
    if args.telemetry and result.trace is not None:
        from repro.telemetry import phase_summary

        print("phase summary:")
        for line in phase_summary(result.trace):
            print(f"  * {line}")
    if args.alone and args.cores > 1:
        alone_config = baseline_config(1, policy="demand-first")
        alone_jobs = [
            SimJob.make(
                alone_config,
                [benchmark],
                args.accesses,
                seed=args.seed + index,
                **sim_kwargs,
            )
            for index, benchmark in enumerate(benchmarks)
        ]
        alone = [
            run.cores[0].ipc
            for run in api.submit_many(alone_jobs, runtime=runtime)
        ]
        together = result.ipcs()
        print(
            f"WS={weighted_speedup(together, alone):.3f} "
            f"HS={harmonic_speedup(together, alone):.3f} "
            f"UF={unfairness(together, alone):.2f}"
        )
    return 0


def _cmd_benchmarks(_args) -> int:
    print(f"{'name':<16}{'class':>6}{'apki':>7}{'run':>8}{'streams':>8}")
    for profile in ALL_BENCHMARKS:
        print(
            f"{profile.name:<16}{profile.pf_class:>6}{profile.apki:>7.1f}"
            f"{profile.run_length:>8}{profile.num_streams:>8}"
        )
    print(f"\n{len(ALL_BENCHMARKS)} profiles (class 0=insensitive, 1=friendly, 2=unfriendly)")
    return 0


def _cmd_cost(args) -> int:
    cost = padc_storage_cost(
        num_cores=args.cores,
        cache_lines_per_core=args.cache_lines,
        request_buffer_entries=args.buffer_entries,
        with_ranking=args.ranking,
    )
    for field, bits in cost.as_dict().items():
        print(f"{field:<10}{bits:>10} bits")
    l2_bytes = args.cache_lines * 64 * args.cores
    print(f"{'':<10}{cost.total_bits / 8192:>10.2f} KB")
    print(f"fraction of L2 capacity: {cost_as_fraction_of_l2(cost, l2_bytes):.4f}")
    print(f"without P bits: {cost.total_bits_without_p_bits} bits")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv = list(args.names)
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        argv.append("--no-cache")
    if args.check:
        argv.append("--check")
    return experiments_main(argv)


def _cmd_campaign(args) -> int:
    from repro.campaign.__main__ import main as campaign_main

    return campaign_main(args.rest)


def _cmd_telemetry(args) -> int:
    from repro.telemetry.__main__ import main as telemetry_main

    return telemetry_main(args.rest)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "benchmarks": _cmd_benchmarks,
    "cost": _cmd_cost,
    "experiment": _cmd_experiment,
    "campaign": _cmd_campaign,
    "telemetry": _cmd_telemetry,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
