"""``python -m repro.telemetry`` — render and produce telemetry traces.

Subcommands::

    # per-interval report + phase summary from a saved SimResult JSON
    python -m repro.telemetry report result.json

    # run a quick traced simulation (through repro.api) and report it
    python -m repro.telemetry run --benchmarks swim,art --policy padc

    # phase summaries for every traced result of a campaign
    python -m repro.telemetry campaign runs/campaigns/smoke-abc123

``report`` accepts either a raw ``SimResult.to_dict()`` payload or a
result-store entry (the ``{"key", "version", "result"}`` envelope) and
exits 2 when the result carries no trace — i.e. the run was not made
with ``telemetry=True``.

``run --aggregates FILE`` writes the result *minus* its trace with
sorted keys; CI diffs these files between a traced and an untraced run
to enforce the telemetry-off equivalence contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.sim.results import SimResult
from repro.telemetry.report import phase_summary, render_report
from repro.telemetry.trace import TraceSchemaError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.telemetry",
        description="interval telemetry: reports and traced quick runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="render a saved SimResult's trace")
    report.add_argument("file", help="SimResult JSON (raw or result-store entry)")
    report.add_argument("--max-rows", type=int, default=40)
    report.add_argument(
        "--summary-only", action="store_true", help="skip the interval table"
    )

    run = sub.add_parser("run", help="run one traced simulation and report it")
    run.add_argument(
        "--benchmarks",
        required=True,
        help="comma-separated benchmark names (one per core)",
    )
    run.add_argument("--policy", default="padc")
    run.add_argument("--accesses", type=int, default=4_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--interval",
        type=int,
        default=None,
        help="accuracy/sampling interval in cycles (default: config value)",
    )
    run.add_argument("--check", action="store_true", help="checked mode")
    run.add_argument(
        "--no-trace",
        action="store_true",
        help="run with telemetry off (for equivalence checks)",
    )
    run.add_argument("--output", default=None, help="write the full result JSON here")
    run.add_argument(
        "--aggregates",
        default=None,
        help="write the result JSON minus its trace here (sorted keys)",
    )
    run.add_argument("--max-rows", type=int, default=40)
    run.add_argument("--quiet", action="store_true", help="no report, files only")

    campaign = sub.add_parser(
        "campaign", help="phase summaries for a campaign's traced results"
    )
    campaign.add_argument("directory", help="campaign directory (spec + job store)")
    campaign.add_argument(
        "--cache-dir",
        default=None,
        help="result store (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    return parser


def _load_result(path: str) -> Optional[SimResult]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return None
    if isinstance(payload, dict) and "result" in payload and "cores" not in payload:
        payload = payload["result"]  # result-store envelope
    try:
        return SimResult.from_dict(payload)
    except (KeyError, TypeError, TraceSchemaError) as error:
        print(f"error: {path} is not a SimResult payload: {error}", file=sys.stderr)
        return None


def _report(result: SimResult, max_rows: int, summary_only: bool = False) -> int:
    if result.trace is None:
        print(
            "error: result has no telemetry trace "
            "(run with telemetry=True / without --no-trace)",
            file=sys.stderr,
        )
        return 2
    trace = result.trace.validate()
    if not summary_only:
        print(render_report(trace, max_rows=max_rows))
        print()
    print("phase summary:")
    for line in phase_summary(trace):
        print(f"  * {line}")
    return 0


def _cmd_report(args) -> int:
    result = _load_result(args.file)
    if result is None:
        return 2
    return _report(result, args.max_rows, args.summary_only)


def _cmd_run(args) -> int:
    from repro import api
    from repro.params import PolicyError, baseline_config

    benchmarks = [name.strip() for name in args.benchmarks.split(",") if name.strip()]
    try:
        config = baseline_config(len(benchmarks), policy=args.policy)
    except PolicyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.interval is not None:
        config = config.with_policy(args.policy, accuracy_interval=args.interval)
    result = api.simulate(
        config,
        benchmarks,
        args.accesses,
        seed=args.seed,
        check=True if args.check else None,
        telemetry=not args.no_trace,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=1, sort_keys=True)
    if args.aggregates:
        aggregates = result.to_dict()
        aggregates.pop("trace", None)
        with open(args.aggregates, "w", encoding="utf-8") as handle:
            json.dump(aggregates, handle, indent=1, sort_keys=True)
    if args.quiet:
        return 0
    if args.no_trace:
        print(f"policy={result.policy} cycles={result.total_cycles} (untraced)")
        return 0
    return _report(result, args.max_rows)


def _cmd_campaign(args) -> int:
    from repro.campaign import Campaign, CampaignError
    from repro.runtime.store import ResultStore

    try:
        campaign = Campaign.open(args.directory)
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = ResultStore(args.cache_dir)
    states = campaign.states()
    traced = untraced = missing = 0
    for job in campaign.unique_jobs():
        if states[job.key].status != "done":
            continue
        result = store.get(job.key)
        if result is None:
            missing += 1
            continue
        if result.trace is None:
            untraced += 1
            continue
        traced += 1
        print(f"{job.describe()}:")
        for line in phase_summary(result.trace.validate()):
            print(f"  * {line}")
    print(
        f"{traced} traced result(s), {untraced} untraced, "
        f"{missing} missing from the store"
    )
    return 0 if traced or not (untraced or missing) else 1


_COMMANDS = {
    "report": _cmd_report,
    "run": _cmd_run,
    "campaign": _cmd_campaign,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
