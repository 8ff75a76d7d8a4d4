"""CLI for sweep campaigns.

Usage::

    python -m repro.campaign run --name smoke                 # preset
    python -m repro.campaign run --spec my_sweep.json -j 8    # custom grid
    python -m repro.campaign status <campaign-dir>
    python -m repro.campaign resume <campaign-dir> -j 8
    python -m repro.campaign export <campaign-dir> --format csv -o out.csv

Multi-worker execution (shared job store with lease-based crash
reclaim)::

    python -m repro.campaign create --name paper
    python -m repro.campaign worker <campaign-dir> &   # as many as you like,
    python -m repro.campaign worker <campaign-dir>     # on any machine
    python -m repro.campaign serve --port 8642         # JSON API + dashboard

Pass ``--stream`` to ``worker`` (or to a serial ``run``/``resume``) to
stream per-interval telemetry into the campaign store while jobs run;
``serve`` then renders it live at ``/dashboard`` (DESIGN.md §14).
Streaming never changes results, cache keys or exports.

``run`` prints the campaign directory it used; ``status``/``resume``/
``export`` take that directory.  Every campaign keeps its job states in
``jobs.sqlite`` inside that directory.  A ``run`` over a directory that
already has journal entries refuses to proceed unless you pass
``--resume`` (continue unfinished work) or ``--fresh`` (discard the job
store and drive every job again — results still cached in the result
store stay warm).

Workers drain gracefully on SIGTERM (current job finishes and is
journaled) and lose nothing on SIGKILL (the lease expires; the job is
reclaimed).

Exit codes: 0 on success, 1 if any job is failed/unfinished, 2 on usage
or spec errors.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.campaign.executor import (
    Campaign,
    CampaignError,
    CampaignRunner,
    default_directory,
)
from repro.campaign.jobstore import DEFAULT_LEASE
from repro.campaign.report import status_summary
from repro.campaign.spec import CampaignSpec, SpecError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Declarative sweep campaigns with a persistent job store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand a spec and run its jobs")
    _add_spec_source(run)
    run.add_argument("--dir", help="campaign directory (default: derived from the spec)")
    run.add_argument(
        "--resume",
        action="store_true",
        help="continue an existing campaign: re-run only unfinished jobs",
    )
    run.add_argument(
        "--fresh",
        action="store_true",
        help="discard the existing job store and drive every job again",
    )
    run.add_argument(
        "--limit",
        type=int,
        default=None,
        help="run at most N jobs then stop (smoke/testing hook; the rest stay pending)",
    )
    _add_execution_flags(run)

    create = sub.add_parser(
        "create",
        help="snapshot a spec and enqueue its jobs without executing "
        "(workers do the executing)",
    )
    _add_spec_source(create)
    create.add_argument(
        "--dir", help="campaign directory (default: derived from the spec)"
    )

    status = sub.add_parser("status", help="progress/failure report from the job store")
    status.add_argument("directory", help="campaign directory")

    resume = sub.add_parser("resume", help="re-run only pending/failed jobs")
    resume.add_argument("directory", help="campaign directory")
    resume.add_argument("--limit", type=int, default=None, help=argparse.SUPPRESS)
    _add_execution_flags(resume)

    worker = sub.add_parser(
        "worker",
        help="claim and execute jobs from the campaign's shared job store "
        "until the campaign is drained",
    )
    worker.add_argument("directory", help="campaign directory")
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable identity for leases (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE,
        help="claim lease in seconds; a dead worker's job is reclaimed "
        "this long after its last heartbeat (default: %(default)s)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds to sleep when no job is claimable (default: %(default)s)",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after claiming N jobs (testing hook)",
    )
    worker.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        help="sleep N seconds after each claim before executing "
        "(rate-limiting / lease-reclaim smoke hook)",
    )
    worker.add_argument(
        "--stream",
        action="store_true",
        help="stream per-interval telemetry samples into the job store "
        "while jobs run (feeds the serve dashboard; results unchanged)",
    )
    worker.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts per failing job before its failure is final",
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="result store location (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )

    serve = sub.add_parser(
        "serve", help="JSON-over-HTTP front-end: POST specs, GET status/export"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None, help="default 8642")
    serve.add_argument(
        "--root",
        default=None,
        help="campaigns root served (default $REPRO_CAMPAIGN_DIR or "
        "<cache-dir>/campaigns)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="result store exports read from (default $REPRO_CACHE_DIR)",
    )

    exp = sub.add_parser("export", help="export job + metrics rows")
    exp.add_argument("directory", help="campaign directory")
    exp.add_argument("--format", choices=("csv", "json"), default="csv")
    exp.add_argument("--output", "-o", help="output file (default: stdout)")
    exp.add_argument(
        "--cache-dir", default=None, help="result store the campaign ran against"
    )
    return parser


def _add_spec_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--name", help="predefined campaign (see repro.campaign.presets)"
    )
    source.add_argument("--spec", help="path to a campaign spec JSON file")


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes (0 = one per CPU core; default $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result store location (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts per failing job before its failure is final",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="stream per-interval telemetry samples into the campaign "
        "store while jobs run (serial only; results unchanged)",
    )


def _runtime(args):
    from repro import runtime

    if getattr(args, "jobs", None) is not None or getattr(args, "cache_dir", None):
        return runtime.configure(jobs=getattr(args, "jobs", None), cache_dir=args.cache_dir)
    return runtime.get_runtime()


def _load_spec(args) -> CampaignSpec:
    if args.name:
        from repro.campaign import presets

        return presets.build(args.name)
    path = Path(args.spec)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    # Accept both a bare spec and a campaign.json-style snapshot.
    if isinstance(payload, dict):
        payload = payload.get("spec", payload)
    return CampaignSpec.from_dict(payload)


def _finish_run(campaign: Campaign, run) -> int:
    print(status_summary(campaign))
    print(f"campaign directory: {campaign.directory}")
    return 1 if run.incomplete() else 0


def _cmd_run(args) -> int:
    runtime = _runtime(args)
    spec = _load_spec(args)
    directory = Path(args.dir) if args.dir else default_directory(spec, runtime.store.root)
    campaign = Campaign.create(spec, directory)
    store = campaign.ledger
    if store.exists() and store.records():
        if args.fresh:
            store.clear()
        elif not args.resume:
            print(
                f"error: {directory} already has a job history; "
                "pass --resume to continue it or --fresh to start over",
                file=sys.stderr,
            )
            return 2
    run = CampaignRunner(
        campaign, runtime=runtime, retries=args.retries, stream=args.stream
    ).run(resume=True, limit=args.limit)
    return _finish_run(campaign, run)


def _cmd_create(args) -> int:
    from repro import api

    spec = _load_spec(args)
    directory = Path(args.dir) if args.dir else None
    handle = api.Campaign.create(spec, directory=directory)
    print(f"campaign {handle.name!r}: {len(handle.unique_jobs())} job(s) enqueued")
    print(f"campaign directory: {handle.directory}")
    return 0


def _cmd_status(args) -> int:
    from repro import api

    status = api.campaign_open(args.directory).status()
    print(status["text"])
    return 1 if status["counts"].get("failed", 0) else 0


def _cmd_resume(args) -> int:
    runtime = _runtime(args)
    campaign = Campaign.open(args.directory)
    run = CampaignRunner(
        campaign, runtime=runtime, retries=args.retries, stream=args.stream
    ).run(resume=True, limit=args.limit)
    return _finish_run(campaign, run)


def _cmd_worker(args) -> int:
    from repro.campaign.worker import default_worker_id, run_worker

    runtime = _runtime(args)
    campaign = Campaign.open(args.directory)
    worker_id = args.worker_id or default_worker_id()
    stop = threading.Event()

    def _drain(signum, frame):
        print(f"[{worker_id}] SIGTERM: draining after the current job", file=sys.stderr)
        stop.set()

    # Signal handlers only work in the main thread; the worker CLI owns it.
    previous = signal.signal(signal.SIGTERM, _drain)
    try:
        stats = run_worker(
            campaign,
            runtime=runtime,
            worker_id=worker_id,
            lease=args.lease,
            poll=args.poll,
            retries=args.retries,
            max_jobs=args.max_jobs,
            throttle=args.throttle,
            stream=args.stream,
            should_stop=stop.is_set,
            log=(lambda message: None) if args.quiet else print,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    if stats.drained or args.max_jobs is not None:
        return 0
    counts = campaign.status_counts()
    total = len(campaign.unique_jobs())
    return 0 if counts.get("done", 0) == total else 1


def _cmd_serve(args) -> int:
    from repro.campaign.service import DEFAULT_PORT, serve

    runtime = _runtime(args) if args.cache_dir else None
    serve(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        root=args.root,
        runtime=runtime,
    )
    return 0


def _cmd_export(args) -> int:
    from repro import api, runtime

    explicit = runtime.Runtime(cache_dir=args.cache_dir) if args.cache_dir else None
    handle = api.campaign_open(args.directory, runtime=explicit)
    text = handle.export(fmt=args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "create": _cmd_create,
    "status": _cmd_status,
    "resume": _cmd_resume,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "export": _cmd_export,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, CampaignError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
