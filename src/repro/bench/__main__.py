"""Benchmark CLI: ``python -m repro.bench``.

Runs the tick-loop microbench and the campaign-preset macrobench over the
policy matrix and both backends (event / reference), verifies their
byte-identity first, prints the timings, and writes the schema-versioned
report when ``--out`` is given.  It exits non-zero only on an
equivalence mismatch: the speed gate of record is
``python3 perfbench/run.py`` and its ``compare`` command.

``--phases`` adds the phase-attributed profile (DESIGN.md §15): one
cProfile pass per policy whose self-time is bucketed into workload /
core_cache / prefetcher / controller / telemetry / other, printed as a
table and recorded in the report.

Examples::

    python -m repro.bench --phases --scale tiny   # CI smoke
    python -m repro.bench --phases --scale medium --out /tmp/bench.json
    python -m repro.bench --policies padc --profile
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import (
    DEFAULT_POLICIES,
    SCALES,
    build_report,
    run_macro,
    write_report,
)
from repro.bench.phases import phase_table
from repro.params import BACKENDS


def _profile_macro(policy: str, scale: str, backend: str = "event") -> None:
    """Profile the macrobench run for one policy and backend.

    Uses ``pyinstrument`` when it is importable, ``cProfile`` (stdlib)
    otherwise — nothing is installed on demand.
    """
    try:
        from pyinstrument import Profiler  # type: ignore
    except ImportError:
        Profiler = None
    if Profiler is not None:
        profiler = Profiler()
        profiler.start()
        run_macro(policy, scale, backend)
        profiler.stop()
        print(profiler.output_text(unicode=True, color=False))
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run_macro(policy, scale, backend)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(25)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="benchmark sizing (default: quick)",
    )
    parser.add_argument(
        "--policies",
        default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy list (default: the golden matrix)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here (default: print only)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="best-of-N repeats per measurement (default: 1)",
    )
    parser.add_argument(
        "--skip-verify",
        action="store_true",
        help="skip the event==reference equivalence sweep",
    )
    parser.add_argument(
        "--skip-micro",
        action="store_true",
        help="skip the tick-loop microbench",
    )
    parser.add_argument(
        "--skip-trace",
        action="store_true",
        help="skip the .rtr trace encode/decode throughput bench",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="add the phase-attributed cProfile breakdown (workload / "
        "core_cache / prefetcher / controller / telemetry / other) per "
        "policy to the report and print it as a table",
    )
    parser.add_argument(
        "--phase-backend",
        default="event",
        choices=BACKENDS,
        help="backend the phase attribution profiles (default: event)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the event-backend padc macrobench (pyinstrument when "
        "available, else cProfile) and exit",
    )
    args = parser.parse_args(argv)
    policies = [p for p in args.policies.split(",") if p]

    if args.profile:
        _profile_macro(policies[0] if policies else "padc", args.scale)
        return 0

    report = build_report(
        args.scale,
        policies,
        repeats=args.repeats,
        verify=not args.skip_verify,
        run_micro_bench=not args.skip_micro,
        run_trace_bench=not args.skip_trace,
        phases=args.phases,
        phase_backend=args.phase_backend,
        progress=lambda message: print(f"[bench] {message}", flush=True),
    )

    exit_code = 0
    equivalence = report.get("equivalence")
    if equivalence is not None:
        if equivalence["mismatches"]:
            print(
                f"[bench] EQUIVALENCE FAILURE ({len(equivalence['mismatches'])}"
                f"/{equivalence['cases']} cases):",
                file=sys.stderr,
            )
            for case in equivalence["mismatches"]:
                print(f"[bench]   {case}", file=sys.stderr)
            exit_code = 1
        else:
            print(
                f"[bench] equivalence: {equivalence['cases']} cases x "
                f"{len(equivalence['backends'])} backends, all byte-identical"
            )

    for policy, entry in report["macro"]["policies"].items():
        print(
            f"[bench] {policy:18s} event "
            f"{entry['event']['cycles_per_sec']:>12,.0f} cyc/s | reference "
            f"{entry['reference']['cycles_per_sec']:>12,.0f} cyc/s "
            f"({entry['speedup_end_to_end']:.2f}x end-to-end, tick-loop "
            f"{entry['speedup_tick_loop']:.2f}x)"
        )

    trace_bench = report.get("trace")
    if trace_bench is not None:
        print(
            f"[bench] trace: encode "
            f"{trace_bench['encode_entries_per_sec']:>12,.0f} entries/s, "
            f"decode {trace_bench['decode_entries_per_sec']:>12,.0f} entries/s "
            f"({trace_bench['bytes_per_entry']:.2f} B/entry, "
            f"{trace_bench['entries']:,} entries)"
        )

    phases_section = report.get("phases")
    if phases_section is not None:
        print(
            f"[bench] phases ({phases_section['backend']} backend, "
            "self-time shares):"
        )
        for line in phase_table(phases_section["policies"].values()):
            print(f"[bench]   {line}")

    if args.out:
        write_report(args.out, report)
        print(f"[bench] wrote {args.out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
