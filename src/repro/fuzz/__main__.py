"""Differential fuzzer CLI: ``python -m repro.fuzz``.

Sweeps seeded random cases (workload profiles × policy × config × seed)
over both simulation backends in checked mode and fails loudly — with a
shrunk minimal repro — on any byte divergence between their
``SimResult`` outputs or any invariant violation.

Examples::

    python -m repro.fuzz --cases 200            # the CI sweep
    python -m repro.fuzz --cases 50 --start-seed 1000
    python -m repro.fuzz --case 1234            # re-run one case verbosely
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.fuzz import BACKENDS, random_case, run_case, run_fuzz, shrink
from repro.params import BackendError, resolve_backend


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--cases", type=int, default=200, help="number of cases (default: 200)"
    )
    parser.add_argument(
        "--start-seed",
        type=int,
        default=0,
        help="first case seed; case i uses seed start+i (default: 0)",
    )
    parser.add_argument(
        "--backends",
        default=",".join(BACKENDS),
        help=f"comma-separated backend list (default: {','.join(BACKENDS)})",
    )
    parser.add_argument(
        "--case",
        type=int,
        default=None,
        help="re-run a single case seed and print its full description",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing cases without shrinking",
    )
    args = parser.parse_args(argv)
    backends = [b for b in args.backends.split(",") if b]
    # Validate before any case runs: an unknown name would otherwise
    # surface as a crash "divergence" on every case (and be shrunk), and
    # a single backend would compare nothing yet report success.
    try:
        for backend in backends:
            resolve_backend(backend)
    except BackendError as exc:
        parser.error(f"--backends: {exc}")
    if len(set(backends)) < 2:
        parser.error(
            f"--backends needs at least two distinct backends to compare; "
            f"known backends: {', '.join(BACKENDS)}"
        )

    if args.case is not None:
        case = random_case(args.case)
        print(f"[fuzz] {case.describe()}")
        print(json.dumps(case.to_dict(), indent=2, default=str))
        diverged = run_case(case, backends)
        if diverged:
            print(f"[fuzz] DIVERGENCE: {diverged}", file=sys.stderr)
            shrunk = shrink(case, backends)
            print(f"[fuzz] shrunk: {shrunk.describe()}", file=sys.stderr)
            return 1
        print(f"[fuzz] byte-identical across {backends}")
        return 0

    report = run_fuzz(
        args.cases,
        start_seed=args.start_seed,
        backends=backends,
        shrink_failures=not args.no_shrink,
        progress=lambda message: print(f"[fuzz] {message}", flush=True),
    )
    if report["failures"]:
        print(
            f"[fuzz] {len(report['failures'])}/{report['cases']} cases diverged:",
            file=sys.stderr,
        )
        for failure in report["failures"]:
            print(f"[fuzz]   {failure['case']}", file=sys.stderr)
            if "crash" in failure:
                print(f"[fuzz]     crash: {failure['crash']}", file=sys.stderr)
            if "shrunk" in failure:
                print(f"[fuzz]     shrunk: {failure['shrunk']}", file=sys.stderr)
                print(
                    "[fuzz]     repro: python -m repro.fuzz --case "
                    f"{failure['case_seed']}",
                    file=sys.stderr,
                )
        return 1
    print(
        f"[fuzz] {report['cases']} cases x {len(backends)} backends, "
        "all byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
