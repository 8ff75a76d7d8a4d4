"""Phase-split CLI: ``python -m repro.bench``.

``python -m repro.bench [--scale S] [--policies a,b]`` runs the
macrobench mix once per policy under cProfile and prints one row per
policy: the self-time share of each phase bucket (workload / core_cache
/ prefetcher / controller / telemetry / other) and the front-end total
(DESIGN.md §15).  ``$REPRO_BACKEND`` picks the scheduling round; each
row names the backend that ran.  Throughput is measured by
``python3 perfbench/run.py``, not here.

Examples::

    python -m repro.bench --scale tiny --policies fcfs,padc
    REPRO_BACKEND=reference python -m repro.bench --scale medium
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import SCALES
from repro.bench.phases import phase_table, run_phases


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        default="quick",
        help="accesses per core, by scale name (default: quick)",
    )
    parser.add_argument(
        "--policies",
        default="padc",
        help="comma-separated policy list (default: padc)",
    )
    args = parser.parse_args(argv)
    for policy in filter(None, args.policies.split(",")):
        for line in phase_table([run_phases(policy, args.scale)]):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
