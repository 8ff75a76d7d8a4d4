"""Stored rows pin the sensitivity figures that average random mixes.

Figures 23, 25 and 28–32 each run a grid of 4-core mixes and reduce it
to WS (and bus traffic) against demand-first alone runs.  However a
figure reaches its simulations — a campaign, ``run_policies`` or
``run_configs`` — its title, notes and rows at a fixed small scale must
not move.  ``tests/golden/figure_rows.json`` holds them; each case runs
its figure serially from a fresh result cache (the suite's per-test
cache directory) and compares ``json.dumps(..., sort_keys=True)`` text.

A deliberate behaviour change regenerates the file with
``PYTHONPATH=src python tests/test_figure_rows.py``.
"""

import json
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from repro import runtime
from repro.experiments import Scale, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "figure_rows.json"

SCALE = Scale(
    accesses=200,
    mixes_2core=1,
    mixes_4core=2,
    mixes_8core=1,
    single_core_benches=2,
)

FIGURES = ("fig23", "fig25", "fig28", "fig29", "fig30", "fig31", "fig32")


def figure_payload(name: str) -> Dict:
    result = run_experiment(name, SCALE)
    return {"title": result.title, "notes": result.notes, "rows": result.rows}


def _text(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def test_golden_file_covers_every_figure():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(FIGURES)


@pytest.mark.parametrize("name", FIGURES)
def test_figure_rows(name):
    stored = json.loads(GOLDEN.read_text())[name]
    assert _text(figure_payload(name)) == _text(stored)


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        runtime.configure(jobs=1, cache_dir=cache_dir)
        payload = {name: figure_payload(name) for name in FIGURES}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
