"""Per-benchmark workload profiles (the synthetic stand-in for Table 5).

Knob semantics:

* ``apki`` — L2 accesses per 1000 instructions (memory intensity; sets
  the mean inter-access instruction gap).
* ``stream_fraction`` — fraction of accesses that belong to sequential
  runs (the rest are random accesses over ``ws_lines``).
* ``run_length`` — mean lines per sequential run.  This single knob
  controls both row-buffer locality and stream-prefetch accuracy: runs
  much longer than the prefetch distance (64 lines) make prefetches
  useful; runs shorter than it make the prefetcher issue far-ahead,
  never-used requests (the art/galgel/ammp failure mode of §1).
* ``num_streams`` — concurrent sequential contexts.
* ``ws_lines`` — random-component working set, in lines.  Working sets
  that fit in the L2 turn the random component into cache hits
  (prefetch-insensitive benchmarks); larger ones produce irregular
  misses the stream prefetcher cannot cover.
* ``reuse_fraction`` — probability a random access re-touches a recently
  used line (temporal locality → L2 hits).
* ``hot_lines`` / ``hot_fraction`` — a hot subset of the working set that
  fits in the cache *as long as useless prefetches do not thrash it*;
  this is what makes prefetch-unfriendly benchmarks lose performance to
  cache pollution (paper §1: galgel's MPKI nearly doubles).
* ``phase_period`` / bad-phase overrides — milc-style alternation between
  accurate and inaccurate prefetch phases (Figure 4(b));
  ``bad_phase_ratio`` bad periods follow each good period.
* ``pf_class`` — the paper's classification: 0 insensitive, 1 friendly,
  2 unfriendly.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generator parameters for one synthetic benchmark."""

    name: str
    pf_class: int
    apki: float
    stream_fraction: float
    run_length: int
    num_streams: int = 4
    ws_lines: int = 1 << 20
    reuse_fraction: float = 0.0
    phase_period: int = 0
    bad_phase_stream_fraction: float = 0.0
    bad_phase_run_length: int = 4
    bad_phase_ratio: int = 1
    hot_lines: int = 0
    hot_fraction: float = 0.0
    # Fraction of accesses that are stores (write-allocate; dirty lines
    # write back to DRAM on eviction).  The calibrated SPEC-like profiles
    # leave this at 0 — the paper's traffic categories are read-side —
    # but custom profiles can model store-heavy workloads with it.
    write_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise ValueError("stream_fraction must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.apki <= 0:
            raise ValueError("apki must be positive")
        if self.run_length < 2:
            raise ValueError("run_length must be >= 2")


def _p(name, pf_class, apki, sf, run, streams=4, ws=1 << 20, reuse=0.0, **kw):
    return BenchmarkProfile(
        name=name,
        pf_class=pf_class,
        apki=apki,
        stream_fraction=sf,
        run_length=run,
        num_streams=streams,
        ws_lines=ws,
        reuse_fraction=reuse,
        **kw,
    )


# The 28 benchmarks named in Table 5, tuned to their reported class,
# intensity (MPKI), row-buffer locality and prefetch accuracy.
_NAMED: List[BenchmarkProfile] = [
    # -- prefetch-insensitive (class 0) -----------------------------------
    _p("eon_00", 0, 0.15, 0.2, 64, ws=1 << 11, reuse=0.6),
    _p("sjeng_06", 0, 1.2, 0.1, 32, ws=1 << 12, reuse=0.5),
    _p("gamess_06", 0, 0.2, 0.3, 64, ws=1 << 11, reuse=0.6),
    _p("hmmer_06", 0, 1.8, 0.9, 2048, streams=2, ws=1 << 12, reuse=0.4),
    # -- prefetch-friendly (class 1) ---------------------------------------
    _p("mgrid_00", 1, 14.0, 0.97, 2048, streams=4, ws=1 << 22),
    _p("facerec_00", 1, 8.0, 0.8, 512, streams=4, ws=1 << 20, reuse=0.2),
    _p("lucas_00", 1, 16.0, 0.9, 1024, streams=2, ws=1 << 21),
    _p("mcf_06", 1, 30.0, 0.4, 110, streams=8, ws=1 << 22, reuse=0.1),
    _p("libquantum_06", 1, 24.0, 0.98, 1 << 20, streams=2, ws=1 << 22),
    _p("zeusmp_06", 1, 12.0, 0.7, 200, streams=8, ws=1 << 20, reuse=0.1),
    _p("leslie3d_06", 1, 28.0, 0.95, 1024, streams=4, ws=1 << 22),
    _p("GemsFDTD_06", 1, 22.0, 0.95, 768, streams=4, ws=1 << 22),
    _p("wrf_06", 1, 18.0, 0.95, 1024, streams=6, ws=1 << 21),
    _p("swim_00", 1, 28.0, 0.96, 2048, streams=4, ws=1 << 22),
    _p("equake_00", 1, 20.0, 0.95, 2048, streams=4, ws=1 << 21),
    _p("gcc_06", 1, 12.0, 0.5, 130, streams=6, ws=1 << 19, reuse=0.2),
    _p("astar_06", 1, 18.0, 0.35, 90, streams=4, ws=1 << 21, reuse=0.1),
    _p("bwaves_06", 1, 26.0, 0.97, 4096, streams=4, ws=1 << 22),
    _p("cactusADM_06", 1, 11.0, 0.6, 150, streams=6, ws=1 << 20, reuse=0.1),
    _p("soplex_06", 1, 22.0, 0.88, 512, streams=4, ws=1 << 21),
    _p("lbm_06", 1, 28.0, 0.96, 2048, streams=4, ws=1 << 22),
    _p("sphinx3_06", 1, 18.0, 0.8, 256, streams=4, ws=1 << 21, reuse=0.1),
    # -- prefetch-unfriendly (class 2) ---------------------------------------
    _p("art_00", 2, 60.0, 0.9, 64, streams=6, ws=1 << 16, reuse=0.05,
       hot_lines=5_000, hot_fraction=0.5),
    _p("galgel_00", 2, 12.0, 0.55, 56, streams=8, ws=200_000, reuse=0.05,
       hot_lines=6_000, hot_fraction=0.75),
    _p("ammp_00", 2, 4.0, 0.45, 24, streams=4, ws=200_000, reuse=0.05,
       hot_lines=6_000, hot_fraction=0.7),
    _p(
        "milc_06",
        2,
        30.0,
        0.9,
        256,
        streams=4,
        ws=1 << 22,
        phase_period=3_000,
        bad_phase_stream_fraction=0.9,
        bad_phase_run_length=4,
        bad_phase_ratio=3,
    ),
    _p("omnetpp_06", 2, 14.0, 0.45, 32, streams=4, ws=300_000, reuse=0.05,
       hot_lines=7_000, hot_fraction=0.55),
    _p("xalancbmk_06", 2, 4.0, 0.5, 24, streams=4, ws=200_000, reuse=0.05,
       hot_lines=6_000, hot_fraction=0.7),
]

# 27 additional profiles to round the population out to the paper's 55,
# spanning the same classes in roughly the same proportions (the paper has
# 29 class-1 benchmarks out of 55).
_FILLER: List[BenchmarkProfile] = [
    _p("gzip_00", 0, 1.0, 0.4, 128, ws=1 << 13, reuse=0.4),
    _p("vpr_00", 0, 1.5, 0.2, 32, ws=1 << 13, reuse=0.4),
    _p("gcc_00", 1, 4.0, 0.5, 160, streams=6, ws=1 << 18, reuse=0.2),
    _p("mesa_00", 0, 0.8, 0.5, 128, ws=1 << 12, reuse=0.5),
    _p("applu_00", 1, 18.0, 0.9, 1024, streams=4, ws=1 << 21),
    _p("crafty_00", 0, 0.5, 0.2, 32, ws=1 << 12, reuse=0.5),
    _p("parser_00", 0, 1.2, 0.3, 48, ws=1 << 14, reuse=0.4),
    _p("sixtrack_00", 0, 0.4, 0.6, 256, ws=1 << 12, reuse=0.4),
    _p("perlbmk_00", 0, 0.6, 0.3, 64, ws=1 << 12, reuse=0.5),
    _p("gap_00", 1, 3.0, 0.7, 512, streams=4, ws=1 << 18),
    _p("vortex_00", 0, 1.0, 0.4, 96, ws=1 << 14, reuse=0.4),
    _p("bzip2_00", 1, 2.5, 0.7, 384, streams=4, ws=1 << 17, reuse=0.2),
    _p("twolf_00", 2, 3.0, 0.5, 12, streams=4, ws=150_000, reuse=0.1,
       hot_lines=6_000, hot_fraction=0.65),
    _p("wupwise_00", 1, 14.0, 0.9, 1024, streams=4, ws=1 << 20),
    _p("apsi_00", 1, 12.0, 0.8, 512, streams=6, ws=1 << 20),
    _p("fma3d_00", 1, 16.0, 0.8, 640, streams=6, ws=1 << 20),
    _p("mcf_00", 1, 35.0, 0.45, 128, streams=8, ws=1 << 22, reuse=0.1),
    _p("perlbench_06", 0, 0.8, 0.3, 64, ws=1 << 13, reuse=0.5),
    _p("bzip2_06", 1, 3.0, 0.7, 384, streams=4, ws=1 << 17, reuse=0.2),
    _p("gobmk_06", 0, 0.7, 0.2, 32, ws=1 << 13, reuse=0.5),
    _p("dealII_06", 0, 1.5, 0.6, 192, ws=1 << 14, reuse=0.3),
    _p("povray_06", 0, 0.3, 0.3, 64, ws=1 << 11, reuse=0.6),
    _p("calculix_06", 0, 0.9, 0.6, 256, ws=1 << 13, reuse=0.3),
    _p("gromacs_06", 1, 2.0, 0.7, 448, streams=4, ws=1 << 16, reuse=0.2),
    _p("namd_06", 1, 1.8, 0.7, 512, streams=4, ws=1 << 16, reuse=0.2),
    _p("tonto_06", 1, 2.2, 0.7, 448, streams=4, ws=1 << 16, reuse=0.2),
    _p("h264ref_06", 1, 2.0, 0.75, 512, streams=4, ws=1 << 16, reuse=0.2),
]

ALL_BENCHMARKS: Tuple[BenchmarkProfile, ...] = tuple(_NAMED + _FILLER)

_BY_NAME: Dict[str, BenchmarkProfile] = {p.name: p for p in ALL_BENCHMARKS}

# Short aliases: "swim" -> "swim_00", "milc" -> "milc_06", etc.
for _profile in ALL_BENCHMARKS:
    _short = _profile.name.rsplit("_", 1)[0]
    _BY_NAME.setdefault(_short, _profile)


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a profile by full (``swim_00``) or short (``swim``) name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        close = difflib.get_close_matches(str(name), list(_BY_NAME), n=3)
        hint = f" (did you mean {', '.join(close)}?)" if close else ""
        raise KeyError(
            f"unknown benchmark {name!r}{hint}; known: {sorted(_BY_NAME)}"
        ) from None


def profiles_by_class(pf_class: int) -> List[BenchmarkProfile]:
    """All profiles with the given prefetch-friendliness class."""
    return [p for p in ALL_BENCHMARKS if p.pf_class == pf_class]
