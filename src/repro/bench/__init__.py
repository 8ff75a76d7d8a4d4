"""The simulator's phase split and the names perfbench imports (DESIGN.md §15).

The speed harness of record is ``python3 perfbench/run.py`` and its
``compare`` command; this package keeps only what it and the phase
split need:

* :data:`MACRO_MIX`, the campaign-preset padc 4-core mix that perfbench's
  ``mix4-padc`` workload runs, with :data:`MACRO_SEED`,
  :func:`_macro_config` and :data:`SCALES` (accesses per core by scale
  name) sizing the phase-split run;
* :func:`_install_tick_timer`, which perfbench uses to time the
  scheduling round;
* :mod:`repro.bench.phases`, the cProfile pass whose self-time is
  bucketed into workload / core_cache / prefetcher / controller /
  telemetry / other, printed by ``python -m repro.bench``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Tuple

from repro.params import SystemConfig, baseline_config
from repro.sim.system import System

# The campaign-preset mix: the padc 4-core multiprogrammed mix.
MACRO_MIX: Tuple[str, ...] = ("mcf_06", "libquantum_06", "lucas_00", "hmmer_06")
MACRO_SEED = 7

# Accesses per core of the phase-split run, by scale name.
SCALES: Dict[str, int] = {
    "tiny": 1_500,
    "quick": 5_000,
    "medium": 20_000,
    "paper": 50_000,
}


def _macro_config(policy: str) -> SystemConfig:
    return baseline_config(num_cores=len(MACRO_MIX), policy=policy)


class _TickTimer:
    """Accumulates wall time spent inside the scheduling round.

    Installed as an instance attribute on the engine, shadowing the bound
    ``tick`` method; the simulation loop looks ``engine.tick`` up when a
    run starts, so every round of that run goes through the timer.
    """

    __slots__ = ("_inner", "elapsed", "calls")

    def __init__(self, inner):
        self._inner = inner
        self.elapsed = 0.0
        self.calls = 0

    def __call__(self, channel_id: int, now: int):
        start = perf_counter()
        result = self._inner(channel_id, now)
        self.elapsed += perf_counter() - start
        self.calls += 1
        return result


def _install_tick_timer(system: System, backend: str) -> _TickTimer:
    """Time every scheduling round of ``system``'s next run.

    Both backends reach the round through ``engine.tick``, so ``backend``
    no longer changes anything; the parameter stays because perfbench
    calls ``_install_tick_timer(system, system.backend)``.
    """
    engine = system.engine
    timer = _TickTimer(engine.tick)
    engine.tick = timer  # instance attr shadows the bound method
    return timer
