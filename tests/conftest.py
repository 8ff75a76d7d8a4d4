"""Shared fixtures for the test suite."""

import os

import pytest

from repro import runtime as repro_runtime

from repro.params import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    DRAMTimings,
    PADCConfig,
    PrefetcherConfig,
    SystemConfig,
    baseline_config,
)


@pytest.fixture(autouse=True)
def _isolated_runtime(tmp_path, monkeypatch):
    """Point the result cache at a per-test directory, never ~/.cache.

    Also drops any runtime installed by a previous test's configure()
    call, so every test starts from the env-derived default (serial,
    cache enabled, private directory).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    # The whole suite runs under checked mode: every simulation audits its
    # conservation laws (repro/validate).  An explicit REPRO_CHECK in the
    # environment (e.g. REPRO_CHECK=0 while bisecting) still wins.
    monkeypatch.setenv("REPRO_CHECK", os.environ.get("REPRO_CHECK", "1"))
    # Trace workloads must never leak across tests: drop any registered
    # names and ignore a $REPRO_TRACE_PATH from the invoking shell.
    monkeypatch.delenv("REPRO_TRACE_PATH", raising=False)
    from repro.trace import unregister_traces

    unregister_traces()
    repro_runtime.reset()
    yield
    unregister_traces()
    repro_runtime.reset()


@pytest.fixture
def timings():
    return DRAMTimings()


@pytest.fixture
def dram_config():
    return DRAMConfig()


@pytest.fixture
def small_cache_config():
    """A tiny cache so eviction paths are easy to exercise."""
    return CacheConfig(size_bytes=8 * 1024, associativity=2, mshr_entries=8)


@pytest.fixture
def single_core_config():
    return baseline_config(1, policy="demand-first")


@pytest.fixture
def quad_core_config():
    return baseline_config(4, policy="padc")


def tiny_system_config(policy="padc", num_cores=1, **kwargs):
    """A deliberately small system for fast integration tests."""
    return SystemConfig(
        num_cores=num_cores,
        core=CoreConfig(rob_size=64, retire_width=4, **kwargs),
        cache=CacheConfig(size_bytes=32 * 1024, associativity=4, mshr_entries=8),
        dram=DRAMConfig(request_buffer_size=16),
        prefetcher=PrefetcherConfig(),
        padc=PADCConfig(accuracy_interval=5_000),
        policy=policy,
    )


@pytest.fixture
def tiny_config():
    return tiny_system_config()


def trace_config(sets=1, ways=2, policy="no-pref", prefetcher=None, core=None):
    """A one-core system with a ``sets`` x ``ways`` L2, for hand-written traces."""
    return SystemConfig(
        core=core or CoreConfig(),
        cache=CacheConfig(
            size_bytes=sets * ways * 64, associativity=ways, mshr_entries=8
        ),
        prefetcher=prefetcher or PrefetcherConfig(kind="none"),
        policy=policy,
    )


def trace_system(config, trace=()):
    """Build a one-core ``System`` that replays a hand-written trace.

    ``trace`` is an iterable of ``TraceEntry``.  The ``System`` is built
    on a placeholder benchmark whose trace is then replaced (as
    ``perfbench/spans.py`` wraps it), so every line address is exactly
    the one given.  It runs under the invariant checker.
    """
    from repro.sim.system import System

    system = System(config, ["swim"], check=True)
    system.cores[0].trace = iter(trace)
    return system


def run_trace(config, trace):
    """Run :func:`trace_system` over ``trace`` (a list) to its end.

    Returns ``(system, result)``.  The loop stops once the core has
    issued its last access, so the fill of a miss in that last access
    never lands; a core that never finishes is cut at 10M cycles.
    """
    system = trace_system(config, trace)
    return system, system.run(len(trace), max_cycles=10_000_000)
