"""Tests for the phase-attributed profiling layer (repro.bench.phases)."""

import pytest

from repro.bench.phases import (
    FRONT_END_BUCKETS,
    PHASE_BUCKETS,
    classify,
    phase_table,
    run_phases,
)
from repro.params import BACKENDS


class TestBucketContract:
    def test_bucket_names_are_stable(self):
        # The exact tuple is a contract: the CLI table and the CI
        # assertion key on these names in this order.
        assert PHASE_BUCKETS == (
            "workload",
            "core_cache",
            "prefetcher",
            "controller",
            "telemetry",
            "other",
        )

    def test_front_end_buckets_are_a_subset(self):
        assert set(FRONT_END_BUCKETS) < set(PHASE_BUCKETS)
        assert "controller" not in FRONT_END_BUCKETS

    @pytest.mark.parametrize(
        "filename,funcname,bucket",
        [
            ("/x/src/repro/workloads/synthetic.py", "generate", "workload"),
            ("/x/src/repro/trace/format.py", "entry_batches", "workload"),
            ("/x/src/repro/sim/system.py", "_handle_core", "core_cache"),
            ("/x/src/repro/sim/loop.py", "run_loop", "core_cache"),
            ("/x/src/repro/cache/cache.py", "lookup", "core_cache"),
            ("/x/src/repro/core/core.py", "rob_blocked", "core_cache"),
            ("/x/src/repro/prefetch/stream.py", "access", "prefetcher"),
            ("/x/src/repro/controller/engine.py", "tick", "controller"),
            ("/x/src/repro/dram/bank.py", "service", "controller"),
            ("/x/src/repro/telemetry/collector.py", "sample", "telemetry"),
            ("/x/src/repro/metrics/speedup.py", "ipc", "telemetry"),
            ("~", "<built-in method builtins.len>", "other"),
            ("/usr/lib/python3.11/heapq.py", "heappush", "other"),
            (
                "~",
                "<method 'geometric' of 'numpy.random._generator.Generator'"
                " objects>",
                "workload",
            ),
        ],
    )
    def test_classify(self, filename, funcname, bucket):
        assert classify(filename, funcname) == bucket


class TestRunPhases:
    @pytest.fixture(scope="class")
    def entry(self):
        return run_phases("padc", "tiny")

    def test_every_bucket_reported(self, entry):
        assert tuple(entry["buckets"]) == PHASE_BUCKETS
        assert tuple(entry["shares"]) == PHASE_BUCKETS

    def test_buckets_partition_the_profiled_time(self, entry):
        # Self-time attribution is a partition: buckets sum to the
        # profiled total exactly (rounding noise only).
        assert sum(entry["buckets"].values()) == pytest.approx(
            entry["profiled_s"], rel=1e-3
        )
        assert sum(entry["shares"].values()) == pytest.approx(1.0, abs=0.01)

    def test_phases_sum_to_wall_time(self, entry):
        # The whole run is profiled, so the attributed time accounts for
        # (almost) the entire measured wall — anything beyond rounding
        # would mean unattributed simulator work.
        assert entry["profiled_s"] <= entry["wall_s"]
        assert entry["profiled_s"] >= 0.9 * entry["wall_s"]

    def test_simulation_is_the_macrobench_run(self, entry):
        assert entry["policy"] == "padc"
        assert entry["backend"] in BACKENDS
        assert entry["cycles"] > 0
        assert entry["accesses_per_core"] > 0

    def test_front_end_share_matches_its_buckets(self, entry):
        front = sum(entry["buckets"][name] for name in FRONT_END_BUCKETS)
        assert entry["front_end_share"] == pytest.approx(
            front / entry["profiled_s"], abs=0.001
        )

    def test_phase_table_renders_every_bucket(self, entry):
        (line,) = phase_table([entry])
        for name in PHASE_BUCKETS:
            assert name in line
        assert "front-end" in line
        assert "padc" in line

    def test_repro_backend_picks_the_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert run_phases("fcfs", "tiny")["backend"] == "reference"
