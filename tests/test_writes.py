"""Tests for the store / writeback path."""

import itertools

from repro.cache.cache import CacheLine
from repro.core.trace import TraceEntry
from repro.params import baseline_config
from repro.sim import simulate
from repro.workloads import BenchmarkProfile
from repro.workloads.synthetic import SyntheticTraceGenerator
from tests.conftest import trace_config, trace_system

GAP = 4_000

STORE_HEAVY = BenchmarkProfile(
    name="storeheavy",
    pf_class=1,
    apki=20.0,
    stream_fraction=0.9,
    run_length=512,
    num_streams=4,
    ws_lines=1 << 20,
    write_fraction=0.4,
)


def accesses(*ops):
    """``"r5"`` reads line 5 and ``"w5"`` writes it, GAP instructions apart."""
    return [TraceEntry(GAP, int(op[1:]), 0, op[0] == "w") for op in ops]


def record_writebacks(system):
    """Log the line of every writeback the loop issues."""
    lines = []
    issue = system._issue_writeback

    def recording(core_id, line, now):
        lines.append(line)
        issue(core_id, line, now)

    system._issue_writeback = recording
    return lines


def run_writes(trace):
    """Run ``trace`` in one 2-way set; return the writebacks and result.

    Accesses are GAP instructions (1,000 cycles) apart, so each fill, and
    each writeback an eviction issues, completes before the next access.
    """
    system = trace_system(trace_config(), trace)
    lines = record_writebacks(system)
    result = system.run(len(trace))
    assert result.cores[0].writeback_fills == len(lines)
    return lines, result


class TestCacheDirtyBits:
    # Line 2's fill evicts line 0, the LRU line of the 2-way set; line 3
    # is a last access whose fill never lands.

    def test_write_hit_marks_dirty(self):
        writebacks, _ = run_writes(accesses("r0", "w0", "r1", "r2", "r3"))
        assert writebacks == [0]

    def test_clean_eviction_not_dirty(self):
        writebacks, _ = run_writes(accesses("r0", "r0", "r1", "r2", "r3"))
        assert writebacks == []

    def test_dirty_fill(self):
        # A write miss allocates the line dirty (write-allocate).
        writebacks, _ = run_writes(accesses("w0", "r1", "r2", "r3"))
        assert writebacks == [0]

    def test_redundant_dirty_fill_upgrades(self):
        # A clean copy of line 0 is planted while its write miss is in
        # flight: the fill finds it resident and marks it dirty.
        planted = CacheLine(False, 0, False)
        system = trace_system(trace_config())
        writebacks = record_writebacks(system)
        sets = system._caches[0]._sets

        def trace():
            yield from accesses("w0")
            sets[0][0] = planted
            yield from accesses("r1", "r2", "r3")

        system.cores[0].trace = trace()
        result = system.run(4)
        assert planted.dirty
        assert writebacks == [0]
        assert result.cores[0].writeback_fills == 1


class TestTraceWrites:
    def test_generator_emits_writes(self):
        entries = list(
            itertools.islice(
                SyntheticTraceGenerator(STORE_HEAVY, seed=0).generate(), 2000
            )
        )
        write_share = sum(entry.is_write for entry in entries) / len(entries)
        assert 0.3 < write_share < 0.5

    def test_default_profiles_have_no_writes(self):
        from repro.workloads import get_profile

        profile = get_profile("swim")
        entries = itertools.islice(
            SyntheticTraceGenerator(profile, seed=0).generate(), 500
        )
        assert not any(entry.is_write for entry in entries)


class TestWritebackTraffic:
    def test_store_heavy_workload_writes_back(self):
        config = baseline_config(1, policy="padc")
        result = simulate(config, [STORE_HEAVY], max_accesses_per_core=30_000)
        core = result.cores[0]
        assert core.writeback_fills > 0
        assert core.total_traffic > core.demand_fills + core.prefetch_fills

    def test_writebacks_counted_in_bus_lines(self):
        config = baseline_config(1, policy="demand-first")
        result = simulate(config, [STORE_HEAVY], max_accesses_per_core=30_000)
        # Channel transfers include writebacks: serviced >= counted fills.
        assert result.bus_traffic_lines >= result.total_traffic - 64

    def test_read_only_workload_has_no_writebacks(self):
        config = baseline_config(1, policy="padc")
        result = simulate(config, ["swim"], max_accesses_per_core=5_000)
        assert result.cores[0].writeback_fills == 0
