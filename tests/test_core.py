"""Tests for the core model (trace consumption, issue timing, ROB stalls).

``CoreState`` holds a core's trace and stall bookkeeping; the simulation
loop consumes the trace, times each access and applies the ROB stall
test.  Apart from ``peek_ahead`` (the runahead path's look into the
trace), these tests run a ``System`` over hand-written traces.  A line's
first DRAM access finds its row closed, so its fill lands
``MISS_CYCLES`` after the miss is sent.
"""

from repro.core.core import CoreState
from repro.core.trace import TraceEntry
from repro.params import CoreConfig, DRAMTimings
from repro.sim.results import CoreResult
from tests.conftest import run_trace, trace_config, trace_system

TIMINGS = DRAMTimings()
MISS_CYCLES = TIMINGS.t_rcd + TIMINGS.burst + TIMINGS.cl


def make_core(entries, rob_size=64, width=4):
    trace = iter([TraceEntry(*entry) for entry in entries])
    return CoreState(
        0, CoreConfig(rob_size=rob_size, retire_width=width), trace, 100
    )


def trace(*entries):
    """``(gap, line)`` pairs as reads."""
    return [TraceEntry(gap, line, 0) for gap, line in entries]


def run_core(*entries, rob_size=64, **core):
    """Run one core of width 4 over ``entries``; return (system, its result)."""
    config = trace_config(
        ways=8, core=CoreConfig(rob_size=rob_size, retire_width=4, **core)
    )
    system, result = run_trace(config, trace(*entries))
    return system, result.cores[0]


class TestTraceConsumption:
    def test_next_entry_in_order(self):
        # Line 11 fills the 64-entry ROB behind the miss on 10: the core
        # stalls and runahead peeks 12 and 13 into the lookahead buffer.
        # The loop consumes them from there, in order, before the trace.
        system, core = run_core(
            (0, 10), (64, 11), (4, 12), (4, 13), (4_000, 14),
            runahead=True, runahead_max_depth=2,
        )
        assert core.loads == 5
        assert core.runahead_fills == 2
        assert list(system._caches[0]._sets[0]) == [10, 11, 12, 13]

    def test_peek_ahead_preserves_entries(self):
        core = make_core([(1, 1, 0), (2, 2, 0), (3, 3, 0)])
        ahead = core.peek_ahead(2)
        assert list(ahead) == [TraceEntry(1, 1, 0), TraceEntry(2, 2, 0)]
        assert ahead is core.lookahead
        assert next(core.trace) == TraceEntry(3, 3, 0)

    def test_peek_ahead_beyond_trace_end(self):
        core = make_core([(1, 1, 0)])
        assert len(core.peek_ahead(10)) == 1


class TestExecCycles:
    # An access issues ceil(gap / retire_width) cycles after the previous
    # one; a core finishes at its last access.

    def test_full_width(self):
        _, core = run_core((8, 0), (8, 1))
        assert core.cycles == 4

    def test_rounds_up(self):
        _, core = run_core((9, 0), (9, 1))
        assert core.cycles == 6

    def test_zero_gap(self):
        _, core = run_core((40, 0), (0, 1))
        assert core.cycles == 10


class TestROBBlocking:
    # The core stalls once rob_size instructions have issued behind its
    # oldest outstanding miss, and resumes when that miss fills.

    def test_not_blocked_without_misses(self):
        # Line 0 fills long before the next access, which then hits.
        _, core = run_core((0, 0), (4_000, 0), (4_000, 0))
        assert core.stall_cycles == 0
        assert core.cycles == 2_000

    def test_blocked_when_window_exhausted(self):
        _, core = run_core((0, 0), (64, 1))
        assert core.stall_cycles == MISS_CYCLES - 16
        assert core.cycles == MISS_CYCLES

    def test_not_blocked_within_window(self):
        _, core = run_core((0, 0), (63, 1))
        assert core.stall_cycles == 0
        assert core.cycles == 16

    def test_oldest_miss_governs(self):
        # 64 instructions behind the miss on 0, only 32 behind the one on 1.
        _, core = run_core((0, 0), (32, 1), (32, 2))
        assert core.stall_cycles == MISS_CYCLES - 16


class TestResults:
    def test_ipc_counts_loads_as_instructions(self):
        _, core = run_core((40, 0), (40, 1))
        assert core.instructions == 82
        assert core.cycles == 20
        assert core.ipc == 4.1

    def test_spl(self):
        _, core = run_core((0, 0), (64, 1))
        assert core.loads == 2
        assert core.spl == (MISS_CYCLES - 16) / 2

    def test_spl_no_loads(self):
        assert CoreResult(core_id=0, benchmark="none").spl == 0.0

    def test_ipc_unfinished(self):
        # Cut at cycle 100, before the first access issues at cycle 1,000.
        system = trace_system(trace_config(), trace((4_000, 0)))
        core = system.run(1, max_cycles=100).cores[0]
        assert (core.instructions, core.cycles) == (0, 100)
        assert core.ipc == 0.0
