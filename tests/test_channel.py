"""Tests for channel-level service timing (bank work, bus queueing)."""

import pytest

from repro.controller.engine import DRAMControllerEngine
from repro.controller.policies import make_policy
from repro.controller.request import MemRequest
from repro.dram.bank import RowBufferState
from repro.dram.channel import Channel
from repro.params import DRAMConfig, DRAMTimings

TIMINGS = DRAMTimings()


def make_channel():
    return Channel(DRAMConfig())


class TestPipelinedTiming:
    def test_isolated_row_closed_access(self):
        channel = make_channel()
        state, completion = channel.service(0, row=1, now=0)
        assert state is RowBufferState.CLOSED
        # tRCD work + burst + CL pipe delay.
        assert completion == TIMINGS.t_rcd + TIMINGS.burst + TIMINGS.cl

    def test_row_hits_stream_at_burst_rate(self):
        """Back-to-back row hits deliver one line per burst time."""
        channel = make_channel()
        channel.service(0, row=1, now=0)
        free = channel.banks[0].busy_until
        _, first = channel.service(0, row=1, now=free)
        _, second = channel.service(0, row=1, now=free + TIMINGS.burst)
        assert second - first == TIMINGS.burst

    def test_conflict_pays_precharge_and_activate(self):
        channel = make_channel()
        channel.service(0, row=1, now=0)
        free = channel.banks[0].busy_until
        state, completion = channel.service(0, row=2, now=free)
        assert state is RowBufferState.CONFLICT
        commands = TIMINGS.t_rp + TIMINGS.t_rcd
        assert completion == free + commands + TIMINGS.burst + TIMINGS.cl

    def test_bus_serializes_across_banks(self):
        """Two simultaneous bursts from different banks queue on the bus."""
        channel = make_channel()
        _, first = channel.service(0, row=1, now=0)
        _, second = channel.service(1, row=1, now=0)
        assert second - first == TIMINGS.burst

    def test_bus_granted_in_scheduling_order(self):
        """A later-scheduled burst never overtakes an earlier one.

        This is the paper's Figure 2 service model: the scheduled
        row-conflict occupies the DRAM system until its data completes,
        so scheduling order carries the performance consequences.
        """
        channel = make_channel()
        channel.service(0, row=1, now=0)       # opens row 1 on bank 0
        free0 = channel.banks[0].busy_until
        _, conflict = channel.service(0, row=2, now=free0)
        _, later_hit = channel.service(1, row=1, now=free0)
        assert later_hit > conflict - TIMINGS.cl  # burst follows the conflict's


class TestChannelBookkeeping:
    def test_busy_bank_rejected(self):
        channel = make_channel()
        channel.service(0, row=1, now=0)
        with pytest.raises(ValueError):
            channel.service(0, row=1, now=0)

    def test_bank_free_predicate(self):
        channel = make_channel()
        channel.service(0, row=1, now=0)
        free = channel.banks[0].busy_until
        with pytest.raises(ValueError):
            channel.service(0, row=1, now=free - 1)
        channel.service(0, row=1, now=free)

    def test_lines_transferred_counts(self):
        channel = make_channel()
        channel.service(0, row=1, now=0)
        channel.service(1, row=1, now=0)
        assert channel.lines_transferred == 2

    def test_row_hit_rate_aggregates_banks(self):
        # The aggregate System._collect reports as row_buffer_hit_rate.
        channel = make_channel()
        channel.service(0, row=1, now=0)
        free = channel.banks[0].busy_until
        channel.service(0, row=1, now=free)
        channel.service(1, row=1, now=0)
        channel.service(1, row=2, now=channel.banks[1].busy_until)
        hits = sum(bank.hits for bank in channel.banks)
        total = sum(bank.total_accesses for bank in channel.banks)
        assert (hits, total) == (1, 4)

    def test_next_bank_free_time(self):
        # The engine schedules a new request's tick at its bank's free time.
        engine = DRAMControllerEngine(DRAMConfig(), make_policy("demand-first"))
        channel = engine.channels[0]
        channel.service(0, row=1, now=0)
        on_busy = MemRequest(0, 0, False, 5, channel=0, bank=0, row=1)
        on_idle = MemRequest(64, 0, False, 5, channel=0, bank=1, row=1)
        assert engine.earliest_service(on_busy, 5) == channel.banks[0].busy_until
        assert engine.earliest_service(on_idle, 5) == 5
