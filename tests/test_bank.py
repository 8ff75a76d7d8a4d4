"""Tests for the DRAM bank / row-buffer model, driven through Channel.service.

A bank holds its open row, busy time and outcome counters; the reference
round's ``Channel.service`` (which the fast round inlines) classifies each
access against the row buffer and books its timing.  Each access below
starts as soon as its bank is free, so the shared bus never delays it.
"""

from repro.dram.bank import RowBufferState
from repro.dram.channel import Channel
from repro.params import DRAMConfig, DRAMTimings

TIMINGS = DRAMTimings()


def make_channel(timings=TIMINGS):
    return Channel(DRAMConfig(timings=timings))


def access(channel, row, bank_idx=0):
    """Service ``row`` on bank ``bank_idx`` once the bank is free.

    Returns ``(state, latency, occupancy)``: the row-buffer outcome, the
    cycles until the data is delivered and the cycles the bank is held.
    """
    bank = channel.banks[bank_idx]
    now = bank.busy_until
    state, completion = channel.service(bank_idx, row, now)
    return state, completion - now, bank.busy_until - now


class TestClassification:
    def test_initially_closed(self):
        assert access(make_channel(), 5)[0] is RowBufferState.CLOSED

    def test_hit_after_open(self):
        channel = make_channel()
        access(channel, 5)
        assert access(channel, 5)[0] is RowBufferState.HIT

    def test_conflict_on_other_row(self):
        channel = make_channel()
        access(channel, 5)
        assert access(channel, 6)[0] is RowBufferState.CONFLICT
        assert channel.banks[0].open_row == 6


class TestLatency:
    # The data arrives one command sequence plus one burst after the
    # access starts.

    def test_closed_latency(self, timings):
        _, latency, _ = access(make_channel(timings), 1)
        assert latency == timings.t_rcd + timings.cl + timings.burst

    def test_hit_latency(self, timings):
        channel = make_channel(timings)
        access(channel, 1)
        _, latency, _ = access(channel, 1)
        assert latency == timings.cl + timings.burst

    def test_conflict_latency(self, timings):
        channel = make_channel(timings)
        access(channel, 1)
        _, latency, _ = access(channel, 2)
        assert latency == timings.t_rp + timings.t_rcd + timings.cl + timings.burst

    # The bank is held for its row commands plus the burst; the column
    # access pipelines, so its CL follows the burst.

    def test_pre_burst_work_pipelined_hit_is_free(self):
        channel = make_channel()
        access(channel, 1)
        _, _, occupancy = access(channel, 1)
        assert occupancy == TIMINGS.burst

    def test_pre_burst_work_conflict(self):
        channel = make_channel()
        access(channel, 1)
        _, _, occupancy = access(channel, 2)
        assert occupancy == TIMINGS.t_rp + TIMINGS.t_rcd + TIMINGS.burst


class TestStateTransitions:
    def test_record_access_opens_row(self):
        channel = make_channel()
        access(channel, 3)
        assert channel.banks[0].open_row == 3

    def test_precharge_closes_row(self):
        channel = make_channel()
        access(channel, 3)
        channel.banks[0].precharge()
        assert channel.banks[0].open_row is None
        assert access(channel, 3)[0] is RowBufferState.CLOSED

    def test_counters(self):
        channel = make_channel()
        states = [access(channel, row)[0] for row in (1, 1, 2, 2)]
        assert states == [
            RowBufferState.CLOSED,
            RowBufferState.HIT,
            RowBufferState.CONFLICT,
            RowBufferState.HIT,
        ]
        bank = channel.banks[0]
        assert bank.hits == 2
        assert bank.closed_accesses == 1
        assert bank.conflicts == 1
        assert bank.total_accesses == 4

    def test_row_hit_rate_empty(self):
        # The row-hit rate (SimResult.row_buffer_hit_rate, perfbench's
        # controller.row_hit_rate) is hits / total_accesses over banks;
        # a fresh bank contributes nothing to either.
        bank = make_channel().banks[0]
        assert (bank.hits, bank.total_accesses) == (0, 0)
