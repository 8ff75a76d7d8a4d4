"""A DRAM channel: a set of banks sharing one command/data bus.

The channel provides the timing mechanics only; *which* request to service
is decided by a scheduling policy in :mod:`repro.controller`.  Servicing a
request occupies its bank for the command-sequence latency and then the
shared data bus for one burst; the bank is held until the burst completes
(it is sourcing the data).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dram.bank import Bank, RowBufferState
from repro.params import DRAMConfig


class Channel:
    """Banks plus a shared data bus, with aggregate traffic counters."""

    def __init__(self, config: DRAMConfig, channel_id: int = 0):
        self.config = config
        self.channel_id = channel_id
        self.banks: List[Bank] = [Bank() for _ in range(config.banks_per_channel)]
        self.bus_busy_until: int = 0
        self.lines_transferred: int = 0
        # Lifetime data-bus cycles booked (one burst per line); the
        # telemetry layer differences it per interval for the bus
        # utilization series.
        self.bus_busy_cycles: int = 0
        # Hoisted timing constants for the service hot path: precomputed
        # (row_buffer_state, pre-burst work) pairs per access outcome, and
        # the CL that follows the burst.
        timings = config.timings
        self._burst = timings.burst
        self._post_burst = timings.cl
        self._hit = (RowBufferState.HIT, 0)
        self._closed = (RowBufferState.CLOSED, timings.t_rcd)
        self._conflict = (RowBufferState.CONFLICT, timings.t_rp + timings.t_rcd)

    def service(self, bank_idx: int, row: int, now: int) -> Tuple[RowBufferState, int]:
        """Service one request on ``bank_idx`` starting at ``now``.

        Returns ``(row_buffer_state, completion_time)``.  The caller must
        ensure the bank is free at ``now``.

        The reference scheduling round calls this; it is the oracle for
        the fast round in ``DRAMControllerEngine.make_event_ticker``,
        which inlines the same body (with the outcome pairs above
        prebound) — a behavioral change here must be mirrored there, or
        the golden equivalence matrix and the differential fuzzer will
        flag the event backend as divergent.

        Timing model (paper §2.1 / footnote 4): the bank is occupied for
        its row commands — none for a row-hit, tRCD row-closed, tRP+tRCD
        row-conflict — and then for its data burst on the shared bus.
        The column access pipelines with earlier bursts: CL follows the
        burst and does not hold the bank, so a row-hit holds the bank
        for one burst and back-to-back hits to an open row stream at bus
        rate.  An isolated access completes one command sequence (CL,
        tRCD+CL or tRP+tRCD+CL: the paper's 1:2:3 ratio) plus one burst
        after it starts.
        """
        bank = self.banks[bank_idx]
        if bank.busy_until > now:
            raise ValueError(
                f"bank {bank_idx} busy until {bank.busy_until}, now={now}"
            )
        burst = self._burst
        open_row = bank.open_row
        if open_row == row:
            bank.hits += 1
            state, work = self._hit
        elif open_row is None:
            bank.closed_accesses += 1
            state, work = self._closed
            bank.open_row = row
        else:
            bank.conflicts += 1
            state, work = self._conflict
            bank.open_row = row
        data_ready = now + work
        # Data-bus slots are granted in the order the controller schedules
        # requests: a burst never overtakes an earlier-scheduled one, even
        # if its data is ready first.  This matches the paper's service
        # model (Figure 2's scheduled row-conflict occupies the DRAM
        # system until its data completes) and is what makes scheduling
        # ORDER carry the performance consequences the paper measures.
        burst_start = max(data_ready, self.bus_busy_until)
        self.bus_busy_until = burst_end = burst_start + burst
        self.bus_busy_cycles += burst
        completion = burst_end + self._post_burst
        bank.busy_until = burst_end
        bank.busy_cycles += burst_end - now
        self.lines_transferred += 1
        return state, completion
