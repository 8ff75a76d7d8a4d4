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
        self.banks: List[Bank] = [
            Bank(config.timings) for _ in range(config.banks_per_channel)
        ]
        self.bus_busy_until: int = 0
        self.lines_transferred: int = 0
        # Lifetime data-bus cycles booked (one burst per line); the
        # telemetry layer differences it per interval for the bus
        # utilization series.
        self.bus_busy_cycles: int = 0
        # Hoisted timing constants for the service hot path: precomputed
        # (row_buffer_state, pre-burst work) pairs per access outcome.
        timings = config.timings
        self._burst = timings.burst
        self._pipelined_cas = timings.pipelined_cas
        self._post_burst = timings.cl if timings.pipelined_cas else 0
        hit_work = 0 if timings.pipelined_cas else timings.cl
        self._hit = (RowBufferState.HIT, hit_work)
        self._closed = (RowBufferState.CLOSED, timings.t_rcd + hit_work)
        self._conflict = (
            RowBufferState.CONFLICT,
            timings.t_rp + timings.t_rcd + hit_work,
        )

    def bank_free(self, bank_idx: int, now: int) -> bool:
        return self.banks[bank_idx].busy_until <= now

    def service(self, bank_idx: int, row: int, now: int) -> Tuple[RowBufferState, int]:
        """Service one request on ``bank_idx`` starting at ``now``.

        Returns ``(row_buffer_state, completion_time)``.  The caller must
        ensure the bank is free at ``now``.

        The reference scheduling round calls this; the fast round in
        ``DRAMControllerEngine.make_event_ticker`` inlines the same body
        (with the outcome pairs above prebound) — a behavioral change
        here must be mirrored there, or the golden equivalence matrix and
        the differential fuzzer will flag the event backend as divergent.

        Timing model (paper §2.1 / footnote 4): the bank is occupied for
        the full command sequence — CL for a row-hit, tRCD+CL row-closed,
        tRP+tRCD+CL row-conflict — and then for its data burst on the
        shared bus.  A single bank therefore delivers at most one line
        per row-hit latency (the paper's "highest throughput the DRAM
        bank can deliver"); the data bus needs several banks in flight to
        saturate.  Row-hit batching still pays because hits occupy the
        bank for roughly a third of a conflict.
        """
        bank = self.banks[bank_idx]
        if bank.busy_until > now:
            raise ValueError(
                f"bank {bank_idx} busy until {bank.busy_until}, now={now}"
            )
        burst = self._burst
        # Inlined Bank.access with the outcome pairs precomputed above.
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

    def next_bank_free_time(self, bank_indices) -> int:
        """Earliest time any of ``bank_indices`` becomes free."""
        return min(self.banks[b].busy_until for b in bank_indices)

    def row_hit_rate(self) -> float:
        total = sum(b.total_accesses for b in self.banks)
        if not total:
            return 0.0
        hits = sum(b.hits for b in self.banks)
        return hits / total
