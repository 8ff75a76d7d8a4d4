"""DRAM refresh modelling.

Real SDRAM must refresh every row periodically: an all-bank auto-refresh
issues every tREFI and occupies the banks for tRFC, closing all row
buffers.  The paper's evaluation (like many controller studies) leaves
refresh out of the model, so it is disabled by default here and the
calibrated results do not include it; enabling it costs a few percent of
bandwidth and sprinkles extra row-closed accesses, which the tests
exercise.

The timings are ``DRAMConfig``'s ``refresh_interval`` and
``refresh_cycles``, which default to DDR3 values at the 4 GHz model
clock: tREFI = 7.8 us = 31,200 cycles, tRFC = 160 ns = 640 cycles.
"""

from __future__ import annotations

from repro.dram.channel import Channel
from repro.params import DRAMConfig


class RefreshScheduler:
    """Issues all-bank refreshes on a channel every ``refresh_interval`` cycles."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self.refreshes_issued = 0

    def next_refresh_after(self, now: int) -> int:
        """The first refresh boundary strictly after ``now``.

        The simulation loop schedules this timestamp as a refresh event
        instead of polling every round, so boundaries must be computable
        in advance from ``now`` alone; a stateful (e.g. drift-correcting)
        refresh scheme would also need a new event source in
        ``sim/loop.py``.
        """
        interval = self.config.refresh_interval
        return ((now // interval) + 1) * interval

    def apply(self, channel: Channel, now: int) -> int:
        """Perform one all-bank refresh starting at ``now``.

        Every bank is occupied for tRFC and its row buffer closes (auto
        refresh precharges all banks).  Returns the cycle at which the
        channel's banks become available again.
        """
        done = now + self.config.refresh_cycles
        for bank in channel.banks:
            bank.busy_until = max(bank.busy_until, done)
            bank.precharge()
        self.refreshes_issued += 1
        return done
