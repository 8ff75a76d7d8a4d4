"""Tests for DRAM refresh modelling."""

from dataclasses import replace

from repro.dram.channel import Channel
from repro.dram.refresh import RefreshScheduler
from repro.params import DRAMConfig, baseline_config
from repro.sim import simulate


def make_scheduler(interval, cycles):
    return RefreshScheduler(
        DRAMConfig(refresh_interval=interval, refresh_cycles=cycles)
    )


class TestRefreshScheduler:
    def test_next_refresh_boundary(self):
        scheduler = make_scheduler(1000, 50)
        assert scheduler.next_refresh_after(0) == 1000
        assert scheduler.next_refresh_after(999) == 1000
        assert scheduler.next_refresh_after(1000) == 2000

    def test_apply_occupies_banks_and_closes_rows(self):
        scheduler = make_scheduler(1000, 50)
        channel = Channel(DRAMConfig())
        channel.service(0, row=3, now=0)
        done = scheduler.apply(channel, now=100)
        assert done == 150
        assert all(bank.busy_until >= 150 for bank in channel.banks)
        assert all(bank.open_row is None for bank in channel.banks)
        assert scheduler.refreshes_issued == 1

    def test_apply_does_not_shorten_busier_banks(self):
        scheduler = make_scheduler(1000, 10)
        channel = Channel(DRAMConfig())
        channel.banks[0].busy_until = 500
        scheduler.apply(channel, now=100)
        assert channel.banks[0].busy_until == 500

    def test_bandwidth_overhead(self):
        """Refresh holds the banks tRFC of every tREFI: ~2% for DDR3."""
        scheduler = RefreshScheduler(DRAMConfig())
        channel = Channel(DRAMConfig())
        now = busy = 0
        for _ in range(10):
            now = scheduler.next_refresh_after(now)
            busy += scheduler.apply(channel, now) - now
        assert scheduler.refreshes_issued == 10
        assert now == 10 * 31_200
        assert 0.02 < busy / now < 0.025

    def test_from_dram_config(self):
        dram = DRAMConfig(refresh_interval=123, refresh_cycles=7)
        scheduler = RefreshScheduler(dram)
        assert scheduler.next_refresh_after(0) == 123
        assert scheduler.apply(Channel(DRAMConfig()), now=123) == 130


class TestRefreshInSystem:
    def test_refresh_costs_performance(self):
        base = baseline_config(1, policy="demand-first")
        with_refresh = replace(
            base, dram=replace(base.dram, refresh_enabled=True)
        )
        plain = simulate(base, ["swim"], max_accesses_per_core=5_000)
        refreshed = simulate(with_refresh, ["swim"], max_accesses_per_core=5_000)
        assert refreshed.ipc() < plain.ipc()
        # Refresh costs a few percent, not an order of magnitude.
        assert refreshed.ipc() > plain.ipc() * 0.8

    def test_disabled_by_default(self):
        config = baseline_config(1)
        assert not config.dram.refresh_enabled
