"""Integration tests for the less-travelled system variants."""

from dataclasses import replace

import pytest

from repro.params import baseline_config
from repro.sim import simulate
from repro.sim.system import System
from repro.telemetry.collector import NoopCollector
from repro.workloads import BenchmarkProfile, get_profile

STREAMY = BenchmarkProfile(
    name="streamy",
    pf_class=1,
    apki=20.0,
    stream_fraction=0.97,
    run_length=2048,
    num_streams=2,
    ws_lines=1 << 20,
)

JUNKY = BenchmarkProfile(
    name="junky",
    pf_class=2,
    apki=10.0,
    stream_fraction=0.6,
    run_length=6,
    num_streams=4,
    ws_lines=1 << 18,
)


class TestRankingPolicy:
    def test_padc_rank_runs(self):
        config = baseline_config(4, policy="padc", use_ranking=True)
        result = simulate(
            config,
            [STREAMY, JUNKY, STREAMY, JUNKY],
            max_accesses_per_core=1_000,
        )
        assert all(core.loads == 1_000 for core in result.cores)

    def test_ranking_differs_from_plain_padc(self):
        mix = [STREAMY, JUNKY, STREAMY, JUNKY]
        plain = simulate(
            baseline_config(4, policy="padc"), mix, max_accesses_per_core=1_500
        )
        ranked = simulate(
            baseline_config(4, policy="padc", use_ranking=True),
            mix,
            max_accesses_per_core=1_500,
        )
        # The schedulers must actually diverge somewhere.
        assert plain.total_cycles != ranked.total_cycles


class TestUrgencyToggle:
    def test_urgency_off_runs_and_differs(self):
        # Enough cores/contention that the urgency tie-break actually
        # reorders some scheduling decisions.
        mix = [STREAMY, JUNKY, STREAMY, JUNKY]
        with_urgency = simulate(
            baseline_config(4, policy="aps", use_urgency=True),
            mix,
            max_accesses_per_core=2_500,
        )
        without = simulate(
            baseline_config(4, policy="aps", use_urgency=False),
            mix,
            max_accesses_per_core=2_500,
        )
        assert with_urgency.total_cycles != without.total_cycles


class TestPrefetchFirstPolicy:
    def test_prefetch_first_is_worst_for_junky(self):
        """The paper's footnote 2: prefetch-first performs worst."""
        results = {}
        for policy in ("demand-first", "prefetch-first"):
            config = baseline_config(1, policy=policy)
            results[policy] = simulate(
                config, [JUNKY], max_accesses_per_core=2_500
            )
        assert results["prefetch-first"].ipc() <= results["demand-first"].ipc()


class TestPermutationInterleaving:
    def test_permutation_runs_and_spreads_banks(self):
        config = baseline_config(2, policy="padc", permutation=True)
        result = simulate(
            config, [STREAMY, JUNKY], max_accesses_per_core=1_200
        )
        assert all(core.loads == 1_200 for core in result.cores)

    def test_permutation_changes_timing(self):
        mix = [STREAMY, JUNKY]
        plain = simulate(
            baseline_config(2, policy="demand-first"),
            mix,
            max_accesses_per_core=1_500,
        )
        permuted = simulate(
            baseline_config(2, policy="demand-first", permutation=True),
            mix,
            max_accesses_per_core=1_500,
        )
        assert plain.total_cycles != permuted.total_cycles


class TestDemandFirstAPD:
    def test_apd_on_demand_first_drops(self):
        config = baseline_config(1, policy="demand-first-apd")
        result = simulate(config, [JUNKY], max_accesses_per_core=4_000)
        assert result.dropped_prefetches > 0


class _EvictCleanLines(NoopCollector):
    """At every interval end, evicts core 0's clean, settled L2 lines.

    Lines with an MSHR entry, dirty lines and never-used prefetched lines
    stay, so every law the invariant checker audits still holds.
    """

    def __init__(self):
        self.evicted = 0

    def on_interval_post(self, system, now):
        in_flight = system._mshrs[0]._entries
        for cache_set in system._caches[0]._sets:
            for line_addr, line in list(cache_set.items()):
                if (
                    line_addr in in_flight
                    or line.dirty
                    or (line.prefetched and not line.ever_used)
                ):
                    continue
                del cache_set[line_addr]
                self.evicted += 1


class _PhantomMiss(NoopCollector):
    """At the first interval end, records a demand miss of core 0 that no
    request will ever fill, old enough to stall the core at once."""

    def __init__(self):
        self.planted = False

    def on_interval_post(self, system, now):
        if not self.planted:
            core = system.cores[0]
            core.outstanding_demand[-1] = core.instructions_issued - 10**9
            self.planted = True


class TestFailureInjection:
    def test_stalled_core_with_nothing_in_flight_is_an_error(self):
        """A core no event can wake ends the run with an error, not at max_cycles."""
        config = baseline_config(1, policy="padc")
        config = replace(config, padc=replace(config.padc, accuracy_interval=5_000))
        system = System(config, ["eon_00"], telemetry=_PhantomMiss())
        with pytest.raises(RuntimeError, match=r"cores \[0\] are stalled .* cycle \d+"):
            system.run(100_000, max_cycles=20_000_000)
        assert system._now < 20_000_000

    def test_cache_invalidation_mid_run_recovers(self):
        """Lines evicted behind the loop's back mid-run are re-fetched."""
        config = baseline_config(1, policy="padc")
        config = replace(config, padc=replace(config.padc, accuracy_interval=5_000))
        # A small, reused working set: the evicted lines are missed again.
        profile = replace(get_profile("eon_00"), stream_fraction=0.02)
        clean = simulate(config, [profile], 3_000, check=True)
        injector = _EvictCleanLines()
        result = simulate(config, [profile], 3_000, check=True, telemetry=injector)
        assert injector.evicted > 0
        assert result.cores[0].loads == 3_000
        assert result.cores[0].l2_misses > 2 * clean.cores[0].l2_misses

    def test_zero_accesses_run(self):
        config = baseline_config(1, policy="padc")
        result = simulate(config, [STREAMY], max_accesses_per_core=0)
        assert result.cores[0].loads == 0
        assert result.total_cycles >= 0

    def test_single_access_run(self):
        config = baseline_config(1, policy="padc")
        result = simulate(config, [STREAMY], max_accesses_per_core=1)
        assert result.cores[0].loads == 1


class TestConfigInteractions:
    @pytest.mark.parametrize("policy", ["padc", "aps", "demand-prefetch-equal"])
    def test_closed_row_with_each_policy(self, policy):
        config = baseline_config(1, policy=policy, open_row=False)
        result = simulate(config, [JUNKY], max_accesses_per_core=1_200)
        assert result.cores[0].loads == 1_200

    def test_shared_cache_with_runahead(self):
        config = baseline_config(
            2, policy="padc", shared_cache=True, runahead=True
        )
        result = simulate(config, [STREAMY, JUNKY], max_accesses_per_core=1_000)
        assert all(core.loads == 1_000 for core in result.cores)

    def test_dual_channel_with_permutation_and_refresh(self):
        config = baseline_config(2, policy="padc", num_channels=2, permutation=True)
        config = replace(config, dram=replace(config.dram, refresh_enabled=True))
        result = simulate(config, [STREAMY, JUNKY], max_accesses_per_core=1_000)
        assert all(core.loads == 1_000 for core in result.cores)

    def test_markov_with_padc_and_filter(self):
        config = baseline_config(
            1, policy="padc", prefetcher_kind="markov", filter_kind="ddpf"
        )
        result = simulate(config, [JUNKY], max_accesses_per_core=1_500)
        assert result.cores[0].loads == 1_500
