"""Tests for checked mode: the invariant auditor and the differential harness.

Two families:

* the :class:`~repro.validate.checker.InvariantChecker` passes on clean
  runs of every policy, and *fails loudly* when the simulator's counters
  or structures are deliberately corrupted (one corruption per law);
* the cross-policy differential harness accepts real runs and rejects
  doctored ones.
"""

import copy

import pytest

from repro.params import (
    ALL_POLICIES,
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    PADCConfig,
    PrefetcherConfig,
    SystemConfig,
)
from repro.sim import System
from repro.validate import InvariantChecker, InvariantViolation, check_enabled
from repro.validate.differential import (
    EQUAL_WORK_POLICIES,
    RIGID_POLICIES,
    DifferentialViolation,
    assert_equal_work,
    assert_universal_invariants,
    differential_audit,
    differential_equal_work_audit,
)


def small_config(policy="padc", num_cores=1, **overrides):
    fields = dict(
        num_cores=num_cores,
        core=CoreConfig(rob_size=64, retire_width=4),
        cache=CacheConfig(size_bytes=32 * 1024, associativity=4, mshr_entries=8),
        dram=DRAMConfig(request_buffer_size=16),
        prefetcher=PrefetcherConfig(),
        padc=PADCConfig(accuracy_interval=5_000),
        policy=policy,
    )
    fields.update(overrides)
    return SystemConfig(**fields)


def run_system(policy="padc", accesses=2_000, num_cores=1, **kwargs):
    config = small_config(policy, num_cores=num_cores, **kwargs)
    system = System(config, ["swim"] * num_cores, check=True)
    result = system.run(accesses)
    return system, result


class TestEnableKnob:
    @pytest.mark.parametrize("value", ["1", "on", "true", "yes", " ON ", "True"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert check_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", ""])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert not check_enabled()

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert not check_enabled()
        assert check_enabled(default=True)

    def test_system_resolves_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert System(small_config(), ["swim"]).checker is None
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert System(small_config(), ["swim"]).checker is not None

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert System(small_config(), ["swim"], check=False).checker is None
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert System(small_config(), ["swim"], check=True).checker is not None


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_policy_audits_clean(self, policy):
        system, result = run_system(policy=policy, accesses=1_500)
        # At least one interval audit (5K-cycle interval) plus the end audit.
        assert system.checker.audits >= 2
        assert result.cores[0].loads == 1_500

    def test_multicore_shared_cache_audits_clean(self):
        system, _ = run_system(
            num_cores=2,
            accesses=1_200,
            cache=CacheConfig(
                size_bytes=32 * 1024, associativity=4, mshr_entries=8, shared=True
            ),
        )
        assert system.checker.audits >= 2

    def test_repeat_audit_of_finished_system_passes(self):
        system, _ = run_system(accesses=1_000)
        system.checker.audit("end", system._now)  # idempotent on clean state


class TestCorruptionDetection:
    """Each test injects one corruption and expects the matching law to fire."""

    def corrupt(self, mutate, match):
        system, _ = run_system(accesses=2_000)
        mutate(system)
        with pytest.raises(InvariantViolation, match=match):
            system.checker.audit("end", system._now)

    def test_pf_sent_corruption(self):
        def mutate(system):
            assert system.results[0].pf_sent > 0  # workload sanity
            system.results[0].pf_sent += 1

        self.corrupt(mutate, "pf_sent")

    def test_occupancy_counter_corruption(self):
        self.corrupt(
            lambda system: system.engine._occupancy.__setitem__(
                0, system.engine._occupancy[0] + 1
            ),
            "occupancy counter",
        )

    def test_mshr_ledger_corruption(self):
        def mutate(system):
            system._mshrs[0].total_allocated += 1

        self.corrupt(mutate, "MSHR occupancy")

    def test_hit_miss_partition_corruption(self):
        def mutate(system):
            system.cores[0].l2_hits += 1

        self.corrupt(mutate, "l2_hits")

    def test_stall_exceeding_cycles(self):
        def mutate(system):
            system.results[0].stall_cycles = system.results[0].cycles + 1

        self.corrupt(mutate, "stall_cycles")

    def test_lifecycle_leak(self):
        def mutate(system):
            system.engine.stats.enqueued_total += 1

        self.corrupt(mutate, "lifecycle leak")

    def test_drop_ledger_disagreement(self):
        def mutate(system):
            system.engine.dropper.dropped_per_core[0] += 1

        self.corrupt(mutate, "drop")

    def test_violation_message_collects_context(self):
        system, _ = run_system(accesses=1_000)
        system.results[0].pf_sent += 5
        system.engine.stats.enqueued_total += 1
        with pytest.raises(InvariantViolation) as excinfo:
            system.checker.audit("end", system._now)
        message = str(excinfo.value)
        # Both independent violations reported in one raise, with context.
        assert "pf_sent" in message and "lifecycle leak" in message
        assert "phase=end" in message

    def test_mid_run_interval_audit_catches_corruption(self):
        """Corruption is caught at the *next* interval, not only at the end."""
        system = System(small_config(), ["swim"], check=True)
        original = system.checker.on_interval
        state = {"corrupted": False}

        def sabotage(now):
            if not state["corrupted"] and now > 5_000:
                system.cores[0].l2_misses += 1
                state["corrupted"] = True
            original(now)

        system.checker.on_interval = sabotage
        with pytest.raises(InvariantViolation, match="l2_misses"):
            system.run(5_000)


class TestRoundBookkeepingDetection:
    """One corruption per law the fast scheduling round relies on.

    Each corruption is injected at the first interval boundary whose
    state allows it (requests queued) and must fail that boundary's audit.
    """

    def corrupt(self, mutate, match):
        config = small_config(
            "padc",
            num_cores=2,
            padc=PADCConfig(accuracy_interval=5_000, use_ranking=True),
            dram=DRAMConfig(request_buffer_size=16, open_row_policy=False),
        )
        system = System(config, ["swim", "art"], check=True)
        audit = system.checker.on_interval
        injected = []

        def sabotage(now):
            queued = system.engine.queued_requests(0)
            if not injected and queued and mutate(system, queued):
                injected.append(now)
            audit(now)

        system.checker.on_interval = sabotage
        with pytest.raises(InvariantViolation, match=match):
            system.run(4_000)
        assert injected

    def test_queue_position_corruption(self):
        def mutate(system, queued):
            queued[0].qpos += 1
            return True

        self.corrupt(mutate, "qpos")

    def test_census_corruption(self):
        def mutate(system, queued):
            system.engine._census_demand[0][queued[0].core_id] += 1
            return True

        self.corrupt(mutate, "census")

    def test_row_refcount_corruption(self):
        def mutate(system, queued):
            request = queued[0]
            system.engine._row_refs[0][request.bank][request.row] += 1
            return True

        self.corrupt(mutate, "row refcounts")

    def test_stale_key_under_current_epoch(self):
        # A core's criticality flips without an epoch bump: keys cached
        # under the current epoch no longer match priority_key.
        def mutate(system, queued):
            epoch = system.engine.policy.epoch
            stamped = [r for r in queued if r.prio_stamp == epoch]
            if not stamped:
                return False
            critical = system.tracker.prefetch_critical
            core = stamped[0].core_id
            critical[core] = not critical[core]
            return True

        self.corrupt(mutate, "cached key")


class TestDifferentialHarness:
    def test_rigid_audit_passes_and_detects_tamper(self):
        results = differential_audit(["swim"], accesses=600)
        assert set(results) == set(RIGID_POLICIES)
        tampered = copy.deepcopy(results)
        tampered["prefetch-first"].cores[0].loads += 1
        with pytest.raises(DifferentialViolation, match="loads"):
            assert_universal_invariants(tampered)

    def test_equal_work_audit_passes_and_detects_tamper(self):
        results = differential_equal_work_audit(["swim"], accesses=600)
        assert set(results) == set(EQUAL_WORK_POLICIES)
        cycles = {result.total_cycles for result in results.values()}
        assert len(cycles) == 1  # bit-identical schedules
        for result in results.values():
            assert result.cores[0].pf_sent == 0
        tampered = copy.deepcopy(results)
        tampered["demand-first"].cores[0].demand_fills += 1
        with pytest.raises(DifferentialViolation, match="demand_fills"):
            assert_equal_work(tampered)

    def test_equal_work_rejects_prefetching_run(self):
        # Feed a *prefetch-enabled* run where equal work is not guaranteed:
        # the harness must refuse it rather than compare garbage.
        results = differential_audit(["swim"], accesses=600)
        assert any(r.cores[0].pf_sent for r in results.values())
        with pytest.raises(DifferentialViolation, match="prefetch counters"):
            assert_equal_work(results)


class TestCheckerConstruction:
    def test_checker_attaches_without_running(self):
        system = System(small_config(), ["swim"], check=True)
        assert isinstance(system.checker, InvariantChecker)
        assert system.checker.audits == 0
        system.checker.audit("interval", 0)  # pristine system is consistent
        assert system.checker.audits == 1
