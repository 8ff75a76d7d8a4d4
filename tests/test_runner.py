"""Tests for the experiment runner helpers."""

import dataclasses
from dataclasses import replace

from repro.experiments.runner import (
    SCALES,
    Scale,
    _ALONE_CACHE,
    _config_key,
    alone_ipc,
    alone_ipcs,
    average,
    run_policies,
    speedup_metrics,
)
from repro.params import baseline_config


class TestAloneIPC:
    def test_memoization(self):
        _ALONE_CACHE.clear()
        first = alone_ipc("swim", 600, seed=1)
        assert ("swim", 600, 1, None) in _ALONE_CACHE
        assert alone_ipc("swim", 600, seed=1) == first

    def test_profile_objects_memoize(self):
        from repro.workloads import get_profile

        profile = get_profile("swim")
        assert alone_ipc(profile, 600, seed=1) == alone_ipc(profile, 600, seed=1)

    def test_custom_config_keyed_separately(self):
        small = baseline_config(1, policy="demand-first", cache_kb_per_core=256)
        default = alone_ipc("galgel", 600, seed=2)
        with_small_cache = alone_ipc("galgel", 600, config=small, seed=2)
        # Different cache sizes are distinct cache entries (values may
        # coincide, but both keys must exist).
        keys = [key for key in _ALONE_CACHE if key[0] == "galgel"]
        assert len(keys) >= 2
        assert default > 0 and with_small_cache > 0

    def test_rejects_multicore_config(self):
        import pytest

        with pytest.raises(ValueError):
            alone_ipc("swim", 100, config=baseline_config(2))


class TestRunPolicies:
    def test_runs_each_policy(self):
        runs = run_policies(["swim"], 500, policies=("no-pref", "padc"))
        assert set(runs) == {"no-pref", "padc"}
        assert runs["no-pref"].cores[0].pf_sent == 0
        assert runs["padc"].cores[0].loads == 500


class TestSpeedupMetrics:
    def test_metrics_computed(self):
        runs = run_policies(["swim", "milc"], 500, policies=("padc",))
        metrics = speedup_metrics(runs["padc"], ["swim", "milc"], 500)
        assert 0 < metrics["ws"] <= 2.0 + 1e-9
        assert 0 < metrics["hs"] <= 1.0 + 1e-9
        assert metrics["uf"] >= 1.0


class TestScales:
    def test_four_scales_defined(self):
        assert set(SCALES) == {"tiny", "quick", "medium", "paper"}
        assert SCALES["paper"].mixes_2core == 54
        assert SCALES["paper"].mixes_4core == 32
        assert SCALES["paper"].mixes_8core == 21

    def test_scales_monotonically_ordered(self):
        ordered = [SCALES[name] for name in ("tiny", "quick", "medium", "paper")]
        for smaller, larger in zip(ordered, ordered[1:]):
            for field in dataclasses.fields(Scale):
                assert getattr(smaller, field.name) <= getattr(larger, field.name), (
                    f"{field.name} not monotonic between scales"
                )

    def test_average(self):
        assert average([1.0, 3.0]) == 2.0
        assert average([]) == 0.0


class TestConfigKey:
    """The memo key must cover *every* config field (regression).

    The old ``_config_key`` enumerated eight hand-picked fields; configs
    differing only in anything else — ``dram.banks_per_channel``, the APD
    drop thresholds — silently shared one ``alone_ipc`` cache entry.
    """

    def test_none_config_keys_as_none(self):
        assert _config_key(None) is None

    def test_distinguishes_fields_outside_the_old_tuple(self):
        base = baseline_config(1)
        fewer_banks = replace(
            base, dram=replace(base.dram, banks_per_channel=2)
        )
        eager_drop = replace(
            base, padc=replace(base.padc, drop_thresholds=((1.01, 10),))
        )
        keys = {_config_key(base), _config_key(fewer_banks), _config_key(eager_drop)}
        assert len(keys) == 3

    def test_alone_ipc_entries_no_longer_collide(self):
        _ALONE_CACHE.clear()
        base = baseline_config(1, policy="demand-first")
        fewer_banks = replace(base, dram=replace(base.dram, banks_per_channel=2))
        default = alone_ipc("swim", 400, config=base, seed=3)
        varied = alone_ipc("swim", 400, config=fewer_banks, seed=3)
        # Under the old key both calls would have hit one entry (and
        # returned the same IPC by construction); now each config gets
        # its own entry and its own simulation.
        assert len([key for key in _ALONE_CACHE if key[0] == "swim"]) == 2
        assert default != varied
