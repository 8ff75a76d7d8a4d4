"""The on-disk result cache: serialization, keying, invalidation, knobs."""

import copy
import json
from dataclasses import replace

import pytest

from repro import runtime, sim
from repro.params import baseline_config
from repro.runtime import ResultStore, Runtime, SimJob, cache_key
from repro.runtime import store as store_module
from repro.sim.results import CoreResult, SimResult
from repro.telemetry.trace import CORE_SERIES, SYSTEM_SERIES, SimTrace


def _job(config=None, benchmark="swim", accesses=300, seed=1, **sim_kwargs):
    return SimJob.make(
        config or baseline_config(1, policy="padc"),
        [benchmark],
        accesses,
        seed=seed,
        **sim_kwargs,
    )


def _small_result(**sim_kwargs):
    return sim.simulate(
        baseline_config(1, policy="padc"),
        ["swim"],
        max_accesses_per_core=300,
        seed=1,
        **sim_kwargs,
    )


class TestSimResultSerialization:
    def test_json_round_trip_is_exact(self):
        result = _small_result()
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_round_trip_keeps_service_times_and_history(self):
        result = _small_result(collect_service_times=True)
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.cores[0].useful_service_times == (
            result.cores[0].useful_service_times
        )
        assert clone.accuracy_history == result.accuracy_history

    def test_core_result_round_trip(self):
        core = CoreResult(core_id=2, benchmark="art", instructions=10, cycles=4)
        assert CoreResult.from_dict(core.to_dict()) == core
        assert CoreResult.from_dict(core.to_dict()).ipc == core.ipc

    def test_to_dict_makes_no_deepcopy(self, monkeypatch):
        """A 4-core, 400-interval result with a trace serializes by a
        field walk: not one ``copy.deepcopy`` call."""
        cores, intervals = 4, 400
        result = SimResult(
            policy="padc",
            cores=[CoreResult(core_id=i, benchmark="swim") for i in range(cores)],
            accuracy_history=[[0.5] * intervals for _ in range(cores)],
            trace=SimTrace(
                interval_cycles=100_000,
                num_cores=cores,
                intervals=[100_000 * (i + 1) for i in range(intervals)],
                core_series={
                    name: [[0.25] * intervals for _ in range(cores)]
                    for name in CORE_SERIES
                },
                system_series={name: [0.75] * intervals for name in SYSTEM_SERIES},
            ).validate(),
        )
        calls = []
        real = copy.deepcopy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(copy, "deepcopy", counting)
        payload = result.to_dict()
        assert len(calls) == 0
        assert len(payload["trace"]["core_series"]["par"][3]) == intervals


class TestCacheKey:
    def test_stable_for_equal_jobs(self):
        assert _job().key() == _job().key()

    def test_every_config_field_is_keyed(self):
        base = baseline_config(1, policy="padc")
        variants = [
            replace(base, dram=replace(base.dram, banks_per_channel=2)),
            replace(base, padc=replace(base.padc, drop_thresholds=((1.01, 10),))),
            replace(base, cache=replace(base.cache, mshr_entries=16)),
            base.with_policy("aps"),
        ]
        keys = {_job(config=config).key() for config in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_workload_accesses_seed_and_kwargs_keyed(self):
        keys = {
            _job().key(),
            _job(benchmark="milc").key(),
            _job(accesses=301).key(),
            _job(seed=2).key(),
            _job(collect_service_times=True).key(),
        }
        assert len(keys) == 5

    def test_version_stamp_changes_key(self, monkeypatch):
        before = _job().key()
        monkeypatch.setattr(store_module, "CACHE_VERSION", 999)
        assert _job().key() != before


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _small_result()
        key = _job().key()
        path = store.put(key, result)
        assert path.is_file() and key in store
        assert store.get(key) == result

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _job().key()
        store.put(key, _small_result())
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None

    def test_put_never_calls_json_dump(self, tmp_path, monkeypatch):
        """``json.dump`` always takes the pure-Python encoder; ``put``
        encodes once with ``json.dumps`` and writes the text."""

        def refuse(*args, **kwargs):
            raise AssertionError("ResultStore.put called json.dump")

        monkeypatch.setattr(json, "dump", refuse)
        store = ResultStore(tmp_path)
        result = _small_result(telemetry=True)
        store.put("k", result)
        assert store.get("k") == result


class TestRuntimeCaching:
    def _counting_runtime(self, tmp_path, monkeypatch):
        calls = []
        real = sim.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate", counting)
        return Runtime(jobs=1, cache_dir=str(tmp_path / "cache")), calls

    def test_hit_skips_simulate_and_matches_live_result(self, tmp_path, monkeypatch):
        executor, calls = self._counting_runtime(tmp_path, monkeypatch)
        live = executor.run(_job())
        assert len(calls) == 1
        cached = executor.run(_job())
        assert len(calls) == 1  # second run served from disk
        assert cached.to_dict() == live.to_dict()

    def test_changed_config_field_invalidates(self, tmp_path, monkeypatch):
        executor, calls = self._counting_runtime(tmp_path, monkeypatch)
        base = baseline_config(1, policy="padc")
        executor.run(_job(config=base))
        changed = replace(base, dram=replace(base.dram, banks_per_channel=2))
        executor.run(_job(config=changed))
        assert len(calls) == 2

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        executor, calls = self._counting_runtime(tmp_path, monkeypatch)
        executor.run(_job())
        monkeypatch.setattr(store_module, "CACHE_VERSION", 999)
        executor.run(_job())
        assert len(calls) == 2

    def test_disabled_cache_writes_nothing_and_recomputes(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real = sim.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate", counting)
        cache_dir = tmp_path / "cache"
        executor = Runtime(jobs=1, cache_dir=str(cache_dir), cache_enabled=False)
        executor.run(_job())
        executor.run(_job())
        assert len(calls) == 2
        assert not cache_dir.exists()

    def test_repro_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert Runtime().cache_enabled is False
        assert runtime.get_runtime().cache_enabled is False
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert Runtime().cache_enabled is True

    def test_cache_dir_env_respected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        executor = Runtime(jobs=1)
        executor.run(_job())
        assert (tmp_path / "elsewhere").is_dir()
        assert len(executor.store) == 1
