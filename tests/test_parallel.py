"""Serial/parallel/cached equivalence for the experiment runtime.

The tentpole guarantee: a simulation job returns bit-identical results
whether it runs serially in-process, fans out over worker processes, or
is served back from the on-disk cache.  Every test here compares full
``SimResult.to_dict()`` trees (every counter of every core), not just
headline metrics.
"""

import tempfile

import pytest

from repro import api, runtime, sim
from repro.campaign import CampaignError, CampaignSpec
from repro.experiments import Scale, run_experiment
from repro.experiments.runner import alone_ipcs, run_policies, speedup_metrics
from repro.params import baseline_config
from repro.runtime import JobExecutionError, Runtime, SimJob, execute_job, job_summary

MIX = ["swim", "milc"]
POLICIES = ("demand-first", "padc")
ACCESSES = 400
SEED = 3


def _run_and_measure():
    """One run_policies sweep plus its WS/HS/UF."""
    runs = run_policies(MIX, ACCESSES, policies=POLICIES, seed=SEED)
    metrics = {
        policy: speedup_metrics(runs[policy], MIX, ACCESSES, seed=SEED)
        for policy in POLICIES
    }
    return {policy: runs[policy].to_dict() for policy in POLICIES}, metrics


@pytest.fixture()
def serial_reference():
    """The ground truth: serial, cache disabled."""
    runtime.configure(jobs=1, cache_enabled=False)
    results, metrics = _run_and_measure()
    runtime.reset()
    return results, metrics


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_run_policies_identical(self, jobs, warm, tmp_path, serial_reference):
        reference_results, reference_metrics = serial_reference
        runtime.configure(jobs=jobs, cache_dir=str(tmp_path / "cache"))
        if warm:
            _run_and_measure()  # prime the cache, then measure against it
        results, metrics = _run_and_measure()
        assert results == reference_results
        assert metrics == reference_metrics

    def test_alone_ipcs_match_serial(self, tmp_path, serial_reference):
        runtime.configure(jobs=1, cache_enabled=False)
        reference = alone_ipcs(MIX, ACCESSES, seed=SEED)
        runtime.configure(jobs=2, cache_dir=str(tmp_path / "cache"))
        assert alone_ipcs(MIX, ACCESSES, seed=SEED) == reference


def _counting(monkeypatch):
    calls = []
    real = sim.simulate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "simulate", counting)
    return calls


MICRO = Scale(
    accesses=300,
    mixes_2core=1,
    mixes_4core=1,
    mixes_8core=1,
    single_core_benches=2,
)


class TestWarmCacheSkipsSimulation:
    def test_run_policies_warm_rerun_is_simulation_free(self, tmp_path, monkeypatch):
        runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        calls = _counting(monkeypatch)
        _run_and_measure()
        cold = len(calls)
        assert cold == len(POLICIES) + len(MIX)  # sweep + alone runs
        _run_and_measure()
        assert len(calls) == cold

    def test_experiment_warm_rerun_is_simulation_free(self, tmp_path, monkeypatch):
        runtime.configure(jobs=2, cache_dir=str(tmp_path / "cache"))
        cold = run_experiment("fig09", MICRO)
        calls = _counting(monkeypatch)
        warm = run_experiment("fig09", MICRO)
        assert calls == []
        assert warm.rows == cold.rows

    def test_identical_jobs_in_one_batch_computed_once(self, tmp_path, monkeypatch):
        calls = _counting(monkeypatch)
        executor = Runtime(jobs=1, cache_dir=str(tmp_path / "cache"))
        job = SimJob.make(baseline_config(1), ["swim"], 300, seed=1)
        first, second = executor.run_many([job, job])
        assert len(calls) == 1
        assert first.to_dict() == second.to_dict()


class TestNoCache:
    def test_campaign_figure_simulates_every_run_and_leaves_no_file(
        self, tmp_path, monkeypatch
    ):
        """A figure run as a campaign under --no-cache reads no stored
        result and leaves nothing behind, in the cache directory or in
        its private temporary directory."""
        cache_dir, scratch = tmp_path / "cache", tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        runtime.configure(jobs=1, cache_dir=str(cache_dir), cache_enabled=False)
        calls = _counting(monkeypatch)
        first = run_experiment("fig31", MICRO)
        cold = len(calls)
        second = run_experiment("fig31", MICRO)
        assert cold > 0
        assert len(calls) == 2 * cold
        assert second.rows == first.rows
        assert not cache_dir.exists()
        assert list(scratch.iterdir()) == []

    def test_failed_campaign_figure_offers_no_resume(self, tmp_path, monkeypatch):
        """Its temporary campaign is gone once the error is raised, so
        the error names the casualties but no directory to resume."""
        cache_dir, scratch = tmp_path / "cache", tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        runtime.configure(jobs=1, cache_dir=str(cache_dir), cache_enabled=False)

        def boom(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(sim, "simulate", boom)
        with pytest.raises(CampaignError) as excinfo:
            run_experiment("fig31", MICRO)
        message = str(excinfo.value)
        assert "unfinished job(s)" in message
        assert "injected fault" in message
        assert "resume" not in message.replace("cannot be resumed", "")
        assert not cache_dir.exists()
        assert list(scratch.iterdir()) == []

    def test_api_campaign_persists(self, tmp_path, monkeypatch):
        """api.campaign keeps its campaign on disk, as ``python -m
        repro.campaign`` does, so a rerun simulates nothing."""
        monkeypatch.delenv("REPRO_CAMPAIGN_DIR", raising=False)
        cache_dir = tmp_path / "cache"
        runtime.configure(jobs=1, cache_dir=str(cache_dir), cache_enabled=False)
        spec = CampaignSpec.build("persist", [MIX], POLICIES, ACCESSES)
        first = api.campaign(spec)
        assert first.campaign.directory.parent == cache_dir / "campaigns"
        assert (first.campaign.directory / "campaign.json").is_file()
        calls = _counting(monkeypatch)
        second = api.campaign(spec)
        assert calls == []
        assert {key: result.to_dict() for key, result in second.results.items()} == {
            key: result.to_dict() for key, result in first.results.items()
        }


class TestWorkerFailureReporting:
    """A dying job must say *which* job died, not just that one did."""

    def _failing_job(self):
        # An unknown benchmark name slips past SimJob (which stores names
        # verbatim) and explodes inside simulate() — the same shape as a
        # genuine worker-side crash.
        return SimJob.make(baseline_config(1), ["no-such-bench"], 300, seed=2)

    def test_execute_job_wraps_failures_with_identity(self):
        job = self._failing_job()
        with pytest.raises(JobExecutionError) as excinfo:
            execute_job(job)
        error = excinfo.value
        assert error.key == job.key()
        assert "no-such-bench" in error.summary
        assert "policy=demand-first" in error.summary
        assert "KeyError" in error.traceback_text
        assert error.key[:16] in str(error)

    def test_injected_fault_carries_identity(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(sim, "simulate", boom)
        job = SimJob.make(baseline_config(2, policy="padc"), MIX, 300, seed=1)
        with pytest.raises(JobExecutionError) as excinfo:
            execute_job(job)
        error = excinfo.value
        assert "injected fault" in error.traceback_text
        assert "swim,milc" in error.summary
        assert "seed=1" in error.summary

    def test_run_many_reports_which_batch_member_died(self, tmp_path):
        executor = Runtime(jobs=1, cache_dir=str(tmp_path / "cache"))
        good = SimJob.make(baseline_config(1), ["swim"], 300, seed=0)
        bad = self._failing_job()
        with pytest.raises(JobExecutionError) as excinfo:
            executor.run_many([good, bad])
        error = excinfo.value
        assert error.key == bad.key()
        # The batch note is folded into the message (not add_note, which
        # is 3.11+ and the package declares 3.9), so it reaches both the
        # console and any ledger recording str(error).
        assert "batch of 2 jobs" in str(error)
        assert "abandoned" in str(error)

    def test_failure_crosses_process_pool_intact(self, tmp_path):
        executor = Runtime(jobs=2, cache_dir=str(tmp_path / "cache"))
        jobs = [
            SimJob.make(baseline_config(1), ["swim"], 300, seed=0),
            self._failing_job(),
        ]
        with pytest.raises(JobExecutionError) as excinfo:
            executor.run_many(jobs)
        # The error was pickled back from a worker with its fields intact.
        error = excinfo.value
        assert error.key == jobs[1].key()
        assert "no-such-bench" in error.summary
        assert "KeyError" in error.traceback_text

    def test_error_survives_pickling(self):
        import pickle

        original = JobExecutionError("k" * 64, "policy=padc cores=1", "Traceback ...")
        clone = pickle.loads(pickle.dumps(original))
        assert clone.key == original.key
        assert clone.summary == original.summary
        assert clone.traceback_text == original.traceback_text
        assert str(clone) == str(original)

    def test_job_summary_is_one_line(self):
        job = SimJob.make(baseline_config(2, policy="padc"), MIX, 500, seed=7)
        summary = job_summary(job)
        assert "\n" not in summary
        assert summary == (
            "policy=padc cores=2 benchmarks=swim,milc accesses=500 seed=7"
        )


class TestRuntimeKnobs:
    def test_jobs_defaults_serial(self):
        assert Runtime().jobs == 1

    def test_jobs_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert Runtime().jobs == 4
        assert runtime.get_runtime().jobs == 4

    def test_jobs_zero_means_all_cores(self):
        import os

        assert Runtime(jobs=0).jobs == (os.cpu_count() or 1)

    def test_unparseable_jobs_env_fails_loudly(self, monkeypatch):
        # A typo'd REPRO_JOBS=1O must not silently serialize a whole
        # campaign (parity with Scale.from_env's loud failure).
        monkeypatch.setenv("REPRO_JOBS", "1O")
        with pytest.raises(ValueError) as excinfo:
            Runtime()
        assert "1O" in str(excinfo.value)
        assert "REPRO_JOBS" in str(excinfo.value)

    def test_explicit_jobs_ignores_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert Runtime(jobs=2).jobs == 2

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert Runtime(jobs=2).jobs == 2

    def test_configure_installs_and_reset_clears(self, tmp_path):
        installed = runtime.configure(jobs=3, cache_dir=str(tmp_path))
        assert runtime.get_runtime() is installed
        runtime.reset()
        assert runtime.get_runtime() is not installed

    def test_env_change_rebuilds_runtime(self, monkeypatch):
        first = runtime.get_runtime()
        monkeypatch.setenv("REPRO_JOBS", "2")
        rebuilt = runtime.get_runtime()
        assert rebuilt is not first
        assert rebuilt.jobs == 2

    def test_sim_kwargs_round_trip_through_parallel(self, tmp_path):
        runtime.configure(jobs=1, cache_enabled=False)
        config = baseline_config(1, policy="demand-first")
        reference = sim.simulate(
            config,
            ["milc"],
            max_accesses_per_core=400,
            seed=0,
            collect_service_times=True,
        )
        runtime.configure(jobs=2, cache_dir=str(tmp_path / "cache"))
        jobs = [
            SimJob.make(config, ["milc"], 400, seed=0, collect_service_times=True),
            SimJob.make(config, ["swim"], 400, seed=0, collect_service_times=True),
        ]
        milc, _ = runtime.get_runtime().run_many(jobs)
        assert milc.to_dict() == reference.to_dict()
        # A second, cache-served pass is still identical.
        milc_cached, _ = runtime.get_runtime().run_many(jobs)
        assert milc_cached.to_dict() == reference.to_dict()
