"""The public repro.api facade and its contracts."""

import csv
import io

import pytest

import repro
from repro import api
from repro.campaign import CampaignSpec, PolicyVariant, SpecError, Workload
from repro.params import PolicyError, baseline_config, resolve_policy
from repro.runtime import Runtime, SimJob
from repro.sim.system import System
from repro.sim.system import simulate as sim_simulate
from tests.conftest import tiny_system_config


def test_api_is_reexported_from_package_root():
    assert repro.api is api
    assert repro.simulate is api.simulate


def test_simulate_knobs_are_keyword_only():
    config = tiny_system_config()
    with pytest.raises(TypeError):
        api.simulate(config, ["swim"], 500, 1)  # positional seed
    with pytest.raises(TypeError):
        sim_simulate(config, ["swim"], 500, 1)


def test_api_simulate_matches_direct_simulate():
    config = tiny_system_config(num_cores=2)
    via_api = api.simulate(config, ["swim", "art"], 1_000, seed=7)
    direct = sim_simulate(config, ["swim", "art"], 1_000, seed=7)
    assert via_api == direct


def test_system_run_refuses_double_invocation():
    system = System(tiny_system_config(), ["swim"])
    system.run(300)
    with pytest.raises(RuntimeError, match="repro.api.simulate"):
        system.run(300)


def test_submit_serves_second_call_from_cache(tmp_path):
    runtime = Runtime(cache_dir=tmp_path)
    config = tiny_system_config()
    first = api.submit(config, ["swim"], 600, runtime=runtime)
    # A fresh runtime over the same directory must hit the disk cache.
    second = api.submit(config, ["swim"], 600, runtime=Runtime(cache_dir=tmp_path))
    assert first == second
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_submit_prunes_default_knobs_from_cache_key():
    config = tiny_system_config()
    spelled = api._make_job(
        config, ["swim"], 600, 0, telemetry=None, max_cycles=None,
        collect_service_times=False,
    )
    bare = api._make_job(config, ["swim"], 600, 0)
    assert spelled.key() == bare.key()
    # check=False is NOT pruned: it overrides $REPRO_CHECK=1.
    assert api._make_job(config, ["swim"], 600, 0, check=False).key() != bare.key()
    # A collector instance degrades to the plain flag.
    from repro.telemetry import TelemetryCollector

    flagged = api._make_job(config, ["swim"], 600, 0, telemetry=True)
    instanced = api._make_job(
        config, ["swim"], 600, 0, telemetry=TelemetryCollector()
    )
    assert flagged.key() == instanced.key()


def test_submit_rejects_unknown_simulate_keyword(monkeypatch):
    """A misspelt knob fails at the api edge, before any job is keyed or
    run, naming the key and the closest accepted names."""
    import repro.sim
    from repro.experiments.runner import run_policies

    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be keyed or run")

    monkeypatch.setattr(repro.sim, "simulate", forbidden)
    monkeypatch.setattr(SimJob, "key", forbidden)
    config = baseline_config(1)
    with pytest.raises(TypeError, match=r"'max_cyles' \(did you mean max_cycles"):
        api.submit(config, ["swim"], 100, max_cyles=50)
    with pytest.raises(TypeError, match="'config_builder'"):
        run_policies(["swim"], 100, config_builder=lambda policy: config)


def test_submit_many_accepts_pairs_and_jobs():
    config = tiny_system_config()
    job = SimJob.make(config, ["art"], 500, seed=5)
    results = api.submit_many([(config, ["swim"]), job], 500)
    assert len(results) == 2
    assert results[1] == api.simulate(config, ["art"], 500, seed=5)


def test_api_campaign_runs_a_spec_dict(tmp_path):
    spec = {
        "name": "api-campaign",
        "workloads": [{"benchmarks": ["swim"], "seed": 0}],
        "policies": [{"label": "padc", "policy": "padc"}],
        "accesses": 400,
        "include_alone": False,
    }
    run = api.campaign(spec, directory=tmp_path / "campaign")
    assert run.campaign.spec.name == "api-campaign"
    result = run.grid(0, "padc")
    assert result.total_cycles > 0


def test_api_campaign_rejects_unknown_preset():
    with pytest.raises(SpecError, match="unknown campaign preset"):
        api.campaign("no-such-preset")


# -- the shared policy table (with_policy / campaign parity) -------------------


def test_with_policy_resolves_table_aliases():
    base = baseline_config(2, policy="demand-first")
    ranked = base.with_policy("padc-rank")
    assert ranked.policy == "padc"
    assert ranked.padc.use_ranking is True
    plain = base.with_policy("padc")
    assert plain.padc.use_ranking is False


def test_unknown_policy_same_error_everywhere():
    with pytest.raises(PolicyError) as direct:
        resolve_policy("pdac")
    with pytest.raises(PolicyError) as via_config:
        baseline_config(1).with_policy("pdac")
    assert str(direct.value) == str(via_config.value)
    assert "did you mean" in str(direct.value)

    with pytest.raises(SpecError) as via_spec:
        CampaignSpec(
            name="bad",
            workloads=(Workload(benchmarks=("swim",)),),
            policies=(PolicyVariant(label="p", policy="padc"),),
            accesses=100,
            alone_policy="pdac",
        )
    assert str(direct.value) in str(via_spec.value)


# -- one content hash per job per campaign handle ------------------------------


def test_each_campaign_handle_hashes_each_job_once(tmp_path, monkeypatch):
    from repro.runtime import parallel

    spec = CampaignSpec.build(
        "hash-once", [["swim", "milc"]], ["demand-first", "padc"], 300
    )
    directory = tmp_path / "campaign"
    api.campaign(spec, directory=directory)

    hashed = []
    real_cache_key = parallel.cache_key

    def counting_cache_key(job):
        hashed.append(id(job))
        return real_cache_key(job)

    monkeypatch.setattr(parallel, "cache_key", counting_cache_key)

    def assert_hashed_once(handle):
        expanded = {id(job.job) for job in handle.jobs()}
        assert len(expanded) == 4
        assert set(hashed) <= expanded
        assert len(hashed) == len(set(hashed))
        hashed.clear()

    # A warm rerun binds one handle and reads every job's state and result.
    run = api.campaign(spec, directory=directory)
    assert_hashed_once(run.campaign)

    handle = api.campaign_open(directory)
    assert handle.status()["complete"]
    assert handle.export().count("\n") == 5
    assert handle.metrics()["progress"]["done"] == 4
    assert_hashed_once(handle.inner)


def test_export_and_metrics_read_each_source_once(tmp_path, monkeypatch):
    from repro.campaign import run_worker
    from repro.campaign.jobstore import SqliteJobStore
    from repro.dashboard.aggregate import fdp_histogram, queue_pressure, series
    from repro.runtime.store import ResultStore

    spec = CampaignSpec.build(
        "read-once", [["swim", "milc"]], ["demand-first", "padc"], 300
    )
    handle = api.Campaign.create(spec, directory=tmp_path / "campaign")
    run_worker(handle.inner, stream=True)
    keys = sorted(job.key for job in handle.unique_jobs())

    reads = []
    real_get = ResultStore.get

    def counting_get(self, key):
        reads.append(key)
        return real_get(self, key)

    monkeypatch.setattr(ResultStore, "get", counting_get)
    rows = list(csv.DictReader(io.StringIO(handle.export())))
    # Alone results feed both the grid rows' WS and their own rows.
    assert sorted(reads) == keys
    assert [bool(row["ws"]) for row in rows] == [True, True, False, False]

    polls = []
    real_since = SqliteJobStore.samples_since

    def counting_since(self, *args, **kwargs):
        polls.append(args)
        return real_since(self, *args, **kwargs)

    monkeypatch.setattr(SqliteJobStore, "samples_since", counting_since)
    metrics = handle.metrics()
    assert len(polls) == 1
    assert metrics["pressure"]["intervals"] > 0
    assert metrics["series"] == series(handle.inner)
    assert metrics["fdp"] == fdp_histogram(handle.inner)
    assert metrics["pressure"] == queue_pressure(handle.inner)
