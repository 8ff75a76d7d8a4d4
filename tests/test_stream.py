"""Live telemetry streaming (DESIGN.md §14): the record contract, the
byte-identical fold, cache-neutrality, sample persistence on both
campaign backends, torn-stream reclaim, and the ``api.Campaign`` handle
the whole surface hangs off.
"""

import json

import pytest

from tests.conftest import tiny_system_config
from repro import api
from repro.campaign import Campaign, CampaignRunner, CampaignSpec, run_worker
from repro.campaign.executor import CampaignError
from repro.campaign.jobstore import make_store
from repro.params import BACKENDS
from repro.telemetry import TelemetryCollector
from repro.telemetry.stream import (
    STREAM_SCHEMA_VERSION,
    SampleBatcher,
    StreamError,
    fold_samples,
    records_from_trace,
    streamed_execute,
)


def _canon(trace):
    return json.dumps(trace.to_dict(), sort_keys=True)


def _streamed_run(backend=None, accesses=2_500, num_cores=2):
    """One simulation with a recording on_sample hook; (records, result)."""
    records = []
    collector = TelemetryCollector(on_sample=records.append)
    config = tiny_system_config(num_cores=num_cores)
    result = api.simulate(
        config,
        ["swim", "art"][:num_cores],
        accesses,
        seed=3,
        telemetry=collector,
        backend=backend,
    )
    return records, result


def small_spec(name="stream", accesses=300):
    return CampaignSpec.build(
        name,
        [["swim", "art"]],
        ["demand-first", "padc"],
        accesses,
        include_alone=False,
    )


# -- the equivalence contract --------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_streamed_fold_is_byte_identical_per_backend(backend):
    """Folding the live stream reproduces the post-hoc trace exactly."""
    records, result = _streamed_run(backend=backend)
    assert result.trace is not None
    assert len(records) >= 2  # header + at least one interval
    assert _canon(fold_samples(records)) == _canon(result.trace)


def test_streamed_records_match_trace_recut():
    """The live emission and the cache-hit synthesis are the same stream."""
    records, result = _streamed_run()
    assert records == records_from_trace(result.trace)


def test_fold_survives_json_round_trip():
    """Records serialized and parsed back (the SQLite path) fold identically."""
    records, result = _streamed_run()
    round_tripped = [json.loads(json.dumps(r, sort_keys=True)) for r in records]
    assert _canon(fold_samples(round_tripped)) == _canon(result.trace)


def test_streaming_does_not_perturb_the_run():
    """A streamed run's result equals an unstreamed telemetry run's."""
    records, streamed = _streamed_run()
    config = tiny_system_config(num_cores=2)
    plain = api.simulate(config, ["swim", "art"], 2_500, seed=3, telemetry=True)
    assert json.dumps(streamed.to_dict(), sort_keys=True) == json.dumps(
        plain.to_dict(), sort_keys=True
    )


def test_header_carries_stream_version():
    records, _ = _streamed_run()
    assert records[0]["type"] == "header"
    assert records[0]["stream_version"] == STREAM_SCHEMA_VERSION


# -- fold error handling -------------------------------------------------------


def test_fold_rejects_malformed_streams():
    records, _ = _streamed_run()
    with pytest.raises(StreamError, match="empty"):
        fold_samples([])
    with pytest.raises(StreamError, match="must start with a header"):
        fold_samples(records[1:])
    with pytest.raises(StreamError, match="duplicate header"):
        fold_samples([records[0], records[0]])
    with pytest.raises(StreamError, match="unknown sample record type"):
        fold_samples([records[0], {"type": "mystery"}])
    stale = dict(records[0], stream_version=STREAM_SCHEMA_VERSION + 1)
    with pytest.raises(StreamError, match="version"):
        fold_samples([stale] + records[1:])
    torn = json.loads(json.dumps(records[1]))
    torn["core"]["par"] = torn["core"]["par"][:1]
    with pytest.raises(StreamError, match="core series"):
        fold_samples([records[0], torn])


def test_batcher_flushes_in_batches_and_on_demand():
    batches = []
    batcher = SampleBatcher(batches.append, batch=3)
    for index in range(7):
        batcher({"n": index})
    assert [len(batch) for batch in batches] == [3, 3]
    batcher.flush()
    assert [len(batch) for batch in batches] == [3, 3, 1]
    assert batcher.emitted == 7
    batcher.flush()  # empty flush is a no-op
    assert len(batches) == 3


# -- cache-neutrality of streamed_execute --------------------------------------


def test_streamed_execute_is_cache_neutral(tmp_path):
    """Streaming a job that did not ask for telemetry leaves its persisted
    result byte-identical to an unstreamed run (trace stripped)."""
    from repro.runtime import SimJob, execute_job

    job = SimJob.make(tiny_system_config(), ["swim"], 400, seed=1)
    store = make_store(tmp_path, "sqlite")
    store.initialize()
    plain = execute_job(job)
    streamed = streamed_execute(job, store, "some-key")
    assert streamed.trace is None
    assert json.dumps(streamed.to_dict(), sort_keys=True) == json.dumps(
        plain.to_dict(), sort_keys=True
    )
    # ... but the samples landed anyway, and they fold.
    folded = fold_samples(store.samples("some-key"))
    assert folded.num_intervals >= 1


def test_streamed_execute_keeps_requested_trace(tmp_path):
    """A job that itself asked for telemetry still gets its trace, equal
    to the folded stream."""
    from repro.runtime import SimJob

    job = SimJob.make(tiny_system_config(), ["swim"], 400, seed=1, telemetry=True)
    store = make_store(tmp_path, "sqlite")
    store.initialize()
    result = streamed_execute(job, store, "k")
    assert result.trace is not None
    assert _canon(fold_samples(store.samples("k"))) == _canon(result.trace)


# -- sample persistence: both backends -----------------------------------------


@pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
def test_sample_store_surface(tmp_path, backend):
    """append/samples/samples_since/sample_counts/clear agree across the
    sqlite table and the jsonl sidecar."""
    sink = make_store(tmp_path, backend)
    sink.initialize()
    records, _ = _streamed_run(accesses=400, num_cores=1)
    sink.append_samples("a", records[:2])
    sink.append_samples("a", records[2:])
    sink.append_samples("b", records)
    assert sink.samples("a") == records
    assert sink.sample_counts() == {"a": len(records), "b": len(records)}
    rows, cursor = sink.samples_since(0)
    assert [row["record"] for row in rows if row["key"] == "a"] == records
    assert all(set(row) == {"id", "key", "idx", "record"} for row in rows)
    # idx is the per-key stream position, continuous across batches.
    assert [row["idx"] for row in rows if row["key"] == "a"] == list(
        range(len(records))
    )
    # Incremental poll: nothing new after the cursor ...
    again, cursor2 = sink.samples_since(cursor)
    assert again == [] and cursor2 == cursor
    # ... until something lands.
    sink.append_samples("c", records[:1])
    fresh, _ = sink.samples_since(cursor)
    assert [row["key"] for row in fresh] == ["c"]
    # Key filter and reset.
    only_b, _ = sink.samples_since(0, key="b")
    assert [row["record"] for row in only_b] == records
    sink.clear_samples("a")
    assert sink.samples("a") == []
    assert "a" not in sink.sample_counts()
    assert sink.samples("b") == records  # other streams untouched


def test_ledger_clear_drops_samples_sidecar(tmp_path):
    ledger = make_store(tmp_path, "jsonl")
    ledger.initialize()
    ledger.append_samples("k", [{"type": "header"}])
    assert ledger.sample_counts() == {"k": 1}
    ledger.clear()
    assert ledger.sample_counts() == {}


def test_reclaim_clears_torn_stream(tmp_path):
    """A dead worker's partial stream vanishes when its job is reclaimed:
    the claim transaction deletes the key's samples."""
    store = make_store(tmp_path, "sqlite")
    store.initialize()
    store.ensure_jobs([("job-1", None)])
    claim = store.claim("worker-a", lease=0.01)
    assert claim.key == "job-1"
    store.append_samples("job-1", [{"type": "header"}, {"type": "interval"}])
    assert store.sample_counts() == {"job-1": 2}
    import time

    time.sleep(0.05)  # lease expires; worker-a is "dead"
    reclaimed = store.claim("worker-b", lease=30.0)
    assert reclaimed is not None and reclaimed.key == "job-1"
    assert store.sample_counts() == {}


# -- campaign integration ------------------------------------------------------


def test_worker_stream_lands_samples_and_export_is_unchanged(tmp_path):
    """worker(stream=True): samples land per job, fold to valid traces,
    and the deterministic export is byte-identical to an unstreamed run."""
    runtime = __import__("repro.runtime", fromlist=["configure"]).configure(
        jobs=1, cache_dir=str(tmp_path / "cache-streamed")
    )
    spec = small_spec()
    streamed = Campaign.create(spec, tmp_path / "streamed", backend="sqlite")
    run_worker(streamed, runtime=runtime, stream=True, lease=30.0)
    store = streamed.ledger
    counts = store.sample_counts()
    assert set(counts) == {job.key for job in streamed.unique_jobs()}
    for job in streamed.unique_jobs():
        assert fold_samples(store.samples(job.key)).num_intervals >= 1
    streamed_export = api.campaign_open(tmp_path / "streamed").export(fmt="csv")

    from repro import runtime as runtime_mod

    plain_runtime = runtime_mod.configure(jobs=1, cache_dir=str(tmp_path / "cache-plain"))
    plain = Campaign.create(spec, tmp_path / "plain", backend="sqlite")
    run_worker(plain, runtime=plain_runtime, lease=30.0)
    plain_export = api.campaign_open(tmp_path / "plain").export(fmt="csv")
    assert streamed_export == plain_export


def test_worker_stream_synthesizes_cache_hits(tmp_path):
    """A warm re-drain streams cache-hit jobs' traces so the live view is
    complete even when nothing simulated."""
    from repro import runtime as runtime_mod

    runtime = runtime_mod.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
    spec = CampaignSpec.build(
        "warm", [["swim"]], ["padc"], 300, include_alone=False, telemetry=True
    )
    first = Campaign.create(spec, tmp_path / "first", backend="sqlite")
    run_worker(first, runtime=runtime, lease=30.0)
    assert first.ledger.sample_counts() == {}  # no --stream: nothing landed
    second = Campaign.create(spec, tmp_path / "second", backend="sqlite")
    stats = run_worker(second, runtime=runtime, stream=True, lease=30.0)
    assert stats.cache_hits == len(second.unique_jobs())
    for job in second.unique_jobs():
        assert fold_samples(second.ledger.samples(job.key)).num_intervals >= 1


def test_serial_runner_streams_into_jsonl_sidecar(tmp_path):
    campaign = Campaign.create(small_spec(), tmp_path / "c", backend="jsonl")
    run = CampaignRunner(campaign, stream=True).run()
    assert not run.incomplete()
    counts = campaign.ledger.sample_counts()
    assert set(counts) == {job.key for job in campaign.unique_jobs()}
    assert (tmp_path / "c" / "samples.jsonl").is_file()


def test_parallel_runner_rejects_streaming(tmp_path, monkeypatch):
    from repro import runtime as runtime_mod

    runtime = runtime_mod.configure(jobs=4, cache_dir=str(tmp_path / "cache"))
    campaign = Campaign.create(small_spec(), tmp_path / "c")
    with pytest.raises(CampaignError, match="serial runner"):
        CampaignRunner(campaign, runtime=runtime, stream=True).run()


# -- the api.Campaign handle ---------------------------------------------------


def _run_streamed_campaign(tmp_path):
    handle = api.Campaign.create(
        small_spec(), directory=tmp_path / "c", backend="sqlite"
    )
    run_worker(handle.inner, stream=True, lease=30.0)
    return handle


def test_handle_identity_and_status(tmp_path):
    handle = _run_streamed_campaign(tmp_path)
    assert handle.name == "stream"
    assert handle.backend == "sqlite"
    status = handle.status()
    assert status["complete"] is True
    assert status["counts"]["done"] == len(handle.unique_jobs())
    reopened = api.campaign_open(handle.directory)
    assert reopened.status() == status


def test_handle_stream_yields_rows_and_resumes_from_cursor(tmp_path):
    handle = _run_streamed_campaign(tmp_path)
    rows = list(handle.stream())
    assert rows and all(row["record"]["type"] in ("header", "interval") for row in rows)
    tail = list(handle.stream(after=rows[2]["id"]))
    assert tail == rows[3:]
    one_key = rows[0]["key"]
    only = list(handle.stream(key=one_key))
    assert {row["key"] for row in only} == {one_key}
    # follow=True on a complete campaign terminates after one drain.
    followed = list(handle.stream(follow=True, poll=0.05))
    assert followed == rows


def test_handle_fold_trace_and_metrics(tmp_path):
    handle = _run_streamed_campaign(tmp_path)
    job = handle.unique_jobs()[0]
    folded = handle.fold_trace(job.key)
    assert folded is not None and folded.num_intervals >= 1
    assert handle.fold_trace("no-such-key") is None
    metrics = handle.metrics()
    assert metrics["id"] == handle.directory.name
    progress = metrics["progress"]
    assert progress["complete"] and progress["samples"] > 0
    assert len(metrics["series"]["jobs"]) == len(handle.unique_jobs())
    for series_job in metrics["series"]["jobs"]:
        assert len(series_job["cycles"]) >= 1
        assert len(series_job["par"]) == series_job["num_cores"]
        for rates in series_job["drop_rate"]:
            assert all(0.0 <= rate <= 1.0 for rate in rates)
    pressure = metrics["pressure"]
    assert pressure["intervals"] > 0
    assert len(pressure["per_job"]) == len(handle.unique_jobs())
    # JSON-serializable end to end (the service contract).
    json.dumps(metrics, sort_keys=True)


def test_legacy_campaign_functions_warn_but_work(tmp_path):
    spec = small_spec()
    with pytest.warns(DeprecationWarning, match="campaign_create"):
        created = api.campaign_create(
            spec, directory=tmp_path / "c", backend="sqlite"
        )
    run_worker(created, lease=30.0)
    with pytest.warns(DeprecationWarning, match="campaign_open"):
        status = api.campaign_status(tmp_path / "c")
    assert status["complete"] is True
    with pytest.warns(DeprecationWarning, match="campaign_open"):
        text = api.campaign_export(tmp_path / "c", fmt="csv")
    assert text == api.campaign_open(tmp_path / "c").export(fmt="csv")
