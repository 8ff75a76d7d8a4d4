"""TraceWorkload: spec parsing, resolution, simulation, cache identity."""

import json
from pathlib import Path

import pytest

from repro import api
from repro.campaign import CampaignSpec, SpecError, Workload
from repro.params import BACKENDS, baseline_config
from repro.runtime import SimJob
from repro.runtime.store import CACHE_VERSION
from repro.trace import (
    TraceLookupError,
    TraceWorkload,
    discovered_traces,
    parse_trace_spec,
    register_trace,
    resolve_trace,
)
from repro.trace.convert import convert
from repro.trace.format import TraceFormatError, write_trace
from repro.workloads import canonical_workload, make_trace, resolve_workload
from repro.workloads.profiles import BenchmarkProfile, get_profile

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def champsim_rtr(tmp_path):
    path = tmp_path / "champsim_small.rtr"
    convert(FIXTURES / "champsim_small.txt", path, "champsim")
    return path


@pytest.fixture
def synth_rtr(tmp_path):
    path = tmp_path / "swim.rtr"
    write_trace(path, make_trace("swim", seed=0), limit=4000)
    return path


# -- spec parsing ------------------------------------------------------------


def test_parse_spec_knobs():
    assert parse_trace_spec("trace:mcf") == ("mcf", {"start": 0, "limit": 0, "loop": 1})
    assert parse_trace_spec("trace:mcf?start=5,limit=10,loop=0") == (
        "mcf",
        {"start": 5, "limit": 10, "loop": 0},
    )
    # "&" separates knobs too (comma-splitting CLI surfaces).
    assert parse_trace_spec("trace:mcf?start=5&loop=0") == (
        "mcf",
        {"start": 5, "limit": 0, "loop": 0},
    )


@pytest.mark.parametrize(
    "spec, match",
    [
        ("mcf", "not a trace spec"),
        ("trace:", "empty trace name"),
        ("trace:mcf?strt=5", "did you mean start"),
        ("trace:mcf?start=x", "not an integer"),
        ("trace:mcf?start=-1", "start must be"),
        ("trace:mcf?limit=-2", "limit must be"),
        ("trace:mcf?loop=2", "loop must be"),
    ],
)
def test_parse_spec_rejects(spec, match):
    with pytest.raises(TraceLookupError, match=match):
        parse_trace_spec(spec)


# -- name resolution ---------------------------------------------------------


def test_registry_resolution(champsim_rtr):
    register_trace("champ", champsim_rtr)
    workload = resolve_trace("trace:champ")
    assert workload.name == "champ"
    assert workload.path == str(champsim_rtr)
    assert "champ" in discovered_traces()


def test_register_rejects_bad_names(champsim_rtr):
    with pytest.raises(TraceLookupError, match="non-empty"):
        register_trace("bad name", champsim_rtr)
    with pytest.raises(TraceFormatError):
        register_trace("ok", FIXTURES / "champsim_small.txt")  # not a .rtr


def test_trace_path_env_resolution(champsim_rtr, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path))
    workload = resolve_trace("trace:champsim_small")
    assert workload.path == str(champsim_rtr)
    # Registered names win over $REPRO_TRACE_PATH hits.
    other = tmp_path / "other.rtr"
    write_trace(other, make_trace("mcf", seed=1), limit=50)
    register_trace("champsim_small", other)
    assert resolve_trace("trace:champsim_small").path == str(other)


def test_unknown_name_suggests(champsim_rtr, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path))
    with pytest.raises(TraceLookupError, match="did you mean champsim_small"):
        resolve_trace("trace:champsim_smal")


def test_no_traces_hint():
    with pytest.raises(TraceLookupError, match="no traces are registered"):
        resolve_trace("trace:anything")


def test_literal_path_resolution(champsim_rtr):
    workload = resolve_trace(f"trace:{champsim_rtr}")
    assert workload.path == str(champsim_rtr)
    # Bare paths (no prefix) work through resolve_trace too.
    assert resolve_trace(str(champsim_rtr)).digest == workload.digest


# -- the workload itself -----------------------------------------------------


def test_entries_window_loop_and_offset(synth_rtr):
    workload = resolve_trace(f"trace:{synth_rtr}?start=10,limit=100")
    assert workload.window_entries() == 100
    stream = workload.entries(offset=1 << 54)
    first_pass = [next(stream) for _ in range(100)]
    second_pass = [next(stream) for _ in range(100)]
    assert first_pass == second_pass  # looping is deterministic
    assert all(entry.line_addr >> 54 for entry in first_pass)  # offset applied

    finite = resolve_trace(f"trace:{synth_rtr}?limit=37,loop=0")
    assert len(list(finite.entries())) == 37


def test_entries_detects_changed_file(synth_rtr, tmp_path):
    workload = resolve_trace(f"trace:{synth_rtr}")
    write_trace(synth_rtr, make_trace("mcf", seed=5), limit=4000)
    with pytest.raises(TraceFormatError, match="changed after"):
        next(workload.entries())


def test_workload_validates_knobs():
    with pytest.raises(ValueError):
        TraceWorkload(digest="00", start=-1)
    with pytest.raises(ValueError):
        TraceWorkload(digest="00", limit=-1)


def test_resolve_workload_front_door(synth_rtr):
    profile = resolve_workload("swim")
    assert profile is get_profile("swim")
    assert resolve_workload(profile) is profile
    workload = resolve_workload(f"trace:{synth_rtr}")
    assert isinstance(workload, TraceWorkload)
    assert resolve_workload(workload) is workload
    with pytest.raises(TypeError, match="cannot resolve workload"):
        resolve_workload(42)


# -- simulation --------------------------------------------------------------


def test_trace_simulation_backend_identity(champsim_rtr):
    """Acceptance: trace workloads simulate byte-identically on every backend."""
    register_trace("champsim_small", champsim_rtr)
    config = baseline_config(2, policy="padc")
    benchmarks = ["trace:champsim_small", "trace:champsim_small?start=20"]
    results = {
        backend: api.simulate(
            config, benchmarks, max_accesses_per_core=800, backend=backend
        ).to_dict()
        for backend in BACKENDS
    }
    event = results["event"]
    assert all(result == event for result in results.values())
    assert event["cores"][0]["benchmark"] == "champsim_small"
    assert event["cores"][0]["loads"] == 800  # the 200-entry trace looped


def test_trace_and_synthetic_mix(synth_rtr):
    config = baseline_config(2, policy="demand-first")
    result = api.simulate(
        config, [f"trace:{synth_rtr}", "mcf"], max_accesses_per_core=500
    )
    assert result.cores[0].benchmark == str(synth_rtr)
    assert result.cores[1].benchmark == "mcf_06"
    assert result.cores[0].loads == 500


def test_trace_seed_does_not_perturb_replay(synth_rtr):
    config = baseline_config(1, policy="demand-first")
    a = api.simulate(config, [f"trace:{synth_rtr}"], 300, seed=0)
    b = api.simulate(config, [f"trace:{synth_rtr}"], 300, seed=99)
    assert a.to_dict() == b.to_dict()


def test_api_register_and_trace_workload_helpers(synth_rtr):
    api.register_trace("synth", synth_rtr)
    workload = api.trace_workload("trace:synth?limit=64")
    assert isinstance(workload, TraceWorkload)
    assert workload.limit == 64


# -- cache identity (content digest, never path) -----------------------------


def test_cache_version_bumped_for_trace_subsystem():
    assert CACHE_VERSION >= 6


def test_same_content_two_paths_share_cache_key(synth_rtr, tmp_path):
    copy = tmp_path / "elsewhere" / "renamed.rtr"
    copy.parent.mkdir()
    copy.write_bytes(synth_rtr.read_bytes())
    config = baseline_config(1, policy="padc")
    key_a = SimJob.make(config, [f"trace:{synth_rtr}"], 500).key()
    key_b = SimJob.make(config, [f"trace:{copy}"], 500).key()
    assert key_a == key_b
    # ... and a resolved TraceWorkload spells the same job identically.
    key_c = SimJob.make(config, [resolve_trace(f"trace:{copy}")], 500).key()
    assert key_a == key_c


def test_edited_trace_invalidates_cache_key(synth_rtr):
    config = baseline_config(1, policy="padc")
    before = SimJob.make(config, [f"trace:{synth_rtr}"], 500).key()
    write_trace(synth_rtr, make_trace("mcf", seed=7), limit=4000)
    after = SimJob.make(config, [f"trace:{synth_rtr}"], 500).key()
    assert before != after


def test_new_campaign_handle_sees_an_edited_trace(synth_rtr, tmp_path):
    spec = CampaignSpec.build(
        "edited", [[f"trace:{synth_rtr}"]], ["padc"], 300, include_alone=False
    )
    created = api.Campaign.create(spec, directory=tmp_path / "campaign")
    before = created.unique_jobs()[0].key
    write_trace(synth_rtr, make_trace("mcf", seed=7), limit=4000)
    reopened = api.campaign_open(created.directory)
    after = reopened.unique_jobs()[0].key
    assert after != before
    assert after == SimJob.make(
        baseline_config(1, policy="padc"), [f"trace:{synth_rtr}"], 300
    ).key()


def test_window_knobs_are_part_of_identity(synth_rtr):
    config = baseline_config(1, policy="padc")
    base = SimJob.make(config, [f"trace:{synth_rtr}"], 500).key()
    windowed = SimJob.make(config, [f"trace:{synth_rtr}?start=1"], 500).key()
    assert base != windowed


def test_canonical_workload_excludes_name_and_path(synth_rtr):
    workload = resolve_trace(f"trace:{synth_rtr}", name="pretty")
    canonical = canonical_workload(workload)
    assert canonical == canonical_workload(f"trace:{synth_rtr}")
    flat = repr(canonical)
    assert "pretty" not in flat and str(synth_rtr) not in flat
    assert workload.digest in flat
    # Plain names stay strings; profiles canonicalize as themselves.
    assert canonical_workload("swim") == "swim"
    assert isinstance(canonical_workload(get_profile("swim")), dict)


def test_cached_result_round_trip(synth_rtr):
    config = baseline_config(1, policy="demand-first")
    cold = api.submit(config, [f"trace:{synth_rtr}"], 300)
    warm = api.submit(config, [f"trace:{synth_rtr}"], 300)
    assert cold.to_dict() == warm.to_dict()


# -- campaign validation (satellite: did-you-mean at spec time) --------------


def _spec(benchmarks):
    return CampaignSpec.build(
        name="t",
        workloads=[Workload.make(benchmarks)],
        policies=["demand-first"],
        accesses=100,
        include_alone=False,
    )


def test_campaign_spec_accepts_trace_names(champsim_rtr, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path))
    spec = _spec(["trace:champsim_small", "swim_00"])
    assert spec.workloads[0].benchmarks[0] == "trace:champsim_small"


def test_campaign_spec_trace_did_you_mean(champsim_rtr, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path))
    with pytest.raises(SpecError, match="did you mean champsim_small"):
        _spec(["trace:champsim_smal"])


def test_campaign_spec_trace_knob_typo(champsim_rtr, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_PATH", str(tmp_path))
    with pytest.raises(SpecError, match="did you mean start"):
        _spec(["trace:champsim_small?strt=5"])


def test_campaign_spec_missing_trace_fails_loudly():
    with pytest.raises(SpecError, match="no traces are registered"):
        _spec(["trace:absent"])


# -- the checked-in smoke campaigns match their golden exports ---------------


def test_trace_smoke_campaign_matches_golden(monkeypatch, tmp_path):
    traces = tmp_path / "traces"
    convert(FIXTURES / "champsim_small.txt", traces / "champsim_small.rtr", "champsim")
    convert(FIXTURES / "gem5_small.csv", traces / "gem5_small.rtr", "gem5")
    monkeypatch.setenv("REPRO_TRACE_PATH", str(traces))
    spec = CampaignSpec.from_dict(
        json.loads((FIXTURES / "trace_smoke_spec.json").read_text())
    )
    run = api.campaign(spec, directory=tmp_path / "campaign")
    assert run.campaign.status_counts().get("done") == 4
    exported = api.campaign_open(tmp_path / "campaign").export()
    golden = (Path(__file__).parent / "golden" / "trace_smoke.csv").read_text()
    assert exported == golden


def test_dashboard_smoke_campaign_matches_golden(tmp_path):
    """The in-process form of CI's dashboard-smoke export check."""
    spec = CampaignSpec.from_dict(
        json.loads((FIXTURES / "dashboard_smoke_spec.json").read_text())
    )
    run = api.campaign(spec, directory=tmp_path / "campaign")
    assert run.campaign.status_counts().get("done") == 4
    exported = api.campaign_open(tmp_path / "campaign").export()
    golden = (Path(__file__).parent / "golden" / "dashboard_smoke.csv").read_text()
    assert exported == golden
