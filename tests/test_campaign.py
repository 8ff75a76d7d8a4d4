"""Campaign subsystem tests: validated specs, deterministic expansion,
the append-only status journal, crash/resume fault tolerance, and the CLI.

The crash/resume cases monkeypatch ``repro.sim.simulate`` (PR-1 style)
so a chosen job fails deterministically, then assert the campaign
contract: siblings finish, the ledger pins the failure to the job, and
``resume`` re-runs only the casualties — with the final export
bit-for-bit equal to an uninterrupted run.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime, sim
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    PolicyVariant,
    SpecError,
    Workload,
    expand,
    submit,
    unique_jobs,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.jobstore import DB_NAME, SqliteJobStore
from repro.campaign.report import export, status_summary

POLICIES = ("demand-first", "padc")

# Spec fields whose values pass the JSON type checks but would fail only
# when a job runs; validate rejects each, naming where it came from.
UNRUNNABLE = [
    (
        {"variants": {"v": {"num_channels": "two"}}},
        "variant 'v', policy 'demand-first': num_channels must be an integer, "
        "got 'two'",
    ),
    (
        {"variants": {"v": {"num_channels": 0}}},
        "variant 'v', policy 'demand-first': num_channels must be positive, got 0",
    ),
    ({"sim_kwargs": {"bogus": 1}}, "unknown sim_kwargs key 'bogus'; known keys: "),
]


def small_spec(name="tiny", include_alone=False, accesses=300, **kwargs):
    return CampaignSpec.build(
        name,
        [["swim", "art"], ["libquantum", "milc"]],
        POLICIES,
        accesses,
        include_alone=include_alone,
        **kwargs,
    )


def counting_sim(monkeypatch, fail_if=None):
    """Replace simulate() with a counting (and optionally faulting) wrapper.

    ``fail_if(benchmarks)`` returning True makes that call raise.
    Returns the list of benchmark-name tuples simulated so far.
    Chains to the pristine simulate even when called twice in one test
    (the second wrapper must not inherit the first one's faults).
    """
    real = getattr(sim.simulate, "__wrapped__", sim.simulate)
    calls = []

    def wrapper(config, benchmarks, **kwargs):
        names = tuple(getattr(b, "name", str(b)) for b in benchmarks)
        calls.append(names)
        if fail_if is not None and fail_if(names):
            raise RuntimeError(f"injected fault for {names}")
        return real(config, benchmarks, **kwargs)

    wrapper.__wrapped__ = real
    monkeypatch.setattr(sim, "simulate", wrapper)
    return calls


class TestSpecValidation:
    def test_unknown_policy_lists_known(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.build("x", [["swim"]], ["fifo"], 100)
        assert "fifo" in str(excinfo.value)
        assert "demand-first" in str(excinfo.value)

    def test_unknown_benchmark_suggests(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.build("x", [["swmi"]], POLICIES, 100)
        message = str(excinfo.value)
        assert "swmi" in message
        assert "swim" in message  # did-you-mean suggestion

    def test_unknown_override_key_suggests(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.build(
                "x", [["swim"]], POLICIES, 100, variants={"v": {"chanels": 2}}
            )
        message = str(excinfo.value)
        assert "chanels" in message
        assert "num_channels" in message

    def test_non_json_override_value_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build(
                "x", [["swim"]], POLICIES, 100, variants={"v": {"num_channels": object()}}
            )

    def test_empty_workloads_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build("x", [], POLICIES, 100)

    def test_bad_accesses_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build("x", [["swim"]], POLICIES, 0)

    def test_duplicate_policy_labels_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build("x", [["swim"]], ["padc", "padc"], 100)

    def test_bad_campaign_name_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build("a/b", [["swim"]], POLICIES, 100)

    def test_round_trip_preserves_identity(self):
        spec = small_spec(
            include_alone=True,
            variants={"base": {}, "dual": {"num_channels": 2}},
            seeds=(0, 7),
        )
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_from_dict_accepts_shorthand(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "hand",
                "accesses": 200,
                "workloads": [["swim", "milc"]],
                "policies": [
                    "demand-first",
                    {"label": "padc-rank", "policy": "padc",
                     "overrides": {"use_ranking": True}},
                ],
            }
        )
        assert spec.policies[1] == PolicyVariant.make(
            "padc-rank", "padc", use_ranking=True
        )

    def test_from_dict_rejects_unknown_fields(self):
        base = {
            "name": "typo",
            "accesses": 200,
            "workloads": [["swim"]],
            "policies": ["padc"],
        }
        for typo, intended in (("seed", "seeds"), ("includ_alone", "include_alone")):
            with pytest.raises(SpecError) as excinfo:
                CampaignSpec.from_dict(dict(base, **{typo: False}))
            message = str(excinfo.value)
            assert repr(typo) in message
            assert f"did you mean {intended}" in message


# A valid spec dict in the full to_dict form, with every optional field.
VALID_SPEC = small_spec(include_alone=True, seeds=(0, 1)).to_dict()


def _paths(value, prefix=()):
    """Every key/index path inside a JSON value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for step, child in children:
        yield prefix + (step,)
        yield from _paths(child, prefix + (step,))


def _replaced(path, value):
    """A copy of VALID_SPEC with the value at ``path`` replaced."""
    spec = json.loads(json.dumps(VALID_SPEC))
    target = spec
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return spec


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


class TestSpecJsonTypes:
    """from_dict is the JSON edge: a wrong type is a SpecError, never a
    crash and never a silent coercion."""

    @pytest.mark.parametrize(
        "path,value,expected",
        [
            (("accesses",), "abc", "integer, got string"),
            (("accesses",), 1.9, "integer, got number"),
            (("accesses",), True, "integer, got boolean"),
            (("workloads",), 5, "array, got integer"),
            (("include_alone",), "false", "boolean, got string"),
            (("name",), 5, "string, got integer"),
            (("spec_version",), "1", "integer, got string"),
            (("alone_policy",), ["padc"], "string, got array"),
            (("sim_kwargs",), [], "object, got array"),
            (("seeds", 1), 1.0, "integer, got number"),
            (("variants",), "base", "array or object, got string"),
            (("variants", 0, "overrides"), 5, "object, got integer"),
            (("workloads", 0), 5, "array or object, got integer"),
            (("workloads", 0, "seed"), "3", "integer, got string"),
            (("workloads", 0, "seed"), False, "integer, got boolean"),
            (("workloads", 0, "benchmarks", 1), 7, "string, got integer"),
            (("policies", 0), 5, "string or object, got integer"),
            (("policies", 1, "label"), None, "string, got null"),
            (("policies", 1, "policy"), 2, "string, got integer"),
            (("policies", 1, "overrides"), [], "object, got array"),
        ],
    )
    def test_wrong_type_names_the_field(self, path, value, expected):
        # The message names the field's path: workloads[0].benchmarks[1].
        where = path[0] + "".join(
            f"[{step}]" if isinstance(step, int) else f".{step}" for step in path[1:]
        )
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(_replaced(path, value))
        assert str(excinfo.value) == f"{where}: expected {expected}"

    def test_variants_object_form_names_the_label(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(_replaced(("variants",), {"dual": 2}))
        assert str(excinfo.value) == "variants.dual: expected object, got integer"

    @given(path=st.sampled_from(list(_paths(VALID_SPEC))), value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_one_field_gives_a_spec_or_a_spec_error(self, path, value):
        try:
            spec = CampaignSpec.from_dict(_replaced(path, value))
        except SpecError:
            return
        # A spec that validates expands into its jobs without raising.
        expand(spec)

    def test_negative_simulation_seed_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(
                {
                    "name": "neg",
                    "accesses": 200,
                    "workloads": [{"benchmarks": ["swim_00"], "seed": -3}],
                    "policies": ["padc"],
                }
            )
        assert "workload 0 (seed -3) with seed offset 0" in str(excinfo.value)
        # build reaches the same check, through a negative seed offset.
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.build(
                "neg", [Workload.make(["swim"], seed=1)], POLICIES, 100, seeds=(0, -2)
            )
        assert "workload 0 (seed 1) with seed offset -2" in str(excinfo.value)


class TestSpecRunnable:
    """validate builds every grid config and checks ``sim_kwargs`` against
    ``simulate``, so a spec that could only fail in a worker fails here."""

    @pytest.mark.parametrize("extra,message", UNRUNNABLE)
    def test_unrunnable_value_is_a_spec_error(self, extra, message):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(dict(VALID_SPEC, **extra))
        assert str(excinfo.value).startswith(message)

    def test_policy_override_is_checked_with_its_variant(self):
        payload = dict(
            VALID_SPEC,
            policies=[
                {"label": "ranked", "policy": "padc", "overrides": {"use_ranking": 1}}
            ],
        )
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(payload)
        assert str(excinfo.value) == (
            "variant 'base', policy 'ranked': use_ranking must be a boolean, got 1"
        )

    @pytest.mark.parametrize("key", ["seed", "max_accesses_per_core"])
    def test_sim_kwargs_cannot_set_what_the_job_sets(self, key):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(dict(VALID_SPEC, sim_kwargs={key: 1}))
        assert f"sim_kwargs[{key!r}] is set by every job" in str(excinfo.value)

    def test_sim_kwargs_typo_suggests_the_key(self):
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(dict(VALID_SPEC, sim_kwargs={"max_cycle": 10}))
        assert "did you mean max_cycles?" in str(excinfo.value)

    def test_known_sim_kwargs_reach_every_grid_job(self):
        spec = CampaignSpec.from_dict(dict(VALID_SPEC, sim_kwargs={"max_cycles": 10}))
        grid = [job for job in expand(spec) if job.kind == "grid"]
        assert grid and all(
            dict(job.job.sim_kwargs) == {"max_cycles": 10} for job in grid
        )


class TestExpansion:
    def test_deterministic_order_and_keys(self):
        spec = small_spec(include_alone=True, seeds=(0, 3))
        first = [(job.kind, job.key) for job in expand(spec)]
        second = [(job.kind, job.key) for job in expand(spec)]
        assert first == second

    def test_grid_size(self):
        spec = small_spec(
            include_alone=True, variants={"a": {}, "b": {"num_channels": 2}}, seeds=(0, 5)
        )
        jobs = expand(spec)
        grid = [job for job in jobs if job.kind == "grid"]
        alone = [job for job in jobs if job.kind == "alone"]
        assert len(grid) == 2 * 2 * 2 * 2  # workloads x policies x variants x seeds
        assert len(alone) == 2 * 2 * 2  # workloads x benchmarks x seeds

    def test_alone_seeding_matches_alone_ipcs(self):
        """Alone job i of a workload runs with seed workload.seed + i,
        exactly like repro.experiments.runner.alone_ipcs."""
        spec = CampaignSpec.build(
            "x", [Workload.make(["swim", "milc"], seed=4)], POLICIES, 100,
            include_alone=True,
        )
        alone = [job for job in expand(spec) if job.kind == "alone"]
        assert [(job.benchmarks[0], job.seed) for job in alone] == [
            ("swim", 4),
            ("milc", 5),
        ]
        assert all(job.job.config.num_cores == 1 for job in alone)
        assert all(job.job.config.policy == "demand-first" for job in alone)

    def test_unique_jobs_collapses_duplicates(self):
        spec = CampaignSpec.build(
            "x",
            [Workload.make(["swim"], seed=0), Workload.make(["swim"], seed=0)],
            POLICIES,
            100,
            include_alone=False,
        )
        jobs = expand(spec)
        assert len(jobs) == 4
        assert len(unique_jobs(jobs)) == 2


class TestLedger:
    def test_fold_last_status_wins(self, tmp_path):
        store = SqliteJobStore(tmp_path / DB_NAME)
        store.append({"key": "k1", "status": "running", "worker": 1})
        store.append({"key": "k1", "status": "failed", "error": "boom"})
        store.append({"key": "k1", "status": "running", "worker": 2})
        store.append({"key": "k1", "status": "done", "elapsed": 0.5, "cached": False})
        state = store.fold()["k1"]
        assert state.status == "done"
        assert state.attempts == 2
        assert state.error is None

    def test_interrupted_run_shows_as_interrupted(self, tmp_path):
        # A zero lease: the attempt's holder is gone, as after a crash.
        store = SqliteJobStore(tmp_path / DB_NAME, lease=0.0)
        store.append({"key": "k1", "status": "running"})
        assert store.fold()["k1"].status == "interrupted"


class TestCrashResume:
    """The satellite scenario: one injected-fault job, siblings finish,
    resume completes with cache hits for everything already done."""

    def _dirs(self, tmp_path):
        return tmp_path / "campaign", tmp_path / "cache"

    def test_failed_job_isolated_then_resumed(self, tmp_path, monkeypatch):
        campaign_dir, cache_dir = self._dirs(tmp_path)
        executor = runtime.configure(jobs=1, cache_dir=str(cache_dir))
        spec = small_spec()
        campaign = Campaign.create(spec, campaign_dir)

        counting_sim(monkeypatch, fail_if=lambda names: "milc" in names)
        run = CampaignRunner(campaign, runtime=executor, retries=0).run()

        # The faulting job failed; every sibling is done.
        counts = campaign.status_counts()
        assert counts["failed"] == 2  # milc appears in one workload x 2 policies
        assert counts["done"] == 2
        failed = run.failed()
        states = campaign.states()
        for job in failed:
            assert "milc" in job.benchmarks
            state = states[job.key]
            assert "injected fault" in state.error
            assert state.meta["policy"] in POLICIES
            assert state.meta["config_fingerprint"]
        # status reports the failure and how to resume.
        summary = status_summary(campaign)
        assert "FAILED" in summary and "resume" in summary
        with pytest.raises(CampaignError):
            run.require_complete()

        # Fix the fault; resume re-runs ONLY the failed jobs.
        calls = counting_sim(monkeypatch)
        resumed = CampaignRunner(campaign, runtime=executor, retries=0).run()
        assert len(calls) == len(failed)
        assert all("milc" in names for names in calls)
        assert not resumed.incomplete()
        assert campaign.status_counts()["done"] == 4

        # The resumed campaign exports byte-identically to an uninterrupted
        # run of the same spec: rows carry no run history (no attempt
        # counts), so the faulted jobs' extra tries leave no trace.
        resumed_csv = export(campaign, executor.store)
        clean_executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache2"))
        clean = Campaign.create(spec, tmp_path / "campaign2")
        CampaignRunner(clean, runtime=clean_executor, retries=0).run()
        clean_csv = export(clean, clean_executor.store)
        assert clean_csv == resumed_csv

    def test_limit_interrupt_then_resume_no_rework(self, tmp_path, monkeypatch):
        campaign_dir, cache_dir = self._dirs(tmp_path)
        executor = runtime.configure(jobs=1, cache_dir=str(cache_dir))
        spec = small_spec()
        campaign = Campaign.create(spec, campaign_dir)

        first = counting_sim(monkeypatch)
        CampaignRunner(campaign, runtime=executor).run(limit=1)
        assert len(first) == 1
        counts = campaign.status_counts()
        assert counts["done"] == 1 and counts["pending"] == 3

        rest = counting_sim(monkeypatch)
        resumed = CampaignRunner(campaign, runtime=executor).run()
        assert len(rest) == 3  # the finished job was not re-simulated
        assert not resumed.incomplete()

        # Interrupted-then-resumed exports bit-for-bit what an
        # uninterrupted run produces (no timestamps/worker ids in rows).
        interrupted_csv = export(campaign, executor.store)
        clean_executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache2"))
        clean = Campaign.create(spec, tmp_path / "campaign2")
        CampaignRunner(clean, runtime=clean_executor).run()
        assert export(clean, clean_executor.store) == interrupted_csv

    def test_retry_recovers_transient_failure(self, tmp_path, monkeypatch):
        campaign_dir, cache_dir = self._dirs(tmp_path)
        executor = runtime.configure(jobs=1, cache_dir=str(cache_dir))
        spec = CampaignSpec.build(
            "transient", [["swim"]], ["padc"], 200, include_alone=False
        )
        campaign = Campaign.create(spec, campaign_dir)

        real = sim.simulate
        attempts = []

        def flaky(config, benchmarks, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient blip")
            return real(config, benchmarks, **kwargs)

        monkeypatch.setattr(sim, "simulate", flaky)
        run = CampaignRunner(campaign, runtime=executor, retries=1).run()
        assert not run.incomplete()
        (job,) = campaign.unique_jobs()
        state = campaign.states()[job.key]
        assert state.status == "done"
        assert state.attempts == 2

    def test_submit_raises_with_job_identity_on_failure(self, tmp_path, monkeypatch):
        runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        counting_sim(monkeypatch, fail_if=lambda names: "art" in names)
        with pytest.raises(CampaignError) as excinfo:
            submit(small_spec(), directory=tmp_path / "campaign", retries=0)
        message = str(excinfo.value)
        assert "art" in message
        assert "resume" in message

    def test_warm_resubmit_is_simulation_free(self, tmp_path, monkeypatch):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        spec = small_spec(include_alone=True)
        submit(spec, directory=tmp_path / "campaign")
        calls = counting_sim(monkeypatch)
        run = submit(spec, directory=tmp_path / "campaign")
        assert calls == []
        assert not run.incomplete()
        # Grid lookups resolve against the store-backed results.
        assert run.grid(0, "padc").cores[0].ipc > 0
        assert len(run.alone_ipcs(1)) == 2


class TestCampaignDirectory:
    def test_create_rejects_spec_mismatch(self, tmp_path):
        directory = tmp_path / "campaign"
        Campaign.create(small_spec(), directory)
        with pytest.raises(CampaignError) as excinfo:
            Campaign.create(small_spec(accesses=999), directory)
        assert "different spec" in str(excinfo.value)

    def test_open_requires_snapshot(self, tmp_path):
        with pytest.raises(CampaignError):
            Campaign.open(tmp_path)

    def test_open_round_trips_spec(self, tmp_path):
        spec = small_spec(include_alone=True)
        Campaign.create(spec, tmp_path / "campaign")
        assert Campaign.open(tmp_path / "campaign").spec == spec

    def test_campaign_root_env_override(self, tmp_path, monkeypatch):
        from repro.campaign import campaigns_root, default_directory

        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "sweeps"))
        assert campaigns_root() == tmp_path / "sweeps"
        assert default_directory(small_spec()).parent == tmp_path / "sweeps"


class TestParallelCampaign:
    def test_two_worker_run_matches_serial(self, tmp_path):
        spec = small_spec(accesses=250)
        serial_rt = runtime.configure(jobs=1, cache_dir=str(tmp_path / "c1"))
        serial = Campaign.create(spec, tmp_path / "a")
        CampaignRunner(serial, runtime=serial_rt).run()
        serial_csv = export(serial, serial_rt.store)

        parallel_rt = runtime.configure(jobs=2, cache_dir=str(tmp_path / "c2"))
        parallel = Campaign.create(spec, tmp_path / "b")
        run = CampaignRunner(parallel, runtime=parallel_rt).run()
        assert not run.incomplete()
        assert export(parallel, parallel_rt.store) == serial_csv

    def test_parallel_worker_failure_is_recorded_not_fatal(self, tmp_path):
        """A job that dies inside a worker process leaves a failed ledger
        entry carrying its identity while siblings complete."""
        spec = CampaignSpec.build(
            "boom", [["swim"], ["milc"]], ["padc"], 200, include_alone=False
        )
        executor = runtime.configure(jobs=2, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(spec, tmp_path / "campaign")
        # Sabotage one expanded SimJob with a benchmark name the simulator
        # cannot resolve (crafted below the spec's validation layer on
        # purpose, to emulate a worker-side crash).
        import dataclasses

        jobs = campaign.jobs()
        campaign._jobs = [
            dataclasses.replace(
                job, job=dataclasses.replace(job.job, benchmarks=("no-such-bench",))
            )
            if "milc" in job.benchmarks
            else job
            for job in jobs
        ]
        run = CampaignRunner(campaign, runtime=executor, retries=0).run()
        counts = campaign.status_counts()
        assert counts["done"] == 1 and counts["failed"] == 1
        (failed,) = run.failed()
        assert "milc" in failed.benchmarks
        assert campaign.states()[failed.key].error


class TestCLI:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "accesses": 250,
                    "workloads": [["swim", "milc"]],
                    "policies": ["demand-first", "padc"],
                    "include_alone": False,
                }
            )
        )
        return path

    def test_run_status_export_cycle(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path)
        directory = tmp_path / "campaign"
        cache = tmp_path / "cache"
        base = ["--dir", str(directory), "--cache-dir", str(cache)]
        assert campaign_main(["run", "--spec", str(spec_file)] + base) == 0
        assert "2 done" in capsys.readouterr().out

        assert campaign_main(["status", str(directory)]) == 0
        assert "2 done" in capsys.readouterr().out

        out_file = tmp_path / "out.csv"
        code = campaign_main(
            ["export", str(directory), "--cache-dir", str(cache), "-o", str(out_file)]
        )
        assert code == 0
        header, *rows = out_file.read_text().strip().splitlines()
        assert header.startswith("campaign,kind,")
        assert len(rows) == 2

    def test_rerun_requires_resume_flag(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path)
        directory = tmp_path / "campaign"
        base = ["--dir", str(directory), "--cache-dir", str(tmp_path / "cache")]
        assert campaign_main(["run", "--spec", str(spec_file)] + base) == 0
        capsys.readouterr()
        assert campaign_main(["run", "--spec", str(spec_file)] + base) == 2
        assert "--resume" in capsys.readouterr().err
        assert campaign_main(["run", "--spec", str(spec_file), "--resume"] + base) == 0

    def test_limit_then_resume(self, tmp_path, capsys):
        spec_file = self._spec_file(tmp_path)
        directory = tmp_path / "campaign"
        base = ["--dir", str(directory), "--cache-dir", str(tmp_path / "cache")]
        code = campaign_main(
            ["run", "--spec", str(spec_file), "--limit", "1"] + base
        )
        assert code == 1  # incomplete by design
        assert "1 pending" in capsys.readouterr().out
        assert (
            campaign_main(
                ["resume", str(directory), "--cache-dir", str(tmp_path / "cache")]
            )
            == 0
        )

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        assert campaign_main(["run", "--name", "nope"]) == 2
        err = capsys.readouterr().err
        assert "smoke" in err and "paper" in err
        assert err.startswith("error: unknown campaign preset 'nope'")

    def test_bad_spec_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert campaign_main(["run", "--spec", str(bad)]) == 2
        assert "missing required field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"accesses": "abc"}, "accesses: expected integer, got string"),
            ({"workloads": 5}, "workloads: expected array, got integer"),
            (["not", "a", "spec"], "a campaign spec must be a JSON object"),
        ],
    )
    def test_create_with_wrong_type_is_usage_error(
        self, tmp_path, capsys, payload, message
    ):
        spec_file = self._spec_file(tmp_path)
        if isinstance(payload, dict):
            payload = dict(json.loads(spec_file.read_text()), **payload)
        spec_file.write_text(json.dumps(payload))
        directory = tmp_path / "campaign"
        code = campaign_main(
            ["create", "--spec", str(spec_file), "--dir", str(directory)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not directory.exists()

    @pytest.mark.parametrize("extra,message", UNRUNNABLE)
    def test_create_with_unrunnable_value_is_usage_error(
        self, tmp_path, capsys, extra, message
    ):
        spec_file = self._spec_file(tmp_path)
        payload = dict(json.loads(spec_file.read_text()), **extra)
        spec_file.write_text(json.dumps(payload))
        directory = tmp_path / "campaign"
        code = campaign_main(
            ["create", "--spec", str(spec_file), "--dir", str(directory)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not directory.exists()

    def test_smoke_preset_runs(self, tmp_path):
        directory = tmp_path / "campaign"
        code = campaign_main(
            [
                "run",
                "--name",
                "smoke",
                "--dir",
                str(directory),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert Campaign.open(directory).status_counts()["done"] == 8
