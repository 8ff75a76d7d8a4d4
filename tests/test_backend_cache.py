"""Backend × result-cache interaction (DESIGN.md §11).

The backend knob selects among certified-identical scheduling rounds, so
it must never fragment the result cache: ``SystemConfig.backend`` is the
one sanctioned ``exclude_from_hash`` field, ``repro.api`` strips the
``backend`` simulate-kwarg before a job is keyed, and a result computed
under one backend answers for every other.  Conversely CACHE_VERSION
must have moved with this PR so pre-certification entries stop matching.
A retired backend name fails on every surface with one actionable error.
"""

import dataclasses
import re
from dataclasses import fields, is_dataclass

import pytest

import repro.runtime.store as store_module
from repro import api
from repro.api import _make_job, submit
from repro.params import BACKENDS, BackendError, SystemConfig, baseline_config
from repro.sim.system import System
from repro.runtime import CACHE_VERSION, Runtime, cache_key
from repro.runtime.hashing import config_fingerprint


def _config(policy="demand-first"):
    return baseline_config(num_cores=2, policy=policy)


MIX = ["swim_00", "art_00"]


class TestHashExclusion:
    def test_backend_field_never_changes_the_fingerprint(self):
        config = _config()
        fingerprints = {
            config_fingerprint(dataclasses.replace(config, backend=backend))
            for backend in (None,) + tuple(BACKENDS)
        }
        assert len(fingerprints) == 1

    def test_backend_is_the_only_hash_excluded_field(self):
        # The escape hatch is sanctioned for exactly one knob.  Walk the
        # whole config dataclass tree; any new exclusion must be debated
        # here, not slipped in via metadata.
        excluded = set()

        def walk(obj):
            for field in fields(obj):
                if field.metadata.get("exclude_from_hash"):
                    excluded.add((type(obj).__name__, field.name))
                value = getattr(obj, field.name)
                if is_dataclass(value) and not isinstance(value, type):
                    walk(value)

        walk(_config())
        assert excluded == {("SystemConfig", "backend")}

    def test_backend_kwarg_stripped_from_job_key(self):
        config = _config()
        keys = {
            _make_job(config, MIX, 300, 0, backend=backend).key()
            for backend in (None,) + tuple(BACKENDS)
        }
        assert len(keys) == 1

    def test_other_kwargs_still_change_the_key(self):
        config = _config()
        base = _make_job(config, MIX, 300, 0).key()
        assert _make_job(config, MIX, 300, 1).key() != base
        assert _make_job(config, MIX, 301, 0).key() != base
        assert (
            _make_job(config, MIX, 300, 0, collect_service_times=True).key() != base
        )


class TestCacheVersion:
    def test_version_bumped_for_event_backend(self):
        # v5 was the skip-ahead-backend bump; v6 is the trace-subsystem
        # bump (canonical_workload keying).  Pre-bump entries must miss.
        assert CACHE_VERSION >= 6

    def test_version_bump_invalidates_every_key(self, monkeypatch):
        job = _make_job(_config(), MIX, 300, 0)
        before = cache_key(job)
        monkeypatch.setattr(store_module, "CACHE_VERSION", CACHE_VERSION + 1)
        assert cache_key(job) != before


class TestCrossBackendCacheSharing:
    def test_result_computed_once_serves_all_backends(self, tmp_path, monkeypatch):
        config = _config()
        runtime = Runtime(jobs=1, cache_dir=tmp_path, cache_enabled=True)
        cold = submit(config, MIX, 300, seed=3, runtime=runtime, backend="reference")
        entries_after_cold = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(entries_after_cold) == 1

        # A different explicit backend and a different $REPRO_BACKEND
        # both hit the entry the reference run wrote.
        monkeypatch.setenv("REPRO_BACKEND", "event")
        warm = submit(config, MIX, 300, seed=3, runtime=runtime, backend="event")
        assert warm.to_dict() == cold.to_dict()
        assert sorted(p.name for p in tmp_path.glob("*.json")) == entries_after_cold

        monkeypatch.delenv("REPRO_BACKEND")
        warm2 = submit(config, MIX, 300, seed=3, runtime=runtime)
        assert warm2.to_dict() == cold.to_dict()
        assert sorted(p.name for p in tmp_path.glob("*.json")) == entries_after_cold


# A retired backend name (the cached-key heap loop, dropped once the
# event backend ran faster on every policy) that old scripts may still
# pass: it must fail loudly, never fall back to a default.
RETIRED_BACKEND = "optimized"


@pytest.mark.parametrize("surface", ["simulate", "System", "env"])
def test_retired_backend_name_fails_listing_the_choices(surface, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    config = _config()
    with pytest.raises(BackendError) as excinfo:
        if surface == "simulate":
            api.simulate(config, MIX, 50, backend=RETIRED_BACKEND)
        elif surface == "System":
            System(config, MIX, backend=RETIRED_BACKEND)
        else:
            monkeypatch.setenv("REPRO_BACKEND", RETIRED_BACKEND)
            System(config, MIX)
    message = str(excinfo.value)
    assert repr(RETIRED_BACKEND) in message
    assert re.search(r"event'?, '?reference", message), message
