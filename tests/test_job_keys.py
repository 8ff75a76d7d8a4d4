"""Stored cache keys pin the content hash of campaign and simulation jobs.

A job's key (``SimJob.key()``, ``CampaignJob.key``) names its entry in
the result cache and its row in a campaign's ``jobs.sqlite``; a spec's
fingerprint names its campaign directory.  If a change to
``canonicalize``, ``SimJob.payload`` or ``cache_key`` moved any of them,
every existing cache and job store would silently stop answering.
``tests/golden/job_keys.json`` holds the keys every interpreter must
reproduce:

* the campaign-sweep spec perfbench runs at seed 7 (2-core mixes ×
  demand-first/padc/frfcfs, 250 accesses, alone runs included): its 20
  keys in expansion order and its fingerprint;
* the ``smoke`` and ``paper`` presets (``paper`` at the ``quick``
  scale): each fingerprint and the sha256 of its expansion's keys,
  joined by newlines;
* single ``SimJob`` keys: one per ``POLICY_TABLE`` name, a replaced
  profile object, a simulate keyword, and a multi-channel variant.

A deliberate change to the key derivation regenerates the file with
``PYTHONPATH=src python tests/test_job_keys.py`` and bumps
``repro.runtime.store.CACHE_VERSION`` in the same change.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.campaign import CampaignSpec, expand, presets
from repro.experiments.runner import SCALES
from repro.params import POLICY_TABLE, baseline_config
from repro.runtime import SimJob
from repro.workloads import workload_mixes
from repro.workloads.profiles import get_profile

GOLDEN = Path(__file__).parent / "golden" / "job_keys.json"

MIX2 = ("swim", "milc")


def sweep_spec() -> CampaignSpec:
    """The spec of perfbench's campaign-sweep workload at seed 7."""
    mixes = workload_mixes(2, 4, seed=100)
    return CampaignSpec.build(
        name="perfbench-sweep",
        workloads=[[profile.name for profile in mix] for mix in mixes],
        policies=["demand-first", "padc", "frfcfs"],
        accesses=250,
        seeds=(7,),
    )


def preset_spec(name: str) -> CampaignSpec:
    return presets.build(name, SCALES["quick"])


def joined_keys_digest(spec: CampaignSpec) -> str:
    keys = "\n".join(job.key for job in expand(spec))
    return hashlib.sha256(keys.encode()).hexdigest()


def simjob_cases() -> Dict[str, SimJob]:
    cases = {
        f"policy-{name}": SimJob.make(
            baseline_config(2, policy=name), MIX2, 500, seed=3
        )
        for name in POLICY_TABLE
    }
    # As perfbench's l2-resident workload builds its profiles.
    profile = dataclasses.replace(
        get_profile("eon_00"), name="eon_00_res", stream_fraction=0.02
    )
    cases["replaced-profile"] = SimJob.make(
        baseline_config(1, policy="padc"), (profile,), 500, seed=3
    )
    cases["service-times"] = SimJob.make(
        baseline_config(2, policy="padc"),
        MIX2,
        500,
        seed=3,
        collect_service_times=True,
    )
    cases["two-channel-closed-fdp-shared"] = SimJob.make(
        baseline_config(
            2,
            policy="padc",
            num_channels=2,
            open_row=False,
            filter_kind="fdp",
            shared_cache=True,
        ),
        MIX2,
        500,
        seed=3,
    )
    return cases


def current() -> Dict:
    sweep = sweep_spec()
    return {
        "campaign-sweep": {
            "fingerprint": sweep.fingerprint(),
            "keys": [job.key for job in expand(sweep)],
        },
        **{
            f"preset-{name}": {
                "fingerprint": preset_spec(name).fingerprint(),
                "keys_sha256": joined_keys_digest(preset_spec(name)),
            }
            for name in ("smoke", "paper")
        },
        "simjob": {name: job.key() for name, job in simjob_cases().items()},
    }


def _stored() -> Dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    stored = _stored()
    assert sorted(stored) == sorted(current())
    assert sorted(stored["simjob"]) == sorted(simjob_cases())


class TestCampaignKeys:
    def test_sweep_keys_in_expansion_order(self):
        keys: List[str] = _stored()["campaign-sweep"]["keys"]
        assert len(keys) == 20
        assert [job.key for job in expand(sweep_spec())] == keys

    def test_sweep_fingerprint(self):
        assert sweep_spec().fingerprint() == _stored()["campaign-sweep"]["fingerprint"]

    @pytest.mark.parametrize("name", ["smoke", "paper"])
    def test_preset_fingerprint_and_keys(self, name):
        stored = _stored()[f"preset-{name}"]
        spec = preset_spec(name)
        assert spec.fingerprint() == stored["fingerprint"]
        assert joined_keys_digest(spec) == stored["keys_sha256"]

    def test_paper_preset_defaults_to_the_quick_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        stored = _stored()["preset-paper"]["fingerprint"]
        assert presets.build("paper").fingerprint() == stored


@pytest.mark.parametrize("name", list(simjob_cases()))
def test_simjob_key(name):
    assert simjob_cases()[name].key() == _stored()["simjob"][name]


def _regenerate() -> None:
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
