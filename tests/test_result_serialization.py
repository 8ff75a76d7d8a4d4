"""The serialized form of a result is the one ``dataclasses.asdict`` gives.

``CoreResult``, ``SimResult`` and ``SimTrace`` serialize through their
``to_dict`` methods, and ``ResultStore.put`` writes the entry.  The
oracle is the stdlib, so no golden file is needed:

* on generated values, ``json.dumps(x.to_dict())`` equals
  ``json.dumps(dataclasses.asdict(x))`` as text (no ``sort_keys``, so
  the key order is pinned too; text, because ``nan != nan``), and a
  ``from_dict`` round trip gives the same text;
* on real runs, the file ``put`` writes equals ``json.dumps`` of the
  ``asdict`` entry byte for byte;
* a returned dict shares no list with the result it came from.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import tiny_system_config
from repro import sim
from repro.runtime.store import CACHE_VERSION, ResultStore
from repro.sim.results import CoreResult, SimResult
from repro.telemetry.trace import SimTrace

FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e308])
SERIES = st.lists(FLOATS, max_size=5)
NAMES = st.text(max_size=6)


def _instances(cls, by_type):
    """Instances of ``cls`` with each field drawn by its annotation.

    An annotation missing from ``by_type`` raises ``KeyError``, so a new
    field type fails here rather than going ungenerated.
    """
    return st.fixed_dictionaries(
        {field.name: by_type[field.type] for field in dataclasses.fields(cls)}
    ).map(lambda kwargs: cls(**kwargs))


SCALARS = {"int": st.integers(), "str": NAMES, "float": FLOATS}
CORES = _instances(CoreResult, {**SCALARS, "List[int]": st.lists(st.integers(), max_size=5)})
TRACES = _instances(
    SimTrace,
    {
        **SCALARS,
        "List[int]": st.lists(st.integers(), max_size=5),
        "Dict[str, List[List[float]]]": st.dictionaries(
            NAMES, st.lists(SERIES, max_size=3), max_size=3
        ),
        "Dict[str, List[float]]": st.dictionaries(NAMES, SERIES, max_size=3),
    },
)
RESULTS = _instances(
    SimResult,
    {
        **SCALARS,
        "List[CoreResult]": st.lists(CORES, max_size=3),
        # Ragged on purpose: nothing in the form assumes equal lengths.
        "Optional[List[List[float]]]": st.none() | st.lists(SERIES, max_size=4),
        "Optional[SimTrace]": st.none() | TRACES,
    },
)
VALUES = st.one_of(CORES, TRACES, RESULTS)


def _append_to_every_list(node) -> None:
    """Append to every list in a JSON tree, nested ones included."""
    if isinstance(node, list):
        for item in node:
            _append_to_every_list(item)
        node.append("appended")
    elif isinstance(node, dict):
        for value in node.values():
            _append_to_every_list(value)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_to_dict_is_asdict_as_json_text(value):
    expected = json.dumps(dataclasses.asdict(value))
    assert json.dumps(value.to_dict()) == expected
    clone = type(value).from_dict(json.loads(expected))
    assert json.dumps(clone.to_dict()) == expected


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_returned_dict_shares_no_list_with_the_value(value):
    before = json.dumps(value.to_dict())
    _append_to_every_list(value.to_dict())
    assert json.dumps(value.to_dict()) == before


def _run(**sim_kwargs):
    # accuracy_interval is 5,000 cycles in the tiny config, so 600
    # accesses per core span several intervals.
    return sim.simulate(
        tiny_system_config(num_cores=2),
        ["swim", "art"],
        600,
        seed=3,
        **sim_kwargs,
    )


RUNS = {
    "multi-interval": {},
    "telemetry": {"telemetry": True},
    "service-times": {"collect_service_times": True},
}


@pytest.mark.parametrize("sim_kwargs", list(RUNS.values()), ids=list(RUNS))
def test_store_writes_the_asdict_entry_byte_for_byte(tmp_path, sim_kwargs):
    result = _run(**sim_kwargs)
    assert all(len(history) >= 3 for history in result.accuracy_history)
    if sim_kwargs.get("telemetry"):
        assert result.trace is not None and result.trace.num_intervals >= 3
    if sim_kwargs.get("collect_service_times"):
        assert any(core.useful_service_times for core in result.cores)
    key = "5e" * 32
    path = ResultStore(tmp_path).put(key, result)
    expected = json.dumps(
        {"key": key, "version": CACHE_VERSION, "result": dataclasses.asdict(result)}
    )
    assert path.read_bytes() == expected.encode("utf-8")


def test_dicts_of_a_real_run_share_no_list_with_it():
    result = _run(telemetry=True, collect_service_times=True)
    assert result.trace is not None and result.accuracy_history
    assert any(core.useless_service_times for core in result.cores)
    before = json.dumps(result.to_dict())
    for payload in (
        result.to_dict(),
        result.trace.to_dict(),
        *(core.to_dict() for core in result.cores),
    ):
        _append_to_every_list(payload)
    assert json.dumps(result.to_dict()) == before
