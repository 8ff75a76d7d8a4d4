"""``canonicalize`` gives the same canonical form as the generic walk.

``canonicalize`` dispatches on the exact type first and caches each
dataclass type's hashed field names.  ``generic_canonicalize`` below is
the walk it replaced, kept verbatim and only here: on every generated
value both must give the same JSON text (compared as text, because
``nan != nan``), and both must refuse the same values.
"""

import json
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.hashing import canonicalize, content_hash


def generic_canonicalize(obj):
    """Reduce ``obj`` to JSON-serializable primitives, deterministically.

    Dataclasses become ``{"__dataclass__": <type name>, <field>: ...}``
    so two different dataclass types with identical field values do not
    alias.  Tuples and lists both become lists; dict keys are sorted.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: generic_canonicalize(getattr(obj, f.name))
            for f in fields(obj)
            if not f.metadata.get("exclude_from_hash")
        }
        return {"__dataclass__": type(obj).__name__, **body}
    if isinstance(obj, dict):
        return {
            str(key): generic_canonicalize(value)
            for key, value in sorted(obj.items(), key=lambda item: str(item[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [generic_canonicalize(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


@dataclass(frozen=True)
class Pair:
    left: object
    right: object
    note: object = field(default=None, metadata={"exclude_from_hash": True})


@dataclass(frozen=True)
class Labelled(Pair):
    """A subclass: inherits the exclusion and adds a hashed field."""

    label: object = None


@dataclass(frozen=True)
class Twin:
    """Pair's hashed field names under another type name."""

    left: object
    right: object


class Names(dict):
    """A dict subclass, canonicalized through the isinstance fallback."""


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True).map(np.float64),
    st.sampled_from([-0.0, float("nan"), np.float64("nan"), np.float64(-0.0)]),
    st.text(max_size=6),
)


def _nested(children):
    keys = st.one_of(st.integers(-3, 12), st.text(max_size=3))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=3).map(Names),
        st.builds(Pair, children, children, children),
        st.builds(Labelled, children, children, children, children),
        st.builds(Twin, children, children),
    )


VALUES = st.recursive(SCALARS, _nested, max_leaves=24)


def as_text(value) -> str:
    return json.dumps(value, sort_keys=True)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_same_canonical_json_as_the_generic_walk(value):
    assert as_text(canonicalize(value)) == as_text(generic_canonicalize(value))


def test_excluded_field_and_type_name_shape_the_form():
    assert content_hash(Pair(1, 2, note="a")) == content_hash(Pair(1, 2, note="b"))
    assert content_hash(Pair(1, 2)) != content_hash(Twin(1, 2))
    assert canonicalize(Labelled(1, 2, 3, 4)) == {
        "__dataclass__": "Labelled",
        "left": 1,
        "right": 2,
        "label": 4,
    }


UNHASHABLE = {
    "set": {1, 2},
    "bytes": b"raw",
    "dataclass-type": Pair,
    "nested-set": [1, {2}],
    "nested-bytes": {"key": b"raw"},
    "frozenset-field": Pair(1, frozenset()),
    "nested-type": (Twin,),
}


@pytest.mark.parametrize("name", list(UNHASHABLE))
@pytest.mark.parametrize("walk", [canonicalize, generic_canonicalize])
def test_unhashable_values_raise_type_error(walk, name):
    with pytest.raises(TypeError, match="cannot canonicalize"):
        walk(UNHASHABLE[name])
