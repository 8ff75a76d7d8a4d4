"""Content hashing for configurations and simulation jobs.

The disk cache must distinguish *every* field of a
:class:`~repro.params.SystemConfig`.  A hand-picked tuple of
"important" fields silently collides the moment a new knob is added —
an earlier alone-IPC memo key ignored ``dram.banks_per_channel``
and the APD drop thresholds, so two different systems shared one cache
entry.  Hashing the canonical JSON form of the whole dataclass tree
makes that class of bug structurally impossible: a new field changes the
hash by construction.

The one sanctioned escape hatch is declared *at the field*, not here: a
dataclass field carrying ``metadata={"exclude_from_hash": True}`` is
skipped.  It exists for fields that do not change what a job computes:
a trace workload's display ``name`` and file ``path``
(:class:`~repro.trace.workload.TraceWorkload`, keyed by its content
digest instead).  No :class:`~repro.params.SystemConfig` field carries
it, and tests/test_backend_cache.py pins that.  Because the exclusion is
declared on the field next to its justification — and asserted by
tests — it cannot silently collide the way a hand-picked inclusion list
can.

Hashing is on the read path of every campaign handle, so
:func:`canonicalize` dispatches on the exact type first (scalars, lists,
tuples) and reads each dataclass type's hashed field names from a
per-type cache instead of calling ``fields()`` for every instance; the
``isinstance`` checks after it canonicalize subclasses (``bool``,
``np.float64``, a ``dict`` subclass) exactly as before.  The forms are
pinned twice: ``tests/golden/job_keys.json`` stores real job keys and
spec fingerprints, and ``tests/test_hashing.py`` checks the function
against a verbatim copy of the generic walk on generated values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from functools import cache
from typing import Optional, Tuple

_SCALARS = frozenset((str, int, float, bool, type(None)))


# Unbounded, one entry per type ever canonicalized: a type's hashed
# fields never change, so sharing the memo across callers changes no key.
@cache
def _hashed_fields(kind: type) -> Optional[Tuple[str, ...]]:
    """Field names an instance of ``kind`` hashes, or None if it is not a
    dataclass instance (a dataclass *type* is an instance of ``type``)."""
    if not is_dataclass(kind) or issubclass(kind, type):
        return None
    return tuple(
        f.name for f in fields(kind) if not f.metadata.get("exclude_from_hash")
    )


def canonicalize(obj):
    """Reduce ``obj`` to JSON-serializable primitives, deterministically.

    Dataclasses become ``{"__dataclass__": <type name>, <field>: ...}``
    so two different dataclass types with identical field values do not
    alias.  Tuples and lists both become lists; dict keys are sorted.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    if kind is list or kind is tuple:
        return [canonicalize(item) for item in obj]
    names = _hashed_fields(kind)
    if names is not None:
        body = {"__dataclass__": kind.__name__}
        for name in names:
            body[name] = canonicalize(getattr(obj, name))
        return body
    if isinstance(obj, dict):
        return {
            str(key): canonicalize(value)
            for key, value in sorted(obj.items(), key=lambda item: str(item[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def content_hash(obj) -> str:
    """SHA-256 over the canonical JSON encoding of ``obj``."""
    payload = json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config) -> str:
    """Complete content hash of a SystemConfig (every field, every level)."""
    return content_hash(config)
