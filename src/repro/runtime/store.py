"""On-disk cache of :class:`~repro.sim.results.SimResult` objects.

Layout: one JSON file per entry under the cache root (default
``~/.cache/repro``, overridable with ``$REPRO_CACHE_DIR`` or the
``--cache-dir`` CLI flag), named ``<key>.json`` where ``key`` is the
SHA-256 of the job's complete content (config + workload + accesses +
seed + simulate kwargs) combined with :data:`CACHE_VERSION`.

Invalidation rules:

* any changed config field, benchmark, access count, seed or simulate
  kwarg changes the key (see :mod:`repro.runtime.hashing`);
* bumping :data:`CACHE_VERSION` orphans every existing entry — do this
  whenever simulator semantics change so stale results stop matching;
* unreadable/corrupt entries are treated as misses and recomputed.

Writes go through a temp file + :func:`os.replace`, so concurrent
processes can safely share one cache directory.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.runtime.hashing import content_hash
from repro.sim.results import SimResult

# Code-version stamp baked into every cache key.  Bump on any change to
# simulator semantics or the SimResult schema.
# v2: APD drop-age fix, FDP retry single-counting, writeback index fix,
#     new CoreResult fields (pf_evicted_unused, mshr_stalls).
# v3: SimResult schema v2 (schema_version fields, interval-telemetry
#     trace) and the telemetry sim kwarg.
# v4: scheduler hot-path rework (PR 5): admission-seq tie-breaks replace
#     queue-order-dependent selection, fill-waiter wake order is
#     insertion-ordered, and admission ticks coalesce at bank-free time.
# v5: skip-ahead event backend (PR 6) becomes the default simulation
#     loop.  Results are certified byte-identical across backends (the
#     backend knob is hash-excluded), but the version stamp still moves:
#     entries written before the certification machinery existed must
#     not answer for the new default path.
# v6: trace subsystem (PR 8): job payloads canonicalize workloads
#     through canonical_workload — file-backed workloads key by their
#     embedded content digest plus windowing knobs, never by path.
# v7: the config loses three fields no run set (the skip-less stream
#     prefetcher, serial column accesses and an unread L2 hit latency),
#     so every job key moves once; no result of a run at the defaults
#     changes.
CACHE_VERSION = 7

DEFAULT_CACHE_DIR = "~/.cache/repro"


def default_cache_dir() -> Path:
    """Cache root: $REPRO_CACHE_DIR if set, else ~/.cache/repro."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR).expanduser()


def cache_key(job) -> str:
    """Cache key for one simulation job: full content hash + version stamp."""
    return content_hash({"version": CACHE_VERSION, "job": job.payload()})


class ResultStore:
    """A directory of serialized SimResults, addressed by content key."""

    def __init__(self, root=None):
        self._root = Path(root).expanduser() if root is not None else None

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """Load an entry, or None on miss/corruption."""
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return SimResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, result: SimResult) -> Path:
        """Atomically persist one entry; returns its path.

        The entry is encoded once, before the temp file exists, with
        ``json.dumps``, whose one-shot path is the C encoder (``json.dump``
        always takes the pure-Python one), and written in one call.
        tests/test_result_serialization.py pins the bytes.
        """
        root = self.root
        root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        text = json.dumps(
            {"key": key, "version": CACHE_VERSION, "result": result.to_dict()}
        )
        descriptor, tmp_name = tempfile.mkstemp(dir=str(root), suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0
