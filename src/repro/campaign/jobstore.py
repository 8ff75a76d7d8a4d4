"""The campaign store: one WAL-mode SQLite database per campaign.

Every campaign keeps its whole mutable state in ``jobs.sqlite`` next to
its ``campaign.json`` snapshot, PyExperimenter-style — one shared
database that any number of worker processes (on any machine that can
reach the file) pull jobs from.  It holds two tables:

* ``jobs`` — one row per job key, the only record of its state: status,
  attempt count, the live claim (worker and lease expiry) and the last
  attempt's outcome (error text, elapsed time, cache hit).
* ``samples`` — streamed per-interval telemetry (DESIGN.md §14).

Jobs are keyed by their :class:`~repro.runtime.SimJob` content hash, the
same key the result store uses, which is what lets resume trust a
``done`` row: the result it promises is addressable in the store.

The claim protocol:

* :meth:`SqliteJobStore.claim` atomically (``BEGIN IMMEDIATE``) picks
  the first claimable job in enqueue order — ``pending``, ``running``
  with an **expired lease**, or ``failed`` with attempts to spare —
  stamps it ``(worker_id, lease_expires)`` and clears the previous
  attempt's outcome.  Two workers can never claim the same job at once.
* While simulating, the worker renews its lease via
  :meth:`SqliteJobStore.heartbeat`.  A worker that is SIGKILL'd simply
  stops heartbeating; once its lease expires the job is claimable again
  and the campaign loses nothing.
* :meth:`SqliteJobStore.append` writes the ``done``/``failed`` outcome
  onto the row and releases the lease.
* :meth:`SqliteJobStore.reopen` sets jobs back to ``pending`` with a
  fresh attempt budget; :func:`~repro.campaign.executor.drain` calls it
  on every job it is about to run again before its workers start
  claiming.

Durability: WAL mode with ``synchronous=NORMAL`` never corrupts the
database; a power cut can drop only the last committed transactions.
A lost ``done`` outcome merely re-runs a deterministic, content-addressed
job (a result-store hit), so nothing is lost but time.

Determinism contract: job states, job keys and the result store do not
depend on how a campaign was driven, so an interrupted-then-resumed
multi-worker campaign exports byte-for-byte what a single-process run
exports (CI's ``distributed-smoke`` job asserts this with ``cmp``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

DB_NAME = "jobs.sqlite"

# Every state a job can be in.  "interrupted" is derived (a "running"
# row whose lease has lapsed); the others are written.
STATUSES = ("pending", "running", "interrupted", "done", "failed")

# Lease granted to a claim (seconds) unless the claimer says otherwise.
# Workers heartbeat at a fraction of this, so only a dead worker ever
# lets it lapse.
DEFAULT_LEASE = 60.0

# How long (seconds) a connection waits for another one's lock: the
# connect timeout is SQLite's busy timeout.
_TIMEOUT = 30.0

# The last attempt's outcome.  A database written before the row held
# it lacks these columns; _connect adds them.
_OUTCOME_COLUMNS = (("error", "TEXT"), ("elapsed", "REAL"), ("cached", "INTEGER"))

_SCHEMA = (
    # No row writes ``meta`` any more, but older builds select it when
    # they read the rows: keeping it keeps a database this build creates
    # readable to them.
    """
    CREATE TABLE IF NOT EXISTS jobs (
        seq INTEGER PRIMARY KEY AUTOINCREMENT,
        key TEXT NOT NULL UNIQUE,
        state TEXT NOT NULL DEFAULT 'pending',
        attempts INTEGER NOT NULL DEFAULT 0,
        worker TEXT,
        lease_expires REAL,
        meta TEXT,
        error TEXT,
        elapsed REAL,
        cached INTEGER
    )
    """,
    # Streamed per-interval telemetry samples (DESIGN.md §14): one row
    # per stream record, landing in batched transactions *while the job
    # runs*.  ``id`` is the global landing order (the stream cursor);
    # ``idx`` is the record's position within its job's stream.
    """
    CREATE TABLE IF NOT EXISTS samples (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        key TEXT NOT NULL,
        idx INTEGER NOT NULL,
        record TEXT NOT NULL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS samples_by_key ON samples (key, idx)
    """,
)


@dataclass
class JobState:
    """One job's current state, as its ``jobs`` row holds it."""

    key: str
    status: str = "pending"
    attempts: int = 0
    error: Optional[str] = None
    elapsed: Optional[float] = None
    worker: Optional[str] = None
    cached: bool = False


def status_counts(states: Iterable[JobState]) -> Dict[str, int]:
    """Histogram of job statuses in canonical order."""
    counts = {status: 0 for status in STATUSES}
    for state in states:
        counts[state.status] = counts.get(state.status, 0) + 1
    return counts


@dataclass(frozen=True)
class Claim:
    """One successful claim: the job, which attempt this is, its lease."""

    key: str
    attempt: int
    lease_expires: float


class SqliteJobStore:
    """Shared WAL-mode campaign store: job states, leases, samples.

    A public method runs on the calling thread's :meth:`session`
    connection when that thread holds one, and on a short-lived
    connection of its own otherwise.  So one store object is safe to use
    from any thread (the heartbeat thread included), and any number of
    processes share the database through SQLite's own locking.  ``lease``
    is the default lease duration granted to claims.
    """

    def __init__(self, path, lease: float = DEFAULT_LEASE):
        self.path = Path(path)
        self.lease = float(lease)
        # Session connections by thread id, each with the pid that opened it.
        self._sessions: Dict[int, Tuple[int, sqlite3.Connection]] = {}

    # -- connection plumbing --------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=_TIMEOUT)
        conn.isolation_level = None  # explicit transactions only
        # Turning a database nobody has created yet into WAL mode takes an
        # exclusive lock, and when another connection is creating it too
        # SQLite fails at once instead of waiting out the busy timeout.
        # Retry for as long as that timeout would have waited.
        deadline = time.monotonic() + _TIMEOUT
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    conn.close()
                    raise
                time.sleep(0.005)
        conn.execute("PRAGMA synchronous=NORMAL")
        for statement in _SCHEMA:
            conn.execute(statement)
        have = {row[1] for row in conn.execute("PRAGMA table_info(jobs)")}
        for name, kind in _OUTCOME_COLUMNS:
            if name not in have:
                try:
                    conn.execute(f"ALTER TABLE jobs ADD COLUMN {name} {kind}")
                except sqlite3.OperationalError as error:
                    # Another connection upgrading the same file got there first.
                    if "duplicate column" not in str(error):
                        conn.close()
                        raise
        return conn

    @contextmanager
    def session(self) -> Iterator["SqliteJobStore"]:
        """Hold one connection open for the calling thread until the block exits.

        Every public method the thread calls inside the block runs on
        that connection instead of opening and closing its own.  Closing
        the last connection to a WAL database checkpoints the WAL and
        deletes it, so a worker that opened one per call paid that on
        every claim and outcome write.  Other threads (a lease heartbeat)
        and forked children keep opening their own.  Every method
        finishes its transaction and statements before it returns, so
        the held connection never pins an old snapshot or a lock between
        calls.  A nested session reuses the outer one.
        """
        if self._held() is not None:
            yield self
            return
        ident = threading.get_ident()
        conn = self._connect()
        self._sessions[ident] = (os.getpid(), conn)
        try:
            yield self
        finally:
            del self._sessions[ident]
            conn.close()

    def _held(self) -> Optional[sqlite3.Connection]:
        held = self._sessions.get(threading.get_ident())
        if held is None or held[0] != os.getpid():
            return None
        return held[1]

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """The calling thread's session connection, else a short-lived one."""
        conn = self._held()
        if conn is not None:
            yield conn
            return
        with closing(self._connect()) as conn:
            yield conn

    # -- job states -----------------------------------------------------------

    def exists(self) -> bool:
        return self.path.is_file()

    def clear(self) -> None:
        """Discard the store, including WAL sidecar files (``--fresh``)."""
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except FileNotFoundError:
                pass

    def append(self, record: Dict) -> None:
        """Write one attempt's outcome onto the job's row and release its lease.

        ``record`` holds ``key`` and ``status`` (``done`` or ``failed``)
        and optionally ``worker``, ``error``, ``elapsed`` and ``cached``.
        A key not enqueued yet gets a row.
        """
        with self._connection() as conn:
            conn.execute(
                "INSERT INTO jobs (key, state, worker, error, elapsed, cached) "
                "VALUES (?, ?, ?, ?, ?, ?) ON CONFLICT (key) DO UPDATE SET "
                "state = excluded.state, "
                "worker = COALESCE(excluded.worker, worker), "
                "lease_expires = NULL, error = excluded.error, "
                "elapsed = excluded.elapsed, cached = excluded.cached",
                (
                    record["key"],
                    record["status"],
                    record.get("worker"),
                    record.get("error"),
                    record.get("elapsed"),
                    bool(record.get("cached", False)),
                ),
            )

    def fold(self) -> Dict[str, JobState]:
        """Every enqueued job's state, in enqueue order.

        A ``running`` row whose lease has lapsed reports ``interrupted``:
        its worker is gone, and resume and claim treat it like
        ``pending``, which is the crash-reclaim promise.
        """
        if not self.exists():
            return {}
        now = time.time()
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT key, state, attempts, error, elapsed, worker, cached, "
                "lease_expires FROM jobs ORDER BY seq"
            ).fetchall()
        states: Dict[str, JobState] = {}
        for key, status, attempts, error, elapsed, worker, cached, expires in rows:
            if status == "running" and (expires is None or expires <= now):
                status = "interrupted"
            states[key] = JobState(
                key, status, attempts, error, elapsed, worker, bool(cached)
            )
        return states

    # -- the worker-facing surface --------------------------------------------

    def ensure_jobs(self, keys: Sequence[str]) -> int:
        """Idempotently enqueue job ``keys`` in expansion order.

        Returns how many rows were newly inserted.  Keys already present
        (enqueued by another worker, or already run) are left
        untouched, so every worker can enqueue the full expansion on
        startup without perturbing in-flight state.
        """
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                # executemany sums the rows each insert added.
                inserted = conn.executemany(
                    "INSERT OR IGNORE INTO jobs (key) VALUES (?)",
                    [(key,) for key in keys],
                ).rowcount
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return inserted

    def reopen(self, keys: Sequence[str]) -> None:
        """Set ``keys`` back to ``pending`` with a fresh attempt budget.

        Keys not enqueued yet are left to :meth:`ensure_jobs`.  A
        reopened job keeps its last outcome until its next claim, which
        is attempt 1 again and restarts its sample stream.
        """
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(
                    "UPDATE jobs SET state = 'pending', attempts = 0, "
                    "worker = NULL, lease_expires = NULL WHERE key = ?",
                    [(key,) for key in keys],
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def claim(
        self,
        worker_id: str,
        lease: Optional[float] = None,
        max_attempts: int = 1,
    ) -> Optional[Claim]:
        """Atomically claim the next open job, or None if nothing is open.

        Open means ``pending``, ``running`` with an expired lease (a
        dead worker's job, reclaimed), or ``failed`` with fewer than
        ``max_attempts`` attempts so far.  The claim bumps the attempt
        count, stamps ``(worker_id, lease_expires)`` and clears the
        previous attempt's outcome in the same transaction.
        """
        lease = self.lease if lease is None else float(lease)
        now = time.time()
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT key, attempts FROM jobs WHERE "
                    "state = 'pending' "
                    "OR (state = 'running' AND COALESCE(lease_expires, 0) < ?) "
                    "OR (state = 'failed' AND attempts < ?) "
                    "ORDER BY seq LIMIT 1",
                    (now, int(max_attempts)),
                ).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return None
                key, attempts = row
                attempt = attempts + 1
                expires = now + lease
                conn.execute(
                    "UPDATE jobs SET state = 'running', attempts = ?, "
                    "worker = ?, lease_expires = ?, error = NULL, "
                    "elapsed = NULL, cached = NULL WHERE key = ?",
                    (attempt, worker_id, expires, key),
                )
                # A re-claim (expired lease, failed retry) restarts the
                # job's sample stream from scratch: drop whatever the
                # previous attempt streamed, in the same transaction, so
                # a reader never sees a dead worker's torn stream.
                conn.execute("DELETE FROM samples WHERE key = ?", (key,))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return Claim(key=key, attempt=attempt, lease_expires=expires)

    def heartbeat(
        self, key: str, worker_id: str, lease: Optional[float] = None
    ) -> bool:
        """Renew a held lease; False if the job is no longer this worker's.

        A False return means the lease already expired and someone else
        reclaimed the job (or it finished) — the caller should treat its
        own work as a duplicate (harmless: simulations are deterministic
        and results content-addressed) and move on.
        """
        lease = self.lease if lease is None else float(lease)
        with self._connection() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE key = ? AND worker = ? AND state = 'running'",
                (time.time() + lease, key, worker_id),
            )
            return cursor.rowcount == 1

    def unfinished(self, max_attempts: int = 1) -> int:
        """Jobs that are not yet terminal: pending, in flight, or retryable.

        Workers exit when this reaches zero — a ``failed`` job whose
        attempts are exhausted is terminal and keeps nobody waiting.
        """
        if not self.exists():
            return 0
        with self._connection() as conn:
            (count,) = conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE "
                "state = 'pending' OR state = 'running' "
                "OR (state = 'failed' AND attempts < ?)",
                (int(max_attempts),),
            ).fetchone()
        return count

    # -- streamed telemetry samples -------------------------------------------

    def append_samples(self, key: str, records: Sequence[Dict]) -> None:
        """Land one batch of stream records for ``key`` atomically.

        Positions (``idx``) continue from the key's current tail.  One
        transaction per batch means a SIGKILL mid-batch loses the whole
        batch, never half of it — readers only ever see whole records in
        stream order.
        """
        records = list(records)
        if not records:
            return
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                (base,) = conn.execute(
                    "SELECT COALESCE(MAX(idx) + 1, 0) FROM samples WHERE key = ?",
                    (key,),
                ).fetchone()
                conn.executemany(
                    "INSERT INTO samples (key, idx, record) VALUES (?, ?, ?)",
                    [
                        (key, base + offset, json.dumps(record, sort_keys=True))
                        for offset, record in enumerate(records)
                    ],
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def samples(self, key: str) -> List[Dict]:
        """All of ``key``'s streamed records so far, in stream order."""
        if not self.exists():
            return []
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT record FROM samples WHERE key = ? ORDER BY idx", (key,)
            ).fetchall()
        return [json.loads(text) for (text,) in rows]

    def samples_since(
        self, cursor: int = 0, key: Optional[str] = None
    ) -> Tuple[List[Dict], int]:
        """Rows landed after ``cursor`` (a prior call's return), in order.

        Returns ``(rows, new_cursor)``; each row is ``{id, key, idx,
        record}``.  This is the incremental-poll surface the dashboard
        and ``Campaign.stream()`` consume.
        """
        if not self.exists():
            return [], cursor
        query = "SELECT id, key, idx, record FROM samples WHERE id > ?"
        params: List = [int(cursor)]
        if key is not None:
            query += " AND key = ?"
            params.append(key)
        query += " ORDER BY id"
        with self._connection() as conn:
            rows = conn.execute(query, params).fetchall()
        out = [
            {"id": row_id, "key": row_key, "idx": idx, "record": json.loads(text)}
            for row_id, row_key, idx, text in rows
        ]
        if rows:
            cursor = max(row[0] for row in rows)
        return out, cursor

    def sample_counts(self) -> Dict[str, int]:
        """Streamed records per job key (keys with none are absent)."""
        if not self.exists():
            return {}
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT key, COUNT(*) FROM samples GROUP BY key"
            ).fetchall()
        return dict(rows)
