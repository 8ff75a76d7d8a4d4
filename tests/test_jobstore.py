"""Job store + worker tests: one row per job on WAL SQLite, atomic
lease-based claims, heartbeat renewal, crash reclaim (including a real
SIGKILL'd worker subprocess), concurrent creators, export byte-equality
against a single-process run, and campaign directories that predate the
job store.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing, nullcontext
from pathlib import Path

import pytest

from repro import api, runtime, sim
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    SqliteJobStore,
    drain,
    run_worker,
)
from repro.campaign.jobstore import DB_NAME
from repro.campaign.report import export

POLICIES = ("demand-first", "padc")


def small_spec(name="dist", accesses=250, **kwargs):
    kwargs.setdefault("include_alone", False)
    return CampaignSpec.build(
        name,
        [["swim", "art"], ["libquantum", "milc"]],
        POLICIES,
        accesses,
        **kwargs,
    )


@pytest.fixture
def store(tmp_path):
    return SqliteJobStore(tmp_path / DB_NAME, lease=30.0)


class TestLedgerContractParity:
    """A running row reads as running only while its lease is live."""

    def test_interrupted_with_live_lease_shows_running(self, store):
        store.ensure_jobs(["k1"])
        claim = store.claim("w1", lease=30.0)
        assert claim.key == "k1"
        assert store.fold()["k1"].status == "running"

    def test_interrupted_with_expired_lease_shows_interrupted(self, store):
        store.ensure_jobs(["k1"])
        store.claim("w1", lease=0.01)
        time.sleep(0.05)
        assert store.fold()["k1"].status == "interrupted"

    def test_clear_removes_wal_sidecars(self, store):
        store.append({"key": "k1", "status": "done"})
        assert store.exists()
        store.clear()
        assert not store.exists()
        assert not list(store.path.parent.glob(f"{DB_NAME}*"))


class TestClaims:
    def test_claim_order_is_enqueue_order(self, store):
        store.ensure_jobs(["a", "b", "c"])
        assert store.claim("w1").key == "a"
        assert store.claim("w1").key == "b"
        assert store.claim("w2").key == "c"
        assert store.claim("w2") is None

    def test_enqueue_is_idempotent(self, store):
        assert store.ensure_jobs(["a", "b"]) == 2
        assert store.ensure_jobs(["a", "b", "c"]) == 1

    def test_done_job_is_not_claimable(self, store):
        store.ensure_jobs(["a"])
        claim = store.claim("w1")
        store.append({"key": "a", "status": "done", "attempt": claim.attempt})
        assert store.claim("w2") is None
        assert store.unfinished() == 0

    def test_running_job_with_live_lease_is_not_claimable(self, store):
        store.ensure_jobs(["a"])
        store.claim("w1", lease=30.0)
        assert store.claim("w2") is None
        assert store.unfinished() == 1  # in flight, so a sibling waits

    def test_expired_lease_is_reclaimed(self, store):
        store.ensure_jobs(["a"])
        first = store.claim("w1", lease=0.01)
        time.sleep(0.05)
        second = store.claim("w2", lease=30.0)
        assert second is not None
        assert second.key == "a"
        assert second.attempt == first.attempt + 1
        assert store.fold()["a"].attempts == 2

    def test_interrupted_job_without_a_lease_is_claimable(self, store):
        # A running state that no live lease backs reads as interrupted,
        # and resume and claim treat an interrupted job like a pending one.
        store.append({"key": "a", "status": "running"})
        assert store.fold()["a"].status == "interrupted"
        assert store.unfinished() == 1
        claim = store.claim("w1")
        assert claim is not None and claim.key == "a"

    def test_heartbeat_extends_lease(self, store):
        store.ensure_jobs(["a"])
        claim = store.claim("w1", lease=0.2)
        deadline = time.time() + 1.0
        while time.time() < deadline:
            assert store.heartbeat("a", "w1", lease=0.2)
            time.sleep(0.05)
        # Despite the 0.2s lease, a second worker could never claim it.
        assert store.claim("w2") is None
        assert claim.lease_expires < time.time()  # original lease long gone

    def test_heartbeat_from_evicted_worker_fails(self, store):
        store.ensure_jobs(["a"])
        store.claim("w1", lease=0.01)
        time.sleep(0.05)
        store.claim("w2", lease=30.0)
        assert not store.heartbeat("a", "w1")
        assert store.heartbeat("a", "w2")

    def test_failed_job_retryable_within_budget(self, store):
        store.ensure_jobs(["a"])
        claim = store.claim("w1")
        store.append(
            {"key": "a", "status": "failed", "attempt": claim.attempt, "error": "x"}
        )
        assert store.claim("w1", max_attempts=1) is None  # budget exhausted
        assert store.unfinished(max_attempts=1) == 0  # terminal
        assert store.unfinished(max_attempts=2) == 1
        retry = store.claim("w1", max_attempts=2)
        assert retry is not None and retry.attempt == 2

    def test_reopen_gives_a_fresh_attempt_budget(self, store):
        store.ensure_jobs(["a", "b"])
        for status in ("failed", "done"):
            claim = store.claim("w1")
            store.append({"key": claim.key, "status": status, "attempt": 1})
        assert store.claim("w1") is None  # a exhausted, b done
        store.reopen(["a", "b", "never-enqueued"])
        assert store.unfinished() == 2
        again = [store.claim("w2") for _ in range(2)]
        assert [(c.key, c.attempt) for c in again] == [("a", 1), ("b", 1)]
        # Attempts count the claims since the job was last reopened.
        assert store.fold()["a"].attempts == 1

    def test_concurrent_claims_never_collide(self, store):
        assert claim_concurrently(store, sessions=False) == CONCURRENT_KEYS
        assert store.unfinished() == 0


CONCURRENT_KEYS = sorted(f"k{i}" for i in range(40))


def claim_concurrently(store, sessions):
    """Four threads share ``store`` and drain 40 jobs; the keys they claimed.

    A short switch interval makes the threads interleave between every
    few bytecodes, so a claim lost or taken twice shows in the result.
    """
    store.ensure_jobs(CONCURRENT_KEYS)
    claimed = []
    lock = threading.Lock()

    def drain(worker_id):
        with store.session() if sessions else nullcontext():
            while True:
                claim = store.claim(worker_id, lease=30.0)
                if claim is None:
                    return
                with lock:
                    claimed.append(claim.key)
                store.append(
                    {"key": claim.key, "status": "done", "attempt": claim.attempt}
                )

    threads = [threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return sorted(claimed)


class TestConcurrentCreate:
    def test_racing_creators_same_spec_all_succeed(self, tmp_path):
        spec = small_spec()
        results, errors = [], []

        def create():
            try:
                results.append(Campaign.create(spec, tmp_path / "c"))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8
        # Exactly one snapshot, valid JSON, correct fingerprint.
        payload = json.loads((tmp_path / "c" / "campaign.json").read_text())
        assert payload["fingerprint"] == spec.fingerprint()
        assert not list((tmp_path / "c").glob("*.tmp"))

    def test_loser_with_different_spec_fails_loudly(self, tmp_path):
        Campaign.create(small_spec(), tmp_path / "c")
        with pytest.raises(CampaignError) as excinfo:
            Campaign.create(small_spec(accesses=999), tmp_path / "c")
        assert "different spec" in str(excinfo.value)


class TestFreshDatabaseRace:
    def test_racing_first_connections_all_succeed(self, tmp_path):
        """Connections that all open a database nobody has created yet.

        Switching the new file to WAL mode can fail at once with
        "database is locked", without waiting out the busy timeout; the
        store retries it.
        """
        errors = []

        def enqueue(path, barrier):
            barrier.wait()
            try:
                SqliteJobStore(path).ensure_jobs(["a", "b"])
            except Exception as error:  # noqa: BLE001 - counted below
                errors.append(error)

        for index in range(200):
            path = tmp_path / f"db{index}" / DB_NAME
            barrier = threading.Barrier(4)
            threads = [
                threading.Thread(target=enqueue, args=(path, barrier))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_racing_connections_add_the_outcome_columns_once(self, tmp_path):
        """Connections that all open a database without the outcome
        columns: each may see them missing, and the ones that lose the
        race to add them get "duplicate column", which the store ignores."""
        errors, states = [], []

        def read(path, barrier):
            barrier.wait()
            try:
                states.append(SqliteJobStore(path).fold()["a"].status)
            except Exception as error:  # noqa: BLE001 - counted below
                errors.append(error)

        for index in range(50):
            path = tmp_path / f"db{index}" / DB_NAME
            path.parent.mkdir()
            with closing(sqlite3.connect(str(path))) as conn:
                conn.executescript(JOURNAL_SCHEMA)
                conn.execute("INSERT INTO jobs (key, state) VALUES ('a', 'done')")
                conn.commit()
            barrier = threading.Barrier(4)
            threads = [
                threading.Thread(target=read, args=(path, barrier))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert states == ["done"] * 200


def record_connects(monkeypatch):
    """Record every connection the store opens, with the opening thread's id."""
    opened = []
    connect = SqliteJobStore._connect

    def recording(self):
        conn = connect(self)
        opened.append((threading.get_ident(), conn))
        return conn

    monkeypatch.setattr(SqliteJobStore, "_connect", recording)
    return opened


class TestSession:
    def test_one_connection_serves_every_call(self, store, monkeypatch):
        """And between calls it holds no snapshot and no lock."""
        store.ensure_jobs(["a", "b"])
        opened = record_connects(monkeypatch)
        with store.session():
            claim = store.claim("w1")
            store.append_samples("a", [{"cycle": 1}, {"cycle": 2}])
            store.heartbeat("a", "w1")
            store.append({"key": "a", "status": "done", "attempt": claim.attempt})
            with store.session():  # a nested session reuses the outer one
                assert store.fold()["a"].status == "done"
            assert store.samples("a") == [{"cycle": 1}, {"cycle": 2}]
            store.samples_since(0)
            store.sample_counts()
            assert store.unfinished() == 1
            # A checkpoint that must wait for every reader completes at
            # once, and a writer gets its lock without waiting.
            with closing(sqlite3.connect(str(store.path), timeout=0)) as other:
                busy, _, _ = other.execute(
                    "PRAGMA wal_checkpoint(TRUNCATE)"
                ).fetchone()
                assert busy == 0
                other.execute("BEGIN IMMEDIATE")
                other.execute("ROLLBACK")
        assert len(opened) == 1

    def test_threads_with_their_own_sessions_never_collide(self, store):
        assert claim_concurrently(store, sessions=True) == CONCURRENT_KEYS
        assert store.unfinished() == 0

    def test_heartbeat_from_another_thread_renews_the_lease(self, store):
        store.ensure_jobs(["a"])
        with store.session():
            claim = store.claim("w1", lease=0.01)
            renewed = []
            beat = threading.Thread(
                target=lambda: renewed.append(store.heartbeat("a", "w1", lease=30.0))
            )
            beat.start()
            beat.join(timeout=30)
            assert renewed == [True]
            time.sleep(0.05)  # the claim's own lease is long gone
            assert store.fold()["a"].status == "running"
            assert store.claim("w2") is None


class TestConnection:
    def test_connection_waits_30_s_for_a_lock(self, store):
        # The connect timeout is SQLite's busy timeout; no pragma sets it.
        with store._connection() as conn:
            assert conn.execute("PRAGMA busy_timeout").fetchone() == (30000,)

    def test_meta_column_is_kept_for_older_builds(self, store):
        """Older builds select ``meta`` with every row, so the column
        stays, unwritten, and they can still read this build's store."""
        store.ensure_jobs(["a"])
        with store._connection() as conn:
            assert conn.execute("SELECT key, meta FROM jobs").fetchall() == [
                ("a", None)
            ]


class TestWorkerLoop:
    def test_single_worker_drains_campaign(self, tmp_path):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(small_spec(), tmp_path / "c")
        stats = run_worker(campaign, runtime=executor, worker_id="w1", poll=0.05)
        assert stats.done == 4 and stats.failed == 0
        assert campaign.status_counts()["done"] == 4

    def test_two_workers_split_the_campaign(self, tmp_path):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(small_spec(), tmp_path / "c")
        all_stats = []

        def work(worker_id):
            all_stats.append(
                run_worker(
                    campaign, runtime=executor, worker_id=worker_id, poll=0.05
                )
            )

        threads = [threading.Thread(target=work, args=(f"w{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(stats.done for stats in all_stats) == 4
        assert campaign.status_counts()["done"] == 4
        # Every done job names the worker that produced it.
        workers = {state.worker for state in campaign.states().values()}
        assert workers and workers <= {"w0", "w1"}

    def test_fresh_campaign_database_holds_only_jobs_and_samples(self, tmp_path):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(small_spec(), tmp_path / "c")
        drain(campaign, runtime=executor, stream=True)
        with closing(sqlite3.connect(str(campaign.ledger.path))) as conn:
            tables = {
                name
                for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert tables == {"jobs", "samples", "sqlite_sequence"}

    def test_should_stop_drains_gracefully(self, tmp_path):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(small_spec(), tmp_path / "c")
        calls = []

        def stop_after_two():
            # Consulted once before each claim: let two jobs through.
            calls.append(1)
            return len(calls) > 2

        stats = run_worker(
            campaign, runtime=executor, worker_id="w1", should_stop=stop_after_two
        )
        assert stats.drained
        assert stats.done == 2
        counts = campaign.status_counts()
        assert counts["done"] == 2 and counts["pending"] == 2
        # Nothing left half-claimed: a sibling can finish the rest.
        resumed = run_worker(campaign, runtime=executor, worker_id="w2", poll=0.05)
        assert resumed.done == 2
        assert campaign.status_counts()["done"] == 4

    def test_failed_job_journaled_and_retried(self, tmp_path, monkeypatch):
        from repro import sim

        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        spec = CampaignSpec.build(
            "flaky", [["swim"]], ["padc"], 200, include_alone=False
        )
        campaign = Campaign.create(spec, tmp_path / "c")
        real = sim.simulate
        attempts = []

        def flaky(config, benchmarks, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient blip")
            return real(config, benchmarks, **kwargs)

        monkeypatch.setattr(sim, "simulate", flaky)
        stats = run_worker(
            campaign, runtime=executor, worker_id="w1", retries=1, poll=0.05
        )
        assert stats.failed == 1 and stats.done == 1
        (state,) = campaign.states().values()
        assert state.status == "done"
        assert state.attempts == 2


class TestWorkerSession:
    """run_worker holds one job-store connection for its whole loop."""

    def test_worker_thread_connects_once(self, tmp_path, monkeypatch):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(small_spec(), tmp_path / "c")
        opened = record_connects(monkeypatch)
        stats = run_worker(
            campaign, runtime=executor, worker_id="w1", poll=0.05, stream=True
        )
        assert stats.done == 4
        # Heartbeat threads open their own connections; leave them out.
        mine = [conn for ident, conn in opened if ident == threading.get_ident()]
        assert len(mine) == 1

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_connection_closed_and_wal_gone_after_worker(
        self, tmp_path, monkeypatch, fails
    ):
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        campaign = Campaign.create(small_spec(), tmp_path / "c")
        opened = record_connects(monkeypatch)
        calls = []

        def should_stop():
            calls.append(1)
            if fails and len(calls) > 2:
                raise RuntimeError("stop check failed")
            return False

        if fails:
            with pytest.raises(RuntimeError):
                run_worker(campaign, runtime=executor, should_stop=should_stop)
        else:
            run_worker(campaign, runtime=executor, should_stop=should_stop)
        assert opened
        for _, conn in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")
        assert not (tmp_path / "c" / f"{DB_NAME}-wal").exists()
        assert campaign.status_counts()["done"] == (2 if fails else 4)


def serial_baseline(spec, tmp_path):
    """(csv, json) export of a cold single-process drain."""
    executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache-serial"))
    campaign = Campaign.create(spec, tmp_path / "serial")
    drain(campaign, runtime=executor)
    return (
        export(campaign, executor.store, fmt="csv"),
        export(campaign, executor.store, fmt="json"),
    )


class TestExportEquality:
    """However a campaign is driven — multi-worker, streamed, or with a
    crashed worker's job reclaimed — it exports byte-identical CSV/JSON
    to a single-process run."""

    def test_worker_export_matches_serial_runner(self, tmp_path):
        spec = small_spec(include_alone=True)
        serial_csv, serial_json = serial_baseline(spec, tmp_path)
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache-worker"))
        campaign = Campaign.create(spec, tmp_path / "worker")
        run_worker(campaign, runtime=executor, worker_id="w1", poll=0.05)
        assert export(campaign, executor.store, fmt="csv") == serial_csv
        assert export(campaign, executor.store, fmt="json") == serial_json

    def test_streamed_runner_export_matches_serial_runner(self, tmp_path):
        """A serial run that streams samples exports the same bytes."""
        spec = small_spec()
        serial_csv, _ = serial_baseline(spec, tmp_path)
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache-streamed"))
        campaign = Campaign.create(spec, tmp_path / "streamed")
        run = drain(campaign, runtime=executor, stream=True)
        assert not run.incomplete()
        assert set(campaign.ledger.sample_counts()) == {
            job.key for job in campaign.unique_jobs()
        }
        assert export(campaign, executor.store, fmt="csv") == serial_csv

    def test_crash_reclaimed_export_matches_serial_runner(self, tmp_path):
        """Kill a claim mid-flight (lease expiry), let a second worker
        reclaim it, and the export is still byte-identical."""
        spec = small_spec()
        serial_csv, _ = serial_baseline(spec, tmp_path)
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache-reclaimed"))
        campaign = Campaign.create(spec, tmp_path / "reclaimed")
        store = campaign.ledger
        # Emulate the SIGKILL: a claim that never completes nor heartbeats.
        store.ensure_jobs([job.key for job in campaign.unique_jobs()])
        doomed = store.claim("doomed", lease=0.01)
        assert doomed is not None
        time.sleep(0.05)
        stats = run_worker(campaign, runtime=executor, worker_id="w2", poll=0.05)
        assert stats.done == 4  # includes the reclaimed job
        assert campaign.states()[doomed.key].attempts == 2
        assert export(campaign, executor.store, fmt="csv") == serial_csv


class TestUpgradePath:
    """A campaign directory written before the job store existed holds
    ``campaign.json`` and a ``ledger.jsonl`` journal but no
    ``jobs.sqlite``.  Rerunning its spec starts every job ``pending``;
    with a warm result store each resolves as a hit."""

    def test_pre_store_directory_resumes_from_result_store(self, tmp_path, monkeypatch):
        spec = small_spec(include_alone=True)
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        api.campaign(spec, directory=tmp_path / "warm", runtime=executor)
        expected = export(Campaign.open(tmp_path / "warm"), executor.store)

        old = tmp_path / "old"
        old.mkdir()
        (old / "campaign.json").write_text((tmp_path / "warm" / "campaign.json").read_text())
        with open(old / "ledger.jsonl", "w", encoding="utf-8") as handle:
            for job in Campaign.open(old).unique_jobs():
                for status in ("running", "done"):
                    record = {"key": job.key, "status": status, "attempt": 1}
                    handle.write(json.dumps(record, sort_keys=True) + "\n")

        calls = []
        real = sim.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate", counting)
        run = api.campaign(spec, directory=old, runtime=executor)
        assert calls == []  # every job was a result-store hit
        assert all(state.cached for state in run.states.values())
        assert (old / DB_NAME).is_file()
        assert export(run.campaign, executor.store) == expected

    def test_journal_schema_database_reruns_only_its_failed_job(
        self, tmp_path, monkeypatch
    ):
        """A ``jobs.sqlite`` whose ``jobs`` table has no outcome columns
        and whose states also sit in a ``records`` journal, as builds
        that journaled every transition wrote it: its done jobs stay
        done, and only the failed one runs again."""
        spec = small_spec(include_alone=True)
        executor = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache"))
        api.campaign(spec, directory=tmp_path / "clean", runtime=executor)
        clean = Campaign.open(tmp_path / "clean")
        expected = export(clean, executor.store)
        jobs = clean.unique_jobs()
        failed = jobs[1]
        # Its failed attempt stored no result.
        executor.store.path_for(failed.key).unlink()

        old = tmp_path / "old"
        old.mkdir()
        (old / "campaign.json").write_text((tmp_path / "clean" / "campaign.json").read_text())
        with closing(sqlite3.connect(str(old / DB_NAME))) as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(JOURNAL_SCHEMA)
            for job in jobs:
                status = "failed" if job is failed else "done"
                # What such a build enqueued as the job's meta.
                meta = {"kind": job.kind, "benchmarks": list(job.benchmarks),
                        "policy": job.policy, "variant": job.variant,
                        "seed": job.seed, "workload_index": job.workload_index,
                        "config_fingerprint": "0123456789abcdef"}
                conn.execute(
                    "INSERT INTO jobs (key, state, attempts, worker, meta) "
                    "VALUES (?, ?, 1, 'w1', ?)",
                    (job.key, status, json.dumps(meta, sort_keys=True)),
                )
                outcome = {"key": job.key, "status": status, "attempt": 1,
                           "worker": "w1", "elapsed": 0.1, "job": meta}
                if job is failed:
                    outcome["error"] = "RuntimeError: boom"
                else:
                    outcome["cached"] = False
                for record in (
                    {"key": job.key, "status": "running", "attempt": 1,
                     "worker": "w1", "job": meta},
                    outcome,
                ):
                    conn.execute(
                        "INSERT INTO records (record) VALUES (?)",
                        (json.dumps(record, sort_keys=True),),
                    )
            conn.commit()

        calls = []
        real = sim.simulate

        def counting(config, benchmarks, **kwargs):
            calls.append(tuple(getattr(b, "name", str(b)) for b in benchmarks))
            return real(config, benchmarks, **kwargs)

        monkeypatch.setattr(sim, "simulate", counting)
        run = api.campaign(spec, directory=old, runtime=executor)
        assert calls == [tuple(failed.benchmarks)]
        assert {state.status for state in run.states.values()} == {"done"}
        assert run.states[failed.key].error is None
        assert export(run.campaign, executor.store) == expected


# The job store's schema while it journaled every transition: a
# ``records`` table next to a ``jobs`` table without outcome columns.
JOURNAL_SCHEMA = """
CREATE TABLE records (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    record TEXT NOT NULL
);
CREATE TABLE jobs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    key TEXT NOT NULL UNIQUE,
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    worker TEXT,
    lease_expires REAL,
    meta TEXT
);
CREATE TABLE samples (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    key TEXT NOT NULL,
    idx INTEGER NOT NULL,
    record TEXT NOT NULL
);
CREATE INDEX samples_by_key ON samples (key, idx);
"""


@pytest.mark.slow
class TestSigkillWorkerSubprocess:
    """The acceptance scenario end-to-end: a real worker process is
    SIGKILL'd mid-job; a second worker reclaims and finishes; the export
    is byte-identical to a single-process run."""

    def test_kill9_worker_loses_nothing(self, tmp_path):
        spec = small_spec(name="kill9")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        campaign_dir = tmp_path / "campaign"
        cache_dir = tmp_path / "cache"

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

        create = subprocess.run(
            [
                sys.executable, "-m", "repro.campaign", "create",
                "--spec", str(spec_file), "--dir", str(campaign_dir),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert create.returncode == 0, create.stderr

        # Worker A claims its first job, then sits in the throttle sleep
        # (heartbeating) long enough for us to SIGKILL it mid-job.
        doomed = subprocess.Popen(
            [
                sys.executable, "-m", "repro.campaign", "worker",
                str(campaign_dir), "--cache-dir", str(cache_dir),
                "--worker-id", "doomed", "--lease", "1", "--throttle", "60",
                "--quiet",
            ],
            env=env,
        )
        try:
            store = SqliteJobStore(campaign_dir / DB_NAME)
            deadline = time.time() + 30
            while time.time() < deadline:
                states = store.fold().values()
                if any(state.status == "running" for state in states):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("worker never claimed a job")
            doomed.send_signal(signal.SIGKILL)
            doomed.wait(timeout=30)
        finally:
            if doomed.poll() is None:
                doomed.kill()
        # Its lease may lapse before this read, which makes it interrupted.
        (claimed,) = [
            state
            for state in store.fold().values()
            if state.status in ("running", "interrupted")
        ]
        assert claimed.worker == "doomed"

        # A second worker reclaims the orphaned job after the 1s lease
        # expires and drains the campaign.
        executor = runtime.configure(jobs=1, cache_dir=str(cache_dir))
        campaign = Campaign.open(campaign_dir)
        stats = run_worker(
            campaign, runtime=executor, worker_id="rescuer", poll=0.1
        )
        assert stats.done == 4
        states = campaign.states()
        assert states[claimed.key].status == "done"
        assert states[claimed.key].attempts == 2  # doomed's try + rescue
        assert states[claimed.key].worker == "rescuer"

        # Byte-identical to the single-process baseline.
        clean_rt = runtime.configure(jobs=1, cache_dir=str(tmp_path / "cache2"))
        clean = Campaign.create(spec, tmp_path / "clean")
        drain(clean, runtime=clean_rt)
        assert export(campaign, executor.store) == export(clean, clean_rt.store)
