"""Tests for the persistent memo tier (``repro.wire.persist``).

The differential contract: a run served from the store is **bit-identical**
to a cold run — payloads, step counts, error positions — across fresh
sessions, across pool workers, and across a *real process restart* (the
subprocess tests below).  A tampered row must never be trusted: the seal
turns poison into a miss, and the recomputed answer matches the cold run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro import cc
from repro.api import Session, execute_jobs
from repro.gen.jobs import build_stream, job_corpus
from repro.surface import parse_term
from repro.wire.persist import PersistentMemoStore

REDEX = r"(\ (x : Nat). succ x) ((\ (y : Nat). succ (succ y)) 4)"


def _normalize_steps(session: Session, text: str) -> tuple[str, int]:
    with session.activate():
        result = session.normalize(cc.intern(parse_term(text)))
        return cc.pretty(cc.intern(result.value)), result.steps


class TestStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = PersistentMemoStore(tmp_path / "memo.sqlite")
        store.put(b"k" * 24, 7, b"payload")
        assert store.get(b"k" * 24) == (7, b"payload")  # served from the buffer
        store.flush()
        assert store.get(b"k" * 24) == (7, b"payload")  # served from the table
        assert len(store) == 1
        store.close()
        # A second connection (a "restarted process") sees the flushed row.
        again = PersistentMemoStore(tmp_path / "memo.sqlite")
        assert again.get(b"k" * 24) == (7, b"payload")
        assert again.stats()["hits"] == 1
        again.close()

    def test_concurrent_first_opens_all_succeed(self, tmp_path):
        # Openers of a not-yet-existing file race on the WAL switch; the
        # losers must wait their turn, not fail with "database is locked".
        for round_ in range(20):
            path = tmp_path / f"race{round_}.sqlite"
            barrier = threading.Barrier(8)
            failures: list[BaseException] = []
            stores: list[PersistentMemoStore] = []
            lock = threading.Lock()

            def open_store() -> None:
                barrier.wait()
                try:
                    store = PersistentMemoStore(path, timeout=10.0)
                except BaseException as err:  # noqa: BLE001 - recorded
                    with lock:
                        failures.append(err)
                    return
                with lock:
                    stores.append(store)

            threads = [threading.Thread(target=open_store) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for store in stores:
                store.close()
            assert failures == [], f"round {round_}: {failures!r}"
            assert len(stores) == 8

    def test_missing_key_is_a_miss(self, tmp_path):
        store = PersistentMemoStore(tmp_path / "memo.sqlite")
        assert store.get(b"absent" * 4) is None
        assert store.stats()["misses"] == 1
        store.close()

    def test_poisoned_row_fails_its_seal(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        store = PersistentMemoStore(path)
        store.put(b"p" * 24, 3, b"result")
        store.close()
        # Tamper with the recorded fuel behind the store's back.
        raw = sqlite3.connect(path)
        raw.execute("UPDATE memo SET steps = steps + 7")
        raw.commit()
        raw.close()
        reopened = PersistentMemoStore(path)
        assert reopened.get(b"p" * 24) is None  # wrong fuel → sealed out
        assert reopened.stats()["misses"] == 1
        reopened.close()

    def test_read_only_never_writes(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        writer = PersistentMemoStore(path)
        writer.put(b"r" * 24, 1, b"row")
        writer.close()
        reader = PersistentMemoStore(path, read_only=True)
        assert reader.get(b"r" * 24) == (1, b"row")
        reader.put(b"x" * 24, 2, b"new")
        reader.flush()
        reader.close()
        check = PersistentMemoStore(path)
        assert check.get(b"x" * 24) is None  # the read-only put never landed
        check.close()


class TestTier:
    def test_cold_then_warm_across_fresh_sessions(self, tmp_path):
        store = PersistentMemoStore(tmp_path / "memo.sqlite")

        cold = Session(name="persist-cold")
        cold.attach_memo_store(store)
        cold_normal, cold_steps = _normalize_steps(cold, REDEX)
        tier = cold.detach_memo_store()
        assert tier.stores > 0
        store.flush()

        warm = Session(name="persist-warm")
        warm.attach_memo_store(store)
        warm_normal, warm_steps = _normalize_steps(warm, REDEX)
        warm_tier = warm.detach_memo_store()

        assert (warm_normal, warm_steps) == (cold_normal, cold_steps)
        assert warm_tier.hits > 0
        store.close()

    def test_reset_detaches_the_tier(self, tmp_path):
        store = PersistentMemoStore(tmp_path / "memo.sqlite")
        session = Session(name="persist-reset")
        session.attach_memo_store(store)
        assert session.state.persistent is not None
        session.reset()
        assert session.state.persistent is None
        assert session.state.normalization.persistent is None
        store.close()

    def test_service_reset_job_reattaches(self, tmp_path):
        # Service policy: a reset *job* cools the session but keeps the
        # worker configured — gen streams open every build with a reset,
        # which must not permanently sever the shared store.
        store = PersistentMemoStore(tmp_path / "memo.sqlite")
        session = Session(name="persist-reset-job")
        session.attach_memo_store(store)
        report = execute_jobs(
            [{"kind": "reset"}, {"kind": "normalize", "program": REDEX}],
            session=session,
            memo_store=store,
        )
        assert report.ok
        assert report.stats["persist"]["writes"] > 0
        store.close()

    def test_poisoned_entry_recomputes_correctly(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        store = PersistentMemoStore(path)
        cold = Session(name="poison-cold")
        cold.attach_memo_store(store)
        cold_normal, cold_steps = _normalize_steps(cold, REDEX)
        cold.detach_memo_store()
        store.close()

        raw = sqlite3.connect(path)
        raw.execute("UPDATE memo SET steps = steps + 7")
        raw.commit()
        raw.close()

        reopened = PersistentMemoStore(path)
        warm = Session(name="poison-warm")
        warm.attach_memo_store(reopened)
        warm_normal, warm_steps = _normalize_steps(warm, REDEX)
        tier = warm.detach_memo_store()
        assert (warm_normal, warm_steps) == (cold_normal, cold_steps)
        assert tier.hits == 0  # every poisoned row sealed out
        assert reopened.stats()["misses"] > 0
        reopened.close()

    @pytest.mark.parametrize(
        "name, skipped, stored", [("church-2", 32, 0), ("pair-dependent", 18, 7)]
    )
    def test_cold_compile_persists_cc_kinds_only(self, tmp_path, name, skipped, stored):
        # The tier's selection is CC-only (see PersistentTier): every CC-CC
        # normalization of a compile's verification is skipped, never stored.
        from repro.cc.ast import LANGUAGE as CC_LANGUAGE
        from repro.cccc.ast import LANGUAGE as CCCC_LANGUAGE
        from repro.common.errors import WireDecodeError
        from repro.gen.jobs import close_over
        from repro.wire.codec import decode_term
        from tests.corpus import CORPUS

        (entry,) = [entry for entry in CORPUS if entry[0] == name]
        path = tmp_path / "memo.sqlite"
        store = PersistentMemoStore(path)
        session = Session(name="persist-cc-only")
        tier = session.attach_memo_store(store)
        assert session.compile(close_over(*entry[1:])).verified
        session.detach_memo_store()
        store.close()
        assert (tier.skipped, tier.stores) == (skipped, stored)
        rows = [blob for (blob,) in sqlite3.connect(path).execute("SELECT result FROM memo")]
        assert len(rows) == stored
        for blob in rows:
            decode_term(CC_LANGUAGE, blob)
            with pytest.raises(WireDecodeError, match="language mismatch"):
                decode_term(CCCC_LANGUAGE, blob)

    def test_batch_stats_expose_the_tier_without_new_hit_kinds(self, tmp_path):
        # tests/test_cli.py pins the exact cache_hits key set; the tier's
        # counters must travel under stats["persist"] instead.
        report = execute_jobs(
            [{"kind": "normalize", "program": REDEX}],
            memo_store=tmp_path / "memo.sqlite",
        )
        assert report.ok
        assert set(report.stats["cache_hits"]) == {
            "kernel.normalization",
            "kernel.judgments",
        }
        assert report.stats["persist"]["writes"] > 0


class TestRestartDifferential:
    """Cold corpus run → real process restart → warm run: byte-identical."""

    def _run_batch(self, corpus_path, store_path, tmp_path, tag):
        out = tmp_path / f"report-{tag}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "batch",
                str(corpus_path),
                "--json",
                "--memo-store",
                str(store_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd="/root/repo",
            timeout=300,
        )
        # Exit 1 just means some job *result* failed (the corpus includes a
        # deliberate fuel-starved job); the report itself must still emit.
        assert proc.returncode in (0, 1), proc.stderr
        out.write_text(proc.stdout)
        return json.loads(proc.stdout)

    @staticmethod
    def _canonical(report) -> list[dict]:
        documents = []
        for result in report["results"]:
            document = {key: result[key] for key in ("id", "ok")}
            if result["ok"]:
                document["payload"] = result["payload"]
            else:
                document["error"] = result["error"]
            documents.append(document)
        return documents

    def test_cold_restart_warm_identical(self, tmp_path):
        specs = job_corpus(seed=5, count=3)
        # Include a deterministic failure so error documents are compared too.
        specs.append({"kind": "normalize", "program": REDEX, "fuel": 1, "id": "starved"})
        corpus = tmp_path / "jobs.jsonl"
        corpus.write_text("".join(json.dumps(spec) + "\n" for spec in specs))
        store = tmp_path / "memo.sqlite"

        cold = self._run_batch(corpus, store, tmp_path, "cold")
        warm = self._run_batch(corpus, store, tmp_path, "warm")

        assert self._canonical(cold) == self._canonical(warm)
        assert cold["stats"]["persist"]["writes"] > 0
        assert warm["stats"]["persist"]["hits"] > 0

    def test_pooled_workers_share_one_store(self, tmp_path):
        stream = build_stream(build=0, seed=9, iterations=1, passes=2, corpus_size=2)
        store = tmp_path / "memo.sqlite"
        solo = execute_jobs(stream)
        pooled = execute_jobs(stream, workers=2, memo_store=store)
        warm = execute_jobs(stream, workers=2, memo_store=store)
        assert solo.canonical() == pooled.canonical() == warm.canonical()
        # The pooled runs actually reached the shared store.
        check = PersistentMemoStore(store, read_only=True)
        try:
            assert len(check) > 0
        finally:
            check.close()


class TestFailureHardening:
    """The store's failure domain: counted errors, breaker, bounded buffer."""

    def _store(self, tmp_path, **kwargs):
        return PersistentMemoStore(tmp_path / "memo.sqlite", **kwargs)

    def test_sqlite_errors_are_counted_not_raised(self, tmp_path):
        from repro.wire import persist

        store = self._store(tmp_path, flush_threshold=1)
        calls = {"n": 0}

        def hook(op):
            calls["n"] += 1
            raise sqlite3.OperationalError("injected")

        persist.FAULT_HOOK = hook
        try:
            store.put(b"k" * 24, 1, b"v")       # flush fails, buffer kept
            assert store.get(b"k" * 24) == (1, b"v")  # pending still serves it
            assert store.get(b"x" * 24) is None  # read fails -> counted miss
        finally:
            persist.FAULT_HOOK = None
        assert store.errors >= 2
        assert calls["n"] >= 2
        assert store.counters()["errors"] == store.errors
        # With the hook gone the buffered entry flushes cleanly.
        store.flush()
        assert store.counters()["pending"] == 0
        store.close()

    def test_breaker_trips_then_probe_recloses(self, tmp_path):
        from repro.wire import persist

        store = self._store(
            tmp_path, flush_threshold=10_000, breaker_threshold=3, probe_interval=4
        )
        persist.FAULT_HOOK = lambda op: (_ for _ in ()).throw(
            sqlite3.OperationalError("injected")
        )
        try:
            for index in range(3):
                assert store.get(str(index).encode() * 8) is None
        finally:
            persist.FAULT_HOOK = None
        assert store.trips == 1
        assert store.counters()["breaker"] == "open"
        # While open, reads are misses without touching SQLite; after
        # probe_interval ops one probe goes through, succeeds, and recloses.
        for index in range(10, 20):
            store.get(str(index).encode() * 8)
        assert store.counters()["breaker"] == "closed"
        store.close()

    def test_pending_buffer_is_bounded(self, tmp_path):
        store = self._store(
            tmp_path, read_only=True, flush_threshold=10_000, max_pending_entries=8
        )
        for index in range(20):
            store.put(f"{index:03d}".encode() * 8, index, b"v")
        assert store.counters()["pending"] == 8
        assert store.dropped == 12
        # The newest entries survive; the oldest were shed.
        assert store.get(b"019" * 8) == (19, b"v")
        assert store.get(b"000" * 8) is None
        store.close()

    def test_store_open_failure_is_a_typed_error_with_the_path(self, tmp_path):
        from repro.common.errors import StoreError

        bogus = tmp_path / "not-a-directory" / "nested" / "memo.sqlite"
        with pytest.raises(StoreError) as excinfo:
            PersistentMemoStore(bogus)
        assert str(bogus) in str(excinfo.value)

    def test_breaker_trip_mid_batch_degrades_without_divergence(self, tmp_path):
        # Trip the store breaker partway through a batch: the run must
        # complete byte-identical to a storeless run (in-memory memo only)
        # and report the trip in its stats.
        from repro.service.faults import Fault, FaultPlan

        jobs = [
            {"id": f"j{index}", "kind": "normalize",
             "program": rf"(\ (x : Nat). succ x) {index}"}
            for index in range(8)
        ]
        faults = [
            Fault(kind, f"j{index}", attempts=-1)
            for index in range(2, 8)
            for kind in ("store_read_error", "store_write_error")
        ]
        bare = execute_jobs(jobs)
        report = execute_jobs(
            jobs, memo_store=tmp_path / "memo.sqlite", fault_plan=FaultPlan(faults)
        )
        assert report.canonical() == bare.canonical()
        persisted = report.stats["persist"]
        assert persisted["errors"] > 0
        assert persisted["trips"] >= 1


    def test_failed_flush_releases_the_write_lock(self, tmp_path):
        # A flush that fails mid-transaction must roll back: otherwise this
        # connection keeps SQLite's write lock and every other writer of the
        # shared store waits out its busy timeout.
        path = tmp_path / "memo.sqlite"
        store = self._store(tmp_path, flush_threshold=10_000)
        store.put(b"m" * 24, 1, b"memo")
        store.put(b"a" * 24, 2, b"artifact", "artifact")
        other = sqlite3.connect(path, timeout=0.5)
        other.execute("ALTER TABLE artifact RENAME TO parked")
        other.commit()
        store.flush()  # the memo insert lands, the artifact insert fails
        assert store.counters()["errors"] == 1
        other.execute("ALTER TABLE parked RENAME TO artifact")  # a write
        other.commit()
        assert store.counters()["pending"] == store.counters()["artifact_pending"] == 1
        store.flush()
        assert store.counters()["pending"] == store.counters()["artifact_pending"] == 0
        assert other.execute("SELECT key FROM memo").fetchall() == [(b"m" * 24,)]
        assert other.execute("SELECT key FROM artifact").fetchall() == [(b"a" * 24,)]
        other.close()
        store.close()


class TestTornStoreRecovery:
    """``python -m repro store`` maintenance: stat, scrub, compact."""

    def _populate(self, path):
        store = PersistentMemoStore(path)
        session = Session(name="maintenance-populate")
        session.attach_memo_store(store)
        with session.activate():
            session.normalize(cc.intern(parse_term(REDEX)))
        session.detach_memo_store()
        store.close()

    def test_stat_reports_valid_and_invalid_rows(self, tmp_path):
        from repro.wire.persist import store_stat

        path = tmp_path / "memo.sqlite"
        self._populate(path)
        report = store_stat(path)
        assert report["entries"] == report["valid"] > 0
        assert report["invalid"] == 0

    def test_scrub_salvages_valid_rows_from_a_torn_store(self, tmp_path):
        from repro.wire.persist import store_scrub, store_stat

        path = tmp_path / "memo.sqlite"
        self._populate(path)
        before = store_stat(path)
        # Tear the store: corrupt one row's seal and one row's payload.
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE memo SET seal = zeroblob(16) WHERE key = "
            "(SELECT key FROM memo LIMIT 1)"
        )
        connection.commit()
        connection.close()
        report = store_scrub(path)
        assert report["scanned"] == before["entries"]
        assert report["discarded"] == 1
        assert report["salvaged"] == before["entries"] - 1
        after = store_stat(path)
        assert after["entries"] == after["valid"] == report["salvaged"]
        # The scrubbed store still serves byte-identical warm runs.
        scrubbed = PersistentMemoStore(path)
        warm = Session(name="maintenance-warm")
        warm.attach_memo_store(scrubbed)
        with warm.activate():
            result = warm.normalize(cc.intern(parse_term(REDEX)))
        warm.detach_memo_store()
        scrubbed.close()
        cold = Session(name="maintenance-cold")
        with cold.activate():
            expected = cold.normalize(cc.intern(parse_term(REDEX)))
        assert cc.pretty(cc.intern(result.value)) == cc.pretty(cc.intern(expected.value))
        assert result.steps == expected.steps

    def test_compact_removes_torn_rows_in_place(self, tmp_path):
        from repro.wire.persist import store_compact, store_stat

        path = tmp_path / "memo.sqlite"
        self._populate(path)
        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE memo SET result = x'00' WHERE key = "
            "(SELECT key FROM memo LIMIT 1)"
        )
        connection.commit()
        connection.close()
        report = store_compact(path)
        assert report["removed"] == 1
        assert store_stat(path)["invalid"] == 0

    def test_maintenance_on_garbage_is_a_typed_error(self, tmp_path):
        from repro.common.errors import StoreError
        from repro.wire.persist import store_scrub, store_stat

        garbage = tmp_path / "garbage.sqlite"
        garbage.write_bytes(b"this is not a database")
        with pytest.raises(StoreError):
            store_stat(garbage)
        with pytest.raises(StoreError):
            store_scrub(tmp_path / "missing.sqlite")

    def test_killed_worker_leaves_no_torn_rows(self, tmp_path):
        # Satellite contract: a worker killed with unflushed buffered
        # entries must leave the shared store fully valid (lost entries are
        # fine — torn rows are not), and a warm rerun over the survivor
        # store is byte-identical to the crashed run.
        from repro.service.faults import Fault, FaultPlan
        from repro.wire.persist import store_stat

        path = tmp_path / "memo.sqlite"
        jobs = [
            {"id": f"j{index}", "kind": "normalize", "program": REDEX, "key": "one"}
            for index in range(4)
        ]
        plan = FaultPlan([Fault("kill", "j2", attempts=1)])
        chaos = execute_jobs(
            jobs, workers=1, memo_store=path, fault_plan=plan, max_attempts=3
        )
        report = store_stat(path)
        assert report["invalid"] == 0  # no torn rows, ever
        warm = execute_jobs(jobs, workers=1, memo_store=path)
        assert warm.canonical() == chaos.canonical()


def _maintenance(document: dict) -> list[tuple]:
    """A maintenance document minus its host-dependent fields, in key order."""
    return [(k, v) for k, v in document.items() if k not in ("path", "size_bytes")]


class TestStorePinned:
    """Both tables of one store, pinned document for document.

    Valid, tampered, orphaned and unflushed rows in the ``memo`` and
    ``artifact`` tables; a breaker trip and probe on artifact reads; a
    read-only handle on a file that predates the ``artifact`` table.  The
    full ``counters()``/``stats()`` dicts (key order included) and the
    maintenance documents are literals, so any change to how either table
    is read, written, counted or salvaged shows here.
    """

    def test_both_tables_are_pinned(self, tmp_path):
        from repro.backend import (
            ArtifactMeta,
            compile_program,
            load_artifact,
            store_artifact,
        )
        from repro.closconv import compile_term
        from repro.machine import hoist
        from repro.wire import persist
        from repro.wire.persist import store_compact, store_scrub, store_stat

        def fresh_state(store, name):
            session = Session(name=name)
            session.attach_memo_store(store)
            return session.state

        def sealed_insert(connection, table, key, steps, result):
            connection.execute(
                f"INSERT INTO {table} (key, steps, result, seal) VALUES (?, ?, ?, ?)",
                (key, steps, result, persist._seal(key, steps, result)),
            )

        programs = [
            compile_program(
                hoist(
                    compile_term(
                        cc.Context.empty(), cc.intern(parse_term(text)), verify=False
                    ).target
                )
            )
            for text in (REDEX, r"\ (x : Nat). succ x", "succ (succ 0)")
        ]
        meta = ArtifactMeta(check_steps=7, verify_steps=3, verified=True)
        memo_keys = [bytes([index]) * 24 for index in range(3)]
        artifact_keys = [bytes([0x40 + index]) * 24 for index in range(3)]
        orphan, absent = b"\x7f" * 24, b"\x7e" * 24
        pending_memo, pending_artifact = b"\x50" * 24, b"\x51" * 24
        path = tmp_path / "store.sqlite"

        store = PersistentMemoStore(path, flush_threshold=10_000)
        writer = fresh_state(store, "pin-writer")
        for index, key in enumerate(memo_keys):
            store.put(key, index + 1, b"memo-%d" % index)
        for key, program in zip(artifact_keys, programs):
            store_artifact(writer, key, program, meta)
        store.close()

        raw = sqlite3.connect(path)
        for table, key in (("memo", memo_keys[0]), ("artifact", artifact_keys[0])):
            raw.execute(f"UPDATE {table} SET steps = steps + 7 WHERE key = ?", (key,))
        sealed_insert(raw, "artifact", orphan, 5, b"not-an-artifact")
        raw.commit()
        raw.close()

        store = PersistentMemoStore(
            path, flush_threshold=10_000, breaker_threshold=3, probe_interval=4
        )
        store.put(pending_memo, 9, b"pending")
        store_artifact(fresh_state(store, "pin-pending"), pending_artifact, programs[0], meta)
        reader = fresh_state(store, "pin-reader")
        memo_reads = [store.get(key) for key in [*memo_keys, pending_memo, absent]]
        artifact_reads = [
            load_artifact(reader, key) is not None
            for key in [*artifact_keys, orphan, pending_artifact, absent]
        ]
        assert memo_reads == [None, (2, b"memo-1"), (3, b"memo-2"), (9, b"pending"), None]
        assert artifact_reads == [False, True, True, False, True, False]

        def refuse_reads(op):
            if op == "read":
                raise sqlite3.OperationalError("injected")

        persist.FAULT_HOOK = refuse_reads
        try:
            tripped = [load_artifact(reader, bytes([0x60 + i]) * 24) for i in range(3)]
        finally:
            persist.FAULT_HOOK = None
        assert tripped == [None, None, None]
        assert store.counters()["breaker"] == "open"
        probed = [load_artifact(reader, bytes([0x70 + i]) * 24) for i in range(4)]
        assert probed == [None] * 4
        assert load_artifact(reader, artifact_keys[2]) is not None  # memory cache
        assert store.get(memo_keys[1]) == (2, b"memo-1")
        counters = [
            ("hits", 4), ("misses", 2), ("writes", 1), ("flushes", 0),
            ("errors", 3), ("dropped", 0), ("trips", 1), ("artifact_hits", 4),
            ("artifact_misses", 9), ("artifact_writes", 1), ("breaker", "closed"),
            ("pending", 1), ("artifact_pending", 1),
        ]
        assert list(store.counters().items()) == counters
        assert list(store.stats().items()) == [*counters, ("entries", 4)]
        store.close()

        assert _maintenance(store_stat(path)) == [
            ("entries", 4), ("valid", 3), ("invalid", 1), ("memo_bytes", 19),
            ("artifact_entries", 5), ("artifact_valid", 4), ("artifact_invalid", 1),
            ("artifact_bytes", 970), ("artifact_orphaned", 1),
        ]
        copy = tmp_path / "copy.sqlite"
        source, target = sqlite3.connect(path), sqlite3.connect(copy)
        source.backup(target)
        source.close()
        target.close()
        compacted = [
            ("entries", 3), ("valid", 3), ("invalid", 0), ("memo_bytes", 19),
            ("artifact_entries", 4), ("artifact_valid", 4), ("artifact_invalid", 0),
            ("artifact_bytes", 970), ("artifact_orphaned", 1),
        ]
        assert _maintenance(store_compact(path)) == [("entries", 7), ("removed", 2)]
        assert _maintenance(store_stat(path)) == compacted
        assert _maintenance(store_scrub(copy)) == [
            ("scanned", 9), ("salvaged", 7), ("discarded", 2),
        ]
        assert _maintenance(store_stat(copy)) == compacted

        memo_only = tmp_path / "memo-only.sqlite"
        raw = sqlite3.connect(memo_only)
        raw.execute(
            "CREATE TABLE memo (key BLOB PRIMARY KEY, steps INTEGER NOT NULL,"
            " result BLOB NOT NULL, seal BLOB NOT NULL) WITHOUT ROWID"
        )
        sealed_insert(raw, "memo", memo_keys[1], 2, b"memo-1")
        raw.commit()
        raw.close()
        handle = PersistentMemoStore(memo_only, read_only=True)
        assert handle.get(memo_keys[1]) == (2, b"memo-1")
        assert load_artifact(fresh_state(handle, "pin-old"), artifact_keys[1]) is None
        handle.put(pending_memo, 9, b"pending")
        assert list(handle.stats().items()) == [
            ("hits", 1), ("misses", 0), ("writes", 1), ("flushes", 0),
            ("errors", 1), ("dropped", 0), ("trips", 0), ("artifact_hits", 0),
            ("artifact_misses", 1), ("artifact_writes", 0), ("breaker", "closed"),
            ("pending", 1), ("artifact_pending", 0), ("entries", 2),
        ]
        handle.close()
        assert _maintenance(store_stat(memo_only)) == [
            ("entries", 1), ("valid", 1), ("invalid", 0), ("memo_bytes", 6),
            ("artifact_entries", 0), ("artifact_valid", 0), ("artifact_invalid", 0),
            ("artifact_bytes", 0), ("artifact_orphaned", 0),
        ]
        assert _maintenance(store_compact(memo_only)) == [("entries", 1), ("removed", 0)]
        assert _maintenance(store_scrub(memo_only)) == [
            ("scanned", 1), ("salvaged", 1), ("discarded", 0),
        ]
