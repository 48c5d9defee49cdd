"""The persistent tier: compiler output that survives restarts.

One SQLite file holds two append-only tables with one sealed row shape,
``(key, steps, result, seal)``, served by one code path.  ``memo`` holds
normalization results: ``result`` is the wire-encoded normal form and
``steps`` the **recorded fuel** the original computation spent, under a
key of pure *content*::

    key = BLAKE2b( discipline version ∥ memo kind ∥ term content hash
                   ∥ context-defs content key )

``artifact`` holds compiled-backend artifacts (:mod:`repro.backend.artifact`
is the one caller that names it): the key hashes the source program and the
compile options, ``steps`` is the cold compile's check+verify fuel.

``kind`` is the same engine-qualified judgment string the in-memory
:class:`~repro.kernel.memo.NormalizationCache` keys on (``"cc.nf"``,
``"cc.whnf.subst"``, …), so the two engines never exchange entries here
either.  The context-defs key is derived from the session-local context
token by translating it *back* to content: the names of the visible
definitions paired with each definition's own content hash.  Session-local
identities (object ids, token numbers, fresh-counter positions) never
reach the store, which is what lets one store be shared by every worker of
a pool and by runs separated by a process restart.

The *seal* is a keyed BLAKE2b over (key, steps, result bytes).  A hit
replays the recorded fuel into the caller's budget exactly like an
in-memory hit, so a persisted hit is bit-identical to a cold run —
including the position of a fuel-exhaustion error.  A poisoned row
(tampered result or wrong fuel) fails its seal and is treated as a miss,
never trusted.

Concurrency: the store is read-mostly.  Readers hit SQLite directly (WAL
lets them proceed under a writer); writers buffer ``put`` calls in memory,
one buffer per table, and flush all of them as one ``INSERT OR IGNORE``
append transaction at a size threshold and at detach/shutdown — so the
normalization hot path never blocks on a cross-process lock, and a crash
between flushes loses nothing but uncommitted cache warmth.

Failure domain: persistence is an *accelerator*, never a dependency.  A
store that cannot be **opened** raises a typed :class:`StoreError` (the
caller asked for it by path and must know); once open, every runtime
``sqlite3.Error`` is counted in ``stats()["errors"]`` and absorbed — a
read error is a miss, a write error rolls back and keeps the buffers for
retry.  Enough *consecutive* errors trip a circuit breaker: the store
stops issuing SQL (reads miss, flushes park), probing once every
``probe_interval`` ops so a recovered disk re-closes it.  Each buffer is
bounded; when a permanently-failing flush would grow it past
``max_pending_entries`` the oldest entries are dropped (and counted) —
losing cache warmth, never correctness.  The result is a degradation
ladder the session walks without ever changing a payload byte::

    healthy store  ←  circuit open (in-memory + pending buffers only)  ←  detached

:func:`store_stat` / :func:`store_scrub` / :func:`store_compact` are the
offline maintenance half (surfaced as ``python -m repro store …``): they
verify every row's seal and salvage the validly-sealed ones out of a torn
file.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import threading
import time
from hashlib import blake2b
from typing import Any, Callable

from repro.common.errors import ReproError, StoreError
from repro.wire.codec import content_hash, decode_term, encode_term

__all__ = [
    "FUEL_DISCIPLINE",
    "PersistentMemoStore",
    "PersistentTier",
    "StoreError",
    "store_compact",
    "store_scrub",
    "store_stat",
]

#: Fault-injection seam (:mod:`repro.service.faults`).  When a chaos plan
#: arms store faults for the running job, this holds a callable taking
#: ``"read"`` or ``"write"`` that raises ``sqlite3.OperationalError`` for
#: the scheduled kinds; it is ``None`` — one attribute load, no call — in
#: every production run.
FAULT_HOOK: Callable[[str], None] | None = None

#: The fuel-discipline version baked into every key.  Bump when the meaning
#: of recorded steps changes (cost model, replay semantics): old entries
#: then simply stop matching instead of replaying the wrong fuel.
FUEL_DISCIPLINE = 1

#: The store's tables, in flush and report order.  Store files written
#: before the compiled backend existed have no ``artifact`` table.
_TABLES = ("memo", "artifact")
_SEAL_KEY = b"repro-memo-seal"
_SCHEMA = """
CREATE TABLE IF NOT EXISTS {} (
    key     BLOB PRIMARY KEY,
    steps   INTEGER NOT NULL,
    result  BLOB NOT NULL,
    seal    BLOB NOT NULL
) WITHOUT ROWID
"""
_SELECT = "SELECT steps, result, seal FROM {} WHERE key = ?"
_INSERT = "INSERT OR IGNORE INTO {} (key, steps, result, seal) VALUES (?, ?, ?, ?)"


def _seal(key: bytes, steps: int, result: bytes) -> bytes:
    sealer = blake2b(digest_size=16, key=_SEAL_KEY)
    sealer.update(key)
    sealer.update(steps.to_bytes(8, "little"))
    sealer.update(result)
    return sealer.digest()


class _Table:
    """One table's unflushed buffer and its hit/miss/write counters."""

    __slots__ = ("select", "insert", "pending", "hits", "misses", "writes")

    def __init__(self, name: str) -> None:
        self.select = _SELECT.format(name)
        self.insert = _INSERT.format(name)
        self.pending: dict[bytes, tuple[int, bytes]] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0


class PersistentMemoStore:
    """One connection to the shared on-disk store.

    Every process opens its own instance over the same path; SQLite WAL
    mode arbitrates concurrent readers and the append-only writers.
    ``read_only`` opens in query-only mode (writes buffer but never flush).
    ``flush_threshold`` and ``max_pending_entries`` bound each table's
    buffer separately.
    """

    def __init__(
        self,
        path: Any,
        *,
        read_only: bool = False,
        flush_threshold: int = 256,
        timeout: float = 30.0,
        max_pending_entries: int = 4096,
        breaker_threshold: int = 5,
        probe_interval: int = 64,
    ) -> None:
        self.path = str(path)
        self.read_only = read_only
        self.flush_threshold = flush_threshold
        self.max_pending_entries = max_pending_entries
        self.breaker_threshold = breaker_threshold
        self.probe_interval = probe_interval
        self.flushes = 0
        self.errors = 0
        self.dropped = 0
        self.trips = 0
        self.consecutive_errors = 0
        self._breaker_open = False
        self._ops_since_trip = 0
        self._lock = threading.RLock()
        self._tables = {name: _Table(name) for name in _TABLES}
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=timeout, check_same_thread=False
            )
            if read_only:
                self._conn.execute("PRAGMA query_only=ON")
            else:
                self._initialize(timeout)
        except sqlite3.Error as err:
            raise StoreError(f"cannot open memo store at {self.path}: {err}") from err

    def _initialize(self, timeout: float) -> None:
        """Switch to WAL and create the tables, retrying while contended.

        Processes opening a store file that does not exist yet race on the
        journal-mode switch, and SQLite fails the loser at once with
        "database is locked" instead of waiting out the busy timeout.  Both
        steps are idempotent, so the loser retries with a fixed doubling
        backoff until ``timeout`` has elapsed.
        """
        deadline = time.monotonic() + timeout
        delay = 0.005
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                for name in _TABLES:
                    self._conn.execute(_SCHEMA.format(name))
                self._conn.commit()
                return
            except sqlite3.OperationalError as err:
                message = str(err)
                if "locked" not in message and "busy" not in message:
                    raise
                if self._conn.in_transaction:
                    self._conn.rollback()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(delay, remaining))
                delay = min(delay * 2, 0.25)

    # -- circuit breaker ------------------------------------------------------

    def _sqlite_ok(self) -> None:
        self.consecutive_errors = 0
        self._breaker_open = False

    def _sqlite_error(self) -> None:
        self.errors += 1
        self.consecutive_errors += 1
        if not self._breaker_open and self.consecutive_errors >= self.breaker_threshold:
            self._breaker_open = True
            self.trips += 1
            self._ops_since_trip = 0

    def _breaker_blocks(self) -> bool:
        """Should the open breaker skip this SQLite op?

        While open, one op in every ``probe_interval`` is let through as a
        probe; a probe that succeeds re-closes the breaker.  Counted in
        *ops*, never wall-clock, so chaos runs stay deterministic.
        """
        if not self._breaker_open:
            return False
        self._ops_since_trip += 1
        if self._ops_since_trip >= self.probe_interval:
            self._ops_since_trip = 0
            return False
        return True

    def get(self, key: bytes, table: str = "memo") -> tuple[int, bytes] | None:
        """The sealed ``(steps, result)`` for ``key`` in ``table``, or None.

        Checks this process's unflushed buffer first, then the table.  A
        row whose seal does not verify — a poisoned or torn entry — is
        counted and reported as a miss, and so is every SQLite error (a
        disk gone bad mid-run, or a read-only handle on a file that lacks
        the table).
        """
        with self._lock:
            record = self._tables[table]
            found = record.pending.get(key)
            if found is not None:
                record.hits += 1
                return found
            row = None
            if not self._breaker_blocks():
                try:
                    hook = FAULT_HOOK
                    if hook is not None:
                        hook("read")
                    row = self._conn.execute(record.select, (key,)).fetchone()
                except sqlite3.Error:
                    self._sqlite_error()
                else:
                    self._sqlite_ok()
            if row is None or row[2] != _seal(key, row[0], row[1]):
                record.misses += 1
                return None
            record.hits += 1
            return row[0], row[1]

    def put(self, key: bytes, steps: int, result: bytes, table: str = "memo") -> None:
        """Buffer one entry of ``table``; flushed in a batch at the threshold.

        The buffer is bounded: if flushing keeps failing (or never happens
        — a read-only handle), the oldest entries are dropped and counted
        rather than growing memory without bound.
        """
        with self._lock:
            record = self._tables[table]
            if key in record.pending:
                return
            record.pending[key] = (steps, result)
            record.writes += 1
            # A fault window forces the flush attempt so injected write
            # errors fire at the scheduled job, not at a threshold crossing.
            hook = FAULT_HOOK
            if not self.read_only and (
                len(record.pending) >= self.flush_threshold or hook is not None
            ):
                self._flush_locked()
            while len(record.pending) > self.max_pending_entries:
                del record.pending[next(iter(record.pending))]
                self.dropped += 1

    def flush(self) -> None:
        """Append every buffered entry in one transaction (no-op read-only)."""
        with self._lock:
            if not self.read_only:
                self._flush_locked()

    def _flush_locked(self) -> None:
        records = [record for record in self._tables.values() if record.pending]
        if not records:
            return
        if self._breaker_blocks():
            return  # breaker open: park the buffers, no SQL issued
        try:
            hook = FAULT_HOOK
            if hook is not None:
                hook("write")
            for record in records:
                self._conn.executemany(
                    record.insert,
                    [
                        (key, steps, result, _seal(key, steps, result))
                        for key, (steps, result) in record.pending.items()
                    ],
                )
            self._conn.commit()
        except sqlite3.Error:
            self._sqlite_error()
            # Release the write lock; the buffers stay for the next flush.
            with contextlib.suppress(sqlite3.Error):
                self._conn.rollback()
            return
        self._sqlite_ok()
        for record in records:
            record.pending.clear()
        self.flushes += 1

    def close(self) -> None:
        """Flush and close the connection."""
        with self._lock:
            self.flush()
            try:
                self._conn.close()
            except sqlite3.Error:
                self.errors += 1

    def counters(self) -> dict[str, Any]:
        """The pure in-memory counters — cheap enough for per-message posts.

        ``stats()`` adds the SQL-backed ``entries`` count; workers report
        these instead so health telemetry never issues SELECTs.
        """
        memo, artifact = self._tables.values()
        return {
            "hits": memo.hits,
            "misses": memo.misses,
            "writes": memo.writes,
            "flushes": self.flushes,
            "errors": self.errors,
            "dropped": self.dropped,
            "trips": self.trips,
            "artifact_hits": artifact.hits,
            "artifact_misses": artifact.misses,
            "artifact_writes": artifact.writes,
            "breaker": "open" if self._breaker_open else "closed",
            "pending": len(memo.pending),
            "artifact_pending": len(artifact.pending),
        }

    def stats(self) -> dict[str, Any]:
        document = self.counters()
        document["entries"] = len(self)
        return document

    def __len__(self) -> int:
        """Memo entries: the table's rows plus buffered keys not yet in it."""
        # Telemetry only: suppressed errors are counted but deliberately do
        # not feed the breaker, so reading stats() never shifts its state.
        with self._lock:
            pending = self._tables["memo"].pending
            try:
                (count,) = self._conn.execute("SELECT COUNT(*) FROM memo").fetchone()
            except sqlite3.Error:
                self.errors += 1
                return len(pending)
            return count + sum(1 for key in pending if not self._known(key))

    def _known(self, key: bytes) -> bool:
        try:
            return (
                self._conn.execute(
                    "SELECT 1 FROM memo WHERE key = ?", (key,)
                ).fetchone()
                is not None
            )
        except sqlite3.Error:
            self.errors += 1
            return False


class PersistentTier:
    """One session's view of a :class:`PersistentMemoStore`.

    Installed on a :class:`~repro.kernel.state.KernelState` by
    ``attach_memo_store``; the in-memory normalization cache consults
    :meth:`load` on miss and calls :meth:`save` on store.  The tier owns
    the *translation* between the session's identity-keyed world (context
    tokens, term objects) and the store's content-keyed world.

    Only CC kinds are persisted.  A CC-CC kind's prefix (``"cccc"``) names
    no Language (CC-CC's is ``"cc-cc"``), so every CC-CC normalization —
    the verification probes of a compile — is skipped and counted in
    ``tier_skipped``.  This selection is kept on purpose: persisting CC-CC
    kinds as well was measured on perfbench ``pool_warm`` (seed 1, 5
    alternating pairs) at a median of 958 → 786 ops/s, with worker peak
    RSS rising from 133 to 181 MB.
    """

    __slots__ = (
        "store",
        "_state",
        "_languages",
        "_ctx_keys",
        "hits",
        "stores",
        "skipped",
        "errors",
    )

    def __init__(self, store: PersistentMemoStore, state: Any) -> None:
        self.store = store
        self._state = state
        self._languages: dict[str, Any] = {}
        self._ctx_keys: dict[int, bytes] = {}
        self.hits = 0
        self.stores = 0
        self.skipped = 0
        self.errors = 0

    def _language(self, kind: str) -> Any:
        """The Language a memo kind belongs to (``"cc.nf"`` → cc), or None.

        None for every CC-CC kind: this is the tier's CC-only selection.
        """
        prefix = kind.split(".", 1)[0]
        lang = self._languages.get(prefix)
        if lang is None:
            from repro.kernel.state import _LANGUAGES

            for candidate in _LANGUAGES:
                if candidate.name == prefix:
                    lang = self._languages[prefix] = candidate
                    break
        return lang

    def _ctx_key(self, lang: Any, token: int) -> bytes | None:
        """The content key of the context-defs view ``token`` fingerprints.

        Translates the session-local token back into content via the token
        table's reverse index: sorted (name, content hash of definition)
        pairs.  Returns None — skip the tier — when the token cannot be
        resolved in this session (e.g. a context carrying a token issued
        by a different state) or a definition is not a term of ``lang``.
        """
        found = self._ctx_keys.get(token)
        if found is not None:
            return found
        visible = self._state.ctx_tokens.by_token.get(token)
        if visible is None:
            return None
        hasher = blake2b(digest_size=16, key=b"repro-memo-ctx")
        term_base = lang.term_base
        for name in sorted(visible):
            value = visible[name]
            if not isinstance(value, term_base):
                return None
            hasher.update(name.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(content_hash(lang, value))
        key = hasher.digest()
        self._ctx_keys[token] = key
        return key

    def _key(self, kind: str, lang: Any, term: Any, token: int) -> bytes | None:
        ctx_key = self._ctx_key(lang, token)
        if ctx_key is None:
            return None
        hasher = blake2b(digest_size=24, key=b"repro-memo-key")
        hasher.update(FUEL_DISCIPLINE.to_bytes(4, "little"))
        hasher.update(kind.encode("ascii"))
        hasher.update(b"\x00")
        hasher.update(content_hash(lang, term))
        hasher.update(ctx_key)
        return hasher.digest()

    def load(self, kind: str, term: Any, token: int) -> tuple[Any, int] | None:
        """The persisted ``(result, steps)`` for this computation, or None."""
        lang = self._language(kind)
        if lang is None or not isinstance(term, lang.term_base):
            self.skipped += 1
            return None
        key = self._key(kind, lang, term, token)
        if key is None:
            self.skipped += 1
            return None
        found = self.store.get(key)
        if found is None:
            return None
        steps, blob = found
        try:
            result = decode_term(lang, blob)
        except ReproError:
            return None  # undecodable row: a miss, never an error
        self.hits += 1
        return result, steps

    def save(self, kind: str, term: Any, token: int, result: Any, steps: int) -> None:
        """Write one completed computation through to the store."""
        lang = self._language(kind)
        if (
            lang is None
            or not isinstance(term, lang.term_base)
            or not isinstance(result, lang.term_base)
        ):
            self.skipped += 1
            return
        key = self._key(kind, lang, term, token)
        if key is None:
            self.skipped += 1
            return
        self.store.put(key, steps, encode_term(lang, result))
        self.stores += 1

    def _tier_counters(self) -> dict[str, int]:
        return {
            "tier_hits": self.hits,
            "tier_stores": self.stores,
            "tier_skipped": self.skipped,
            "tier_errors": self.errors,
        }

    def counters(self) -> dict[str, Any]:
        document = self.store.counters()
        document.update(self._tier_counters())
        return document

    def stats(self) -> dict[str, Any]:
        document = self.store.stats()
        document.update(self._tier_counters())
        return document


# --------------------------------------------------------------------------
# Offline maintenance: python -m repro store {stat,scrub,compact} PATH
# --------------------------------------------------------------------------


def _open_for_maintenance(path: Any) -> sqlite3.Connection:
    """A raw connection whose ``memo`` table is actually readable."""
    target = str(path)
    if not os.path.exists(target):
        raise StoreError(f"cannot open memo store at {target}: no such file")
    try:
        conn = sqlite3.connect(target)
    except sqlite3.Error as err:  # pragma: no cover - connect rarely fails
        raise StoreError(f"cannot open memo store at {target}: {err}") from err
    try:
        conn.execute("SELECT COUNT(*) FROM memo").fetchone()
    except sqlite3.Error as err:
        conn.close()
        raise StoreError(f"cannot read memo store at {target}: {err}") from err
    return conn


def _salvage(
    conn: sqlite3.Connection, path: Any, table: str
) -> tuple[list[tuple], list[bytes]]:
    """The validly-sealed rows of ``table`` and the keys of every other row.

    Keys are listed first, then each row is fetched under its own guard,
    so one torn page costs only the rows on it — everything still readable
    *and* sealed is salvaged.  A table the file lacks (``artifact`` in a
    store written before the compiled backend) salvages as empty.
    """
    try:
        if (
            conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
                (table,),
            ).fetchone()
            is None
        ):
            return [], []
        keys = [
            key for (key,) in conn.execute(f"SELECT key FROM {table}").fetchall()
        ]
    except sqlite3.Error as err:
        raise StoreError(f"cannot read memo store at {path}: {err}") from err
    valid: list[tuple] = []
    doomed: list[bytes] = []
    select = _SELECT.format(table)
    for key in keys:
        try:
            row = conn.execute(select, (key,)).fetchone()
        except sqlite3.Error:
            row = None
        if row is not None and row[2] == _seal(key, row[0], row[1]):
            valid.append((key, *row))
        else:
            doomed.append(key)
    return valid, doomed


def _artifact_orphans(artifacts: list[tuple]) -> int:
    """Validly-sealed artifact rows whose blob is not a loadable artifact.

    The seal proves the row survived storage intact; the ``RPYC``
    magic/version sniff proves the bytes are an artifact this build can
    stage.  A sealed row failing the sniff is an *orphan* — typically
    written by a different artifact version — and will read as a miss
    forever, so ``store stat`` surfaces it as reclaimable.
    """
    from repro.backend.artifact import ARTIFACT_VERSION, _MAGIC

    orphans = 0
    for _key, _steps, blob, _seal in artifacts:
        header = bytes(blob[: len(_MAGIC) + 1])
        if header[: len(_MAGIC)] != _MAGIC:
            orphans += 1
            continue
        # The version varint follows the magic; version 1..127 is one byte.
        if len(header) <= len(_MAGIC) or header[len(_MAGIC)] != ARTIFACT_VERSION:
            orphans += 1
    return orphans


def store_stat(path: Any) -> dict[str, Any]:
    """Inspect a store: row counts, seal validity, byte totals.  Read-only.

    Reports the memo table and the compiled-backend ``artifact`` table
    side by side: scanned/valid/invalid row counts, the total payload
    bytes held by the validly-sealed rows of each, and the count of
    sealed-but-unloadable artifact orphans (see :func:`_artifact_orphans`).
    """
    conn = _open_for_maintenance(path)
    try:
        salvaged = {table: _salvage(conn, path, table) for table in _TABLES}
    finally:
        conn.close()
    document: dict[str, Any] = {
        "path": str(path),
        "size_bytes": os.path.getsize(str(path)),
    }
    for table, (valid, doomed) in salvaged.items():
        prefix = "" if table == "memo" else f"{table}_"
        document[f"{prefix}entries"] = len(valid) + len(doomed)
        document[f"{prefix}valid"] = len(valid)
        document[f"{prefix}invalid"] = len(doomed)
        document[f"{table}_bytes"] = sum(len(row[2]) for row in valid)
    document["artifact_orphaned"] = _artifact_orphans(salvaged["artifact"][0])
    return document


def store_scrub(path: Any) -> dict[str, Any]:
    """Rebuild a (possibly torn) store from its validly-sealed rows.

    Salvages every row whose seal verifies into a fresh database, then
    atomically replaces the original (stale ``-wal``/``-shm`` sidecars are
    removed so SQLite cannot replay torn pages over the rebuilt file).
    Raises :class:`StoreError` when the file is not a database at all.
    """
    source = _open_for_maintenance(path)
    try:
        salvaged = {table: _salvage(source, path, table) for table in _TABLES}
    finally:
        source.close()
    rebuilt = str(path) + ".scrub"
    if os.path.exists(rebuilt):
        os.unlink(rebuilt)
    replacement = sqlite3.connect(rebuilt)
    try:
        for table, (valid, _doomed) in salvaged.items():
            replacement.execute(_SCHEMA.format(table))
            replacement.executemany(_INSERT.format(table), valid)
        replacement.commit()
    finally:
        replacement.close()
    os.replace(rebuilt, str(path))
    for sidecar in (str(path) + "-wal", str(path) + "-shm"):
        if os.path.exists(sidecar):
            os.unlink(sidecar)
    salvaged_rows = sum(len(valid) for valid, _doomed in salvaged.values())
    discarded = sum(len(doomed) for _valid, doomed in salvaged.values())
    return {
        "path": str(path),
        "scanned": salvaged_rows + discarded,
        "salvaged": salvaged_rows,
        "discarded": discarded,
    }


def store_compact(path: Any) -> dict[str, Any]:
    """Delete invalidly-sealed rows in place and reclaim the space."""
    conn = _open_for_maintenance(path)
    entries = removed = 0
    try:
        for table in _TABLES:
            valid, doomed = _salvage(conn, path, table)
            if doomed:  # a table the file lacks has none, and no DELETE
                conn.executemany(
                    f"DELETE FROM {table} WHERE key = ?", [(key,) for key in doomed]
                )
            entries += len(valid)
            removed += len(doomed)
        conn.commit()
        conn.execute("VACUUM")
    except sqlite3.Error as err:
        raise StoreError(f"cannot compact memo store at {path}: {err}") from err
    finally:
        conn.close()
    return {"path": str(path), "entries": entries, "removed": removed}
