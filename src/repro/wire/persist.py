"""The persistent memo tier: normalization results that survive restarts.

An append-only SQLite table of sealed normalization entries, keyed on pure
*content*::

    key = BLAKE2b( discipline version ∥ memo kind ∥ term content hash
                   ∥ context-defs content key )

``kind`` is the same engine-qualified judgment string the in-memory
:class:`~repro.kernel.memo.NormalizationCache` keys on (``"cc.nf"``,
``"cc.whnf.subst"``, …), so the two engines never exchange entries here
either.  The context-defs key is derived from the session-local context
token by translating it *back* to content: the names of the visible
definitions paired with each definition's own content hash.  Session-local
identities (object ids, token numbers, fresh-counter positions) never
reach the store, which is what lets one store be shared by every worker of
a pool and by runs separated by a process restart.

Each row carries the result term (wire-encoded), the **recorded fuel** the
original computation spent, and a *seal*: a keyed BLAKE2b over (key, steps,
result bytes).  A hit replays the recorded fuel into the caller's budget
exactly like an in-memory hit, so a persisted hit is bit-identical to a
cold run — including the position of a fuel-exhaustion error.  A poisoned
row (tampered result or wrong fuel) fails its seal and is treated as a
miss, never trusted.

Concurrency: the store is read-mostly.  Readers hit SQLite directly (WAL
lets them proceed under a writer); writers buffer ``put`` calls in memory
and flush them as one ``INSERT OR IGNORE`` append transaction at a size
threshold and at detach/shutdown — so the normalization hot path never
blocks on a cross-process lock, and a crash between flushes loses nothing
but uncommitted cache warmth.

Failure domain: persistence is an *accelerator*, never a dependency.  A
store that cannot be **opened** raises a typed :class:`StoreError` (the
caller asked for it by path and must know); once open, every runtime
``sqlite3.Error`` is counted in ``stats()["errors"]`` and absorbed — a
read error is a miss, a write error keeps the buffer for retry.  Enough
*consecutive* errors trip a circuit breaker: the store stops issuing SQL
(reads miss, flushes park), probing once every ``probe_interval`` ops so a
recovered disk re-closes it.  The ``_pending`` buffer is bounded; when a
permanently-failing flush would grow it past ``max_pending_entries`` the
oldest entries are dropped (and counted) — losing cache warmth, never
correctness.  The result is a degradation ladder the session walks without
ever changing a payload byte::

    healthy store  ←  circuit open (in-memory + pending buffer only)  ←  detached

:func:`store_stat` / :func:`store_scrub` / :func:`store_compact` are the
offline maintenance half (surfaced as ``python -m repro store …``): they
verify every row's seal and salvage the validly-sealed ones out of a torn
file.
"""

from __future__ import annotations

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

_SEAL_KEY = b"repro-memo-seal"
_SCHEMA = """
CREATE TABLE IF NOT EXISTS memo (
    key     BLOB PRIMARY KEY,
    steps   INTEGER NOT NULL,
    result  BLOB NOT NULL,
    seal    BLOB NOT NULL
) WITHOUT ROWID
"""

#: Compiled-backend artifacts (:mod:`repro.backend.artifact`) share the
#: store file in a second table with the same sealed row shape: ``key`` is
#: the artifact key (content hash of the source program + compile options),
#: ``steps`` the recorded check+verify fuel the cold compile spent, and
#: ``result`` the encoded artifact.  Same seal, same failure domain, same
#: breaker — an artifact row that fails its seal is a miss, never trusted.
_ARTIFACT_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifact (
    key     BLOB PRIMARY KEY,
    steps   INTEGER NOT NULL,
    result  BLOB NOT NULL,
    seal    BLOB NOT NULL
) WITHOUT ROWID
"""


def _seal(key: bytes, steps: int, result: bytes) -> bytes:
    sealer = blake2b(digest_size=16, key=_SEAL_KEY)
    sealer.update(key)
    sealer.update(steps.to_bytes(8, "little"))
    sealer.update(result)
    return sealer.digest()


class PersistentMemoStore:
    """One connection to the shared on-disk memo store.

    Every process opens its own instance over the same path; SQLite WAL
    mode arbitrates concurrent readers and the append-only writers.
    ``read_only`` opens in query-only mode (writes buffer but never flush).
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
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.flushes = 0
        self.errors = 0
        self.dropped = 0
        self.trips = 0
        self.artifact_hits = 0
        self.artifact_misses = 0
        self.artifact_writes = 0
        self.consecutive_errors = 0
        self._breaker_open = False
        self._ops_since_trip = 0
        self._lock = threading.RLock()
        self._pending: dict[bytes, tuple[int, bytes]] = {}
        self._pending_artifacts: dict[bytes, tuple[int, bytes]] = {}
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
                self._conn.execute(_SCHEMA)
                self._conn.execute(_ARTIFACT_SCHEMA)
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

    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """The sealed ``(steps, result)`` for ``key``, or None.

        Checks this process's unflushed buffer first, then the table.  A
        row whose seal does not verify — a poisoned or torn entry — is
        counted and reported as a miss.
        """
        with self._lock:
            found = self._pending.get(key)
            if found is not None:
                self.hits += 1
                return found
            if self._breaker_blocks():
                self.misses += 1
                return None
            try:
                hook = FAULT_HOOK
                if hook is not None:
                    hook("read")
                row = self._conn.execute(
                    "SELECT steps, result, seal FROM memo WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                # e.g. a read-only handle on a not-yet-created store, or a
                # disk gone bad mid-run: counted, reported as a miss.
                self._sqlite_error()
                self.misses += 1
                return None
            self._sqlite_ok()
            if row is None:
                self.misses += 1
                return None
            steps, result, seal = row
            if seal != _seal(key, steps, result):
                self.misses += 1
                return None
            self.hits += 1
            return steps, result

    def put(self, key: bytes, steps: int, result: bytes) -> None:
        """Buffer one entry; flushed in a batch at the size threshold.

        The buffer is bounded: if flushing keeps failing (or never happens
        — a read-only handle), the oldest entries are dropped and counted
        rather than growing memory without bound.
        """
        with self._lock:
            if key in self._pending:
                return
            self._pending[key] = (steps, result)
            self.writes += 1
            # A fault window forces the flush attempt so injected write
            # errors fire at the scheduled job, not at a threshold crossing.
            hook = FAULT_HOOK
            if not self.read_only and (
                len(self._pending) >= self.flush_threshold or hook is not None
            ):
                self._flush_locked()
            self._shed_locked()

    def get_artifact(self, key: bytes) -> tuple[int, bytes] | None:
        """The sealed ``(steps, blob)`` of a compiled artifact, or None.

        Same discipline as :meth:`get` — buffer first, seal verified, every
        SQLite error counted and absorbed as a miss — over the ``artifact``
        table.  A pre-artifact store file opened read-only simply has no
        such table; the resulting read error is likewise a counted miss.
        """
        with self._lock:
            found = self._pending_artifacts.get(key)
            if found is not None:
                self.artifact_hits += 1
                return found
            if self._breaker_blocks():
                self.artifact_misses += 1
                return None
            try:
                hook = FAULT_HOOK
                if hook is not None:
                    hook("read")
                row = self._conn.execute(
                    "SELECT steps, result, seal FROM artifact WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error:
                self._sqlite_error()
                self.artifact_misses += 1
                return None
            self._sqlite_ok()
            if row is None:
                self.artifact_misses += 1
                return None
            steps, result, seal = row
            if seal != _seal(key, steps, result):
                self.artifact_misses += 1
                return None
            self.artifact_hits += 1
            return steps, result

    def put_artifact(self, key: bytes, steps: int, blob: bytes) -> None:
        """Buffer one compiled artifact; flushed with the memo batch."""
        with self._lock:
            if key in self._pending_artifacts:
                return
            self._pending_artifacts[key] = (steps, blob)
            self.artifact_writes += 1
            hook = FAULT_HOOK
            if not self.read_only and (
                len(self._pending_artifacts) >= self.flush_threshold or hook is not None
            ):
                self._flush_locked()
            self._shed_locked()

    def flush(self) -> None:
        """Append every buffered entry in one transaction (no-op read-only)."""
        with self._lock:
            if not self.read_only:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._pending and not self._pending_artifacts:
            return
        if self._breaker_blocks():
            return  # breaker open: park the buffer, no SQL issued
        rows = [
            (key, steps, result, _seal(key, steps, result))
            for key, (steps, result) in self._pending.items()
        ]
        artifact_rows = [
            (key, steps, result, _seal(key, steps, result))
            for key, (steps, result) in self._pending_artifacts.items()
        ]
        try:
            hook = FAULT_HOOK
            if hook is not None:
                hook("write")
            if rows:
                self._conn.executemany(
                    "INSERT OR IGNORE INTO memo (key, steps, result, seal) VALUES (?, ?, ?, ?)",
                    rows,
                )
            if artifact_rows:
                self._conn.executemany(
                    "INSERT OR IGNORE INTO artifact (key, steps, result, seal)"
                    " VALUES (?, ?, ?, ?)",
                    artifact_rows,
                )
            self._conn.commit()
        except sqlite3.Error:
            self._sqlite_error()
            return  # keep the buffers; the next flush retries
        self._sqlite_ok()
        self._pending.clear()
        self._pending_artifacts.clear()
        self.flushes += 1

    def _shed_locked(self) -> None:
        """Drop oldest buffered entries past the bound (cache warmth, not data)."""
        while len(self._pending) > self.max_pending_entries:
            del self._pending[next(iter(self._pending))]
            self.dropped += 1
        while len(self._pending_artifacts) > self.max_pending_entries:
            del self._pending_artifacts[next(iter(self._pending_artifacts))]
            self.dropped += 1

    def close(self) -> None:
        """Flush and close the connection."""
        with self._lock:
            if not self.read_only:
                self._flush_locked()
            try:
                self._conn.close()
            except sqlite3.Error:
                self.errors += 1

    def counters(self) -> dict[str, Any]:
        """The pure in-memory counters — cheap enough for per-message posts.

        ``stats()`` adds the SQL-backed ``entries`` count; workers report
        these instead so health telemetry never issues SELECTs.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "flushes": self.flushes,
            "errors": self.errors,
            "dropped": self.dropped,
            "trips": self.trips,
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
            "artifact_writes": self.artifact_writes,
            "breaker": "open" if self._breaker_open else "closed",
            "pending": len(self._pending),
            "artifact_pending": len(self._pending_artifacts),
        }

    def stats(self) -> dict[str, Any]:
        document = self.counters()
        document["entries"] = len(self)
        return document

    def __len__(self) -> int:
        # Telemetry only: suppressed errors are counted but deliberately do
        # not feed the breaker, so reading stats() never shifts its state.
        with self._lock:
            try:
                (count,) = self._conn.execute("SELECT COUNT(*) FROM memo").fetchone()
            except sqlite3.Error:
                self.errors += 1
                return len(self._pending)
            return count + sum(1 for key in self._pending if not self._known(key))

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
        """The Language a memo kind belongs to (``"cc.nf"`` → cc), or None."""
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


def _has_table(conn: sqlite3.Connection, table: str) -> bool:
    """Whether ``table`` exists (pre-artifact store files lack ``artifact``)."""
    try:
        return (
            conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
                (table,),
            ).fetchone()
            is not None
        )
    except sqlite3.Error:
        return False


def _salvage(
    conn: sqlite3.Connection, path: Any, table: str = "memo"
) -> tuple[list[tuple], int]:
    """Every validly-sealed row of ``table``, plus the count of rows scanned.

    Keys are listed first, then each row is fetched under its own guard,
    so one torn page costs only the rows on it — everything still readable
    *and* sealed is salvaged.  Both store tables (``memo``, ``artifact``)
    share the sealed row shape, so one salvage covers either.
    """
    try:
        keys = [
            key for (key,) in conn.execute(f"SELECT key FROM {table}").fetchall()
        ]
    except sqlite3.Error as err:
        raise StoreError(f"cannot read memo store at {path}: {err}") from err
    valid: list[tuple] = []
    for key in keys:
        try:
            row = conn.execute(
                f"SELECT steps, result, seal FROM {table} WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            continue
        if row is None:
            continue
        steps, result, seal = row
        if seal == _seal(key, steps, result):
            valid.append((key, steps, result, seal))
    return valid, len(keys)


def _salvage_artifacts(conn: sqlite3.Connection, path: Any) -> tuple[list[tuple], int]:
    """Salvage the ``artifact`` table, tolerating its absence in old files."""
    if not _has_table(conn, "artifact"):
        return [], 0
    return _salvage(conn, path, table="artifact")


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
        valid, scanned = _salvage(conn, path)
        artifacts, artifact_scanned = _salvage_artifacts(conn, path)
    finally:
        conn.close()
    return {
        "path": str(path),
        "size_bytes": os.path.getsize(str(path)),
        "entries": scanned,
        "valid": len(valid),
        "invalid": scanned - len(valid),
        "memo_bytes": sum(len(row[2]) for row in valid),
        "artifact_entries": artifact_scanned,
        "artifact_valid": len(artifacts),
        "artifact_invalid": artifact_scanned - len(artifacts),
        "artifact_bytes": sum(len(row[2]) for row in artifacts),
        "artifact_orphaned": _artifact_orphans(artifacts),
    }


def store_scrub(path: Any) -> dict[str, Any]:
    """Rebuild a (possibly torn) store from its validly-sealed rows.

    Salvages every row whose seal verifies into a fresh database, then
    atomically replaces the original (stale ``-wal``/``-shm`` sidecars are
    removed so SQLite cannot replay torn pages over the rebuilt file).
    Raises :class:`StoreError` when the file is not a database at all.
    """
    source = _open_for_maintenance(path)
    try:
        valid, scanned = _salvage(source, path)
        artifacts, artifact_scanned = _salvage_artifacts(source, path)
    finally:
        source.close()
    rebuilt = str(path) + ".scrub"
    if os.path.exists(rebuilt):
        os.unlink(rebuilt)
    replacement = sqlite3.connect(rebuilt)
    try:
        replacement.execute(_SCHEMA)
        replacement.execute(_ARTIFACT_SCHEMA)
        replacement.executemany(
            "INSERT OR IGNORE INTO memo (key, steps, result, seal) VALUES (?, ?, ?, ?)",
            valid,
        )
        replacement.executemany(
            "INSERT OR IGNORE INTO artifact (key, steps, result, seal) VALUES (?, ?, ?, ?)",
            artifacts,
        )
        replacement.commit()
    finally:
        replacement.close()
    os.replace(rebuilt, str(path))
    for sidecar in (str(path) + "-wal", str(path) + "-shm"):
        if os.path.exists(sidecar):
            os.unlink(sidecar)
    return {
        "path": str(path),
        "scanned": scanned + artifact_scanned,
        "salvaged": len(valid) + len(artifacts),
        "discarded": (scanned - len(valid)) + (artifact_scanned - len(artifacts)),
    }


def store_compact(path: Any) -> dict[str, Any]:
    """Delete invalidly-sealed rows in place and reclaim the space."""
    conn = _open_for_maintenance(path)
    try:
        valid, scanned = _salvage(conn, path)
        artifacts, artifact_scanned = _salvage_artifacts(conn, path)
        keep = {key for key, _steps, _result, _seal in valid}
        keep_artifacts = {key for key, _steps, _result, _seal in artifacts}
        try:
            doomed = [
                (key,)
                for (key,) in conn.execute("SELECT key FROM memo").fetchall()
                if key not in keep
            ]
            conn.executemany("DELETE FROM memo WHERE key = ?", doomed)
            if _has_table(conn, "artifact"):
                doomed_artifacts = [
                    (key,)
                    for (key,) in conn.execute("SELECT key FROM artifact").fetchall()
                    if key not in keep_artifacts
                ]
                conn.executemany("DELETE FROM artifact WHERE key = ?", doomed_artifacts)
            conn.commit()
            conn.execute("VACUUM")
        except sqlite3.Error as err:
            raise StoreError(f"cannot compact memo store at {path}: {err}") from err
    finally:
        conn.close()
    return {
        "path": str(path),
        "entries": len(keep) + len(keep_artifacts),
        "removed": (scanned - len(keep)) + (artifact_scanned - len(keep_artifacts)),
    }
