"""Session-scoped kernel state: every mutable registry, owned by one object.

Historically each kernel cache — the hash-consing tables, the intern
memos, the whnf/normalize memo, the judgment cache, the context-token
fingerprint tables, and the fresh-name counter — was a module-level
global, and ``reset_fresh_counter()`` nuked all of them at once.  That
made the kernel impossible to shard: there was no unit of isolation two
independent workloads could own.

:class:`KernelState` is that unit.  One instance owns *all* mutable kernel
state, so two states can run interleaved workloads (on one thread or on
several) with zero cross-talk and results byte-identical to solo runs:

* a private fresh-name counter (:meth:`fresh_index`) — interleaving two
  states draws the same names each would draw alone;
* one :class:`LanguageStore` per calculus (intern memo, hash-consing
  table, the wire decoder's ``by_hash`` index);
* the two :class:`~repro.kernel.memo.Memo` instances with their
  fuel-replay entries, ``normalization`` and ``judgments``;
* the two :class:`~repro.kernel.memo.ContextKeys` tables their entries
  key on, ``ctx_tokens`` (definitions tokens) and ``typing_paths``
  (extension-path keys) — the tables are per-state, while the key
  *counter* stays process-global and monotone, so a key cached on a
  context object by one state is never honoured by another;
* the preferred reduction engine and default fuel, which the ``repro.api``
  session layer reads.

What depends only on a term — its free variables and its wire content
hash — is not session state: it is stored on the term (:mod:`repro.kernel.fv`,
:mod:`repro.wire.codec`) and shared by every state.

The *active* state is carried in a :mod:`contextvars` context variable:
:func:`current_state` returns it, falling back to a lazily-created
process-default state.  Because each thread starts from a fresh context,
activating a state on one thread never leaks into another — which is
exactly the isolation the sharding roadmap item needs.  Every legacy
entrypoint (``repro.cc.whnf``, ``repro.cccc.infer``, ``fresh`` …) reads
``current_state()`` and therefore behaves as a thin shim over the
process-default session when no session is active.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.kernel.cache import DictCache, TermCache

__all__ = [
    "ENGINES",
    "KernelState",
    "LanguageStore",
    "activate",
    "bootstrap_worker_state",
    "current_state",
    "default_state",
    "register_language",
    "validate_engine",
]

#: The reduction engines a session can select.  The one list both
#: ``KernelState`` and ``repro.api`` validate against, so the two entry
#: points can never disagree on which engines exist.
ENGINES = ("nbe", "subst")


def validate_engine(engine: str) -> str:
    """``engine`` if it names a known reduction engine; ValueError otherwise."""
    if engine not in ENGINES:
        expected = " or ".join(repr(name) for name in ENGINES)
        raise ValueError(f"unknown engine {engine!r} (expected {expected})")
    return engine

#: Every Language ever constructed (calculi register at import time), so a
#: fresh state can report zeroed stats for all of them before first use.
_LANGUAGES: list[Any] = []


def register_language(lang: Any) -> Any:
    """Record ``lang`` so every state lazily materializes a store for it."""
    _LANGUAGES.append(lang)
    return lang


class LanguageStore:
    """One calculus's interning state, owned by a :class:`KernelState`."""

    __slots__ = ("intern_cache", "hashcons", "by_hash", "caches")

    def __init__(self, lang_name: str) -> None:
        self.intern_cache = TermCache(f"{lang_name}.intern")
        #: (cls, *field keys) -> interned node; owned by repro.kernel.intern.
        self.hashcons: dict[tuple, Any] = {}
        #: content hash -> node: the wire decoder's adoption index.  Pins its
        #: nodes strongly (like the hashcons table whose lifetime it shares).
        self.by_hash: dict[bytes, Any] = {}
        self.caches: tuple[Any, ...] = (
            self.intern_cache,
            DictCache(f"{lang_name}.hashcons", self.hashcons),
            DictCache(f"{lang_name}.by_hash", self.by_hash),
        )


class KernelState:
    """All mutable kernel state for one isolated workload.

    Everything the engines can read or write lives here; two states never
    share an entry, a key table, or a name counter.  The deliberate
    exception is the *counter* behind context keys (process-global),
    which only ever makes keys unique — it carries no workload state.
    """

    def __init__(
        self,
        name: str = "session",
        engine: str = "nbe",
        fuel: int | None = None,
    ) -> None:
        validate_engine(engine)
        # Imported lazily: this module sits below everything (names, memo,
        # budget) in the import graph, so it must not import any of them at
        # module scope.
        from repro.kernel.budget import DEFAULT_FUEL
        from repro.kernel import memo

        if fuel is None:
            fuel = DEFAULT_FUEL

        self.name = name
        self.engine = engine
        self.fuel = fuel
        self.ctx_tokens = memo.ContextKeys(
            "kernel.ctx_tokens", memo.visible_definitions, memo.definitions_token)
        self.typing_paths = memo.ContextKeys(
            "kernel.typing_paths", memo.extension_path, memo.own_key)
        self.normalization = memo.Memo("kernel.normalization")
        self.judgments = memo.Memo("kernel.judgments", keys=self.typing_paths)
        #: The attached persistent memo tier (repro.wire.persist), or None.
        self.persistent: Any = None
        self._counter = itertools.count(1)
        self._stores: dict[str, LanguageStore] = {}
        self._dicts: dict[str, dict] = {}
        self._reset_lock = threading.Lock()

    # -- state accessed by the engines --------------------------------------

    def fresh_index(self) -> int:
        """The next fresh-name suffix.  Atomic under the GIL (one C call)."""
        return next(self._counter)

    def store(self, lang: Any) -> LanguageStore:
        """The :class:`LanguageStore` for ``lang``, created on first use.

        ``setdefault`` (atomic under the GIL) arbitrates first use from
        concurrent threads sharing one state: both racers get the same
        store, never a private orphan that stats/reset would miss.
        """
        found = self._stores.get(lang.name)
        if found is None:
            found = self._stores.setdefault(lang.name, LanguageStore(lang.name))
        return found

    def dict_cache(self, name: str) -> dict:
        """The plain-dict cache ``name``, created empty on first use.

        For the caches kept above the kernel (the ``repro.api`` compile memo,
        the in-memory compiled-artifact cache): ``stats`` reports them and
        ``clear_caches``/``reset`` empty them like every other cache.
        ``setdefault`` arbitrates first use from concurrent threads.
        """
        found = self._dicts.get(name)
        if found is None:
            found = self._dicts.setdefault(name, {})
        return found

    # -- lifecycle ----------------------------------------------------------

    def caches(self) -> list[Any]:
        """Every cache this state owns (stores materialized for all calculi)."""
        for lang in _LANGUAGES:
            self.store(lang)
        out: list[Any] = []
        for store in self._stores.values():
            out.extend(store.caches)
        out.append(self.ctx_tokens)
        out.append(self.normalization)
        out.append(self.judgments)
        out.append(self.typing_paths)
        out.extend(DictCache(name, data) for name, data in self._dicts.items())
        return out

    def clear_caches(self) -> None:
        """Empty every cache, keeping the fresh-name counter running."""
        for cache in self.caches():
            cache.clear()

    def reset(self) -> None:
        """Return this state to a cold, deterministic zero.

        Restarts the fresh-name counter *and* clears every cache: cached
        results may embed fresh names issued before the reset, and keeping
        them would make runs depend on execution history.  Only this
        state's caches are touched — sibling states stay warm.  An attached
        persistent memo tier is flushed and **detached** (the on-disk store
        itself is append-only and survives): a reset state holds no handle
        to any cross-session storage, which keeps tests hermetic.  Service
        policy differs deliberately — the executor's ``reset`` job
        re-attaches the worker's configured store afterwards.
        """
        with self._reset_lock:
            self._counter = itertools.count(1)
            self.detach_memo_store()
            self.clear_caches()

    def attach_memo_store(self, store: Any) -> Any:
        """Attach a persistent memo tier backed by ``store`` (path or store).

        ``store`` is a :class:`repro.wire.persist.PersistentMemoStore` or a
        filesystem path one is opened at.  From then on the normalization
        cache consults the tier on every in-memory miss and writes every
        stored entry through to it; hits replay their recorded fuel, so a
        persisted hit is bit-identical to a cold computation.  Returns the
        installed :class:`~repro.wire.persist.PersistentTier`.
        """
        from repro.wire.persist import PersistentMemoStore, PersistentTier

        if not isinstance(store, PersistentMemoStore):
            store = PersistentMemoStore(store)
        tier = PersistentTier(store, self)
        self.persistent = tier
        self.normalization.persistent = tier
        return tier

    def detach_memo_store(self) -> Any:
        """Detach the persistent tier (flushing buffered writes); None-safe.

        Returns the detached tier (its store stays open — callers that
        opened the store close it) or None if nothing was attached.
        """
        tier = self.persistent
        if tier is None:
            return None
        self.persistent = None
        self.normalization.persistent = None
        tier.store.flush()
        return tier

    def mark(self) -> tuple[int, int]:
        """The fill of the hit-counting memos, for :meth:`rollback`."""
        return len(self.normalization), len(self.judgments)

    def rollback(self, mark: tuple[int, int]) -> None:
        """Drop the memo entries stored since ``mark``, so a retried call
        hits where one run would (the other caches only speed it up)."""
        self.normalization.rollback(mark[0])
        self.judgments.rollback(mark[1])

    def stats(self) -> dict[str, int]:
        """Entry counts per cache, for benchmarks and diagnostics."""
        return {cache.name: len(cache) for cache in self.caches()}

    def hit_counts(self) -> dict[str, int]:
        """Cumulative cache hits for the caches that track them."""
        return {
            self.normalization.name: self.normalization.hits,
            self.judgments.name: self.judgments.hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelState({self.name!r}, engine={self.engine!r})"


# --------------------------------------------------------------------------
# The active state.
# --------------------------------------------------------------------------

_ACTIVE: contextvars.ContextVar[KernelState | None] = contextvars.ContextVar(
    "repro_kernel_state", default=None
)
_DEFAULT: KernelState | None = None
_DEFAULT_LOCK = threading.Lock()


def default_state() -> KernelState:
    """The process-default state every legacy entrypoint runs against."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = KernelState("default")
    return _DEFAULT


def bootstrap_worker_state(
    name: str,
    engine: str = "nbe",
    fuel: int | None = None,
    memo_store: Any = None,
) -> KernelState:
    """Install a pristine process-default state — the worker-side bootstrap.

    A pool worker forked from a warm parent inherits the parent's default
    state wholesale: its caches, its fresh-name counter position, its hit
    counters.  Serving jobs against that would make worker results depend
    on parent execution history and re-report the parent's counters in
    every pool-stats aggregation.  This swaps in a brand-new
    :class:`KernelState` as the process default (and deactivates any
    inherited active state), so the worker's session — built over the
    returned state — and the legacy shims observe one cold, deterministic
    world, and its counters are exactly the work this worker performed.

    ``memo_store`` (a path, or an opened store) attaches the pool's shared
    persistent memo tier: the worker opens its *own* connection to the
    store (SQLite WAL arbitrates cross-process readers/writers) and batches
    its write-backs in its own append transactions, so the hot path never
    contends on a lock with sibling workers.
    """
    global _DEFAULT
    state = KernelState(name, engine=engine, fuel=fuel)
    if memo_store is not None:
        state.attach_memo_store(memo_store)
    with _DEFAULT_LOCK:
        _DEFAULT = state
    # A fork can also inherit a contextvar pointing at a parent session;
    # clear it so current_state() resolves to the fresh default here.
    _ACTIVE.set(None)
    return state


def current_state() -> KernelState:
    """The state in force for this thread/context (default when none is)."""
    state = _ACTIVE.get()
    return state if state is not None else default_state()


@contextmanager
def activate(state: KernelState) -> Iterator[KernelState]:
    """Make ``state`` the active kernel state within the ``with`` body.

    Context-variable scoped: nests correctly, restores the previous state
    on exit, and never leaks across threads (each thread starts from a
    fresh context, so a state activated here is invisible elsewhere unless
    that thread activates it too).
    """
    token = _ACTIVE.set(state)
    try:
        yield state
    finally:
        _ACTIVE.reset(token)
