"""Identity-keyed caches over immutable terms.

Terms in both calculi are immutable, so a session fact derived from a term
(its interned representative, its normal form under a fixed context) can be
cached against the term's *identity*.  Identity keys avoid the O(n)
structural hashing a ``dict[Term, ...]`` would pay on every lookup — but
they are only sound while the keyed object is alive, because CPython reuses
addresses.  :class:`TermCache` therefore holds a weak reference to every
key and evicts the entry the moment the term is collected, before its id
can be recycled.  Facts of the term alone (its free variables, its content
hash) need no cache: they are stored on the term (:mod:`repro.kernel.fv`,
:mod:`repro.wire.codec`).

Cache *instances* are owned by :class:`repro.kernel.state.KernelState` —
one full set per session, so independent workloads never share an entry.
The module-level :func:`cache_stats` reads the **active** state, so it
works for the process-default session too.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable

__all__ = [
    "DictCache",
    "TermCache",
    "cache_stats",
]


def cache_stats() -> dict[str, int]:
    """Entry counts per cache of the active state, for benchmarks/diagnostics."""
    from repro.kernel.state import current_state

    return current_state().stats()


class DictCache:
    """Adapter giving a plain dict the cache clear/len/name protocol."""

    __slots__ = ("name", "_data")

    def __init__(self, name: str, data: dict) -> None:
        self.name = name
        self._data = data

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class TermCache:
    """Map ``id(term) -> value`` with eviction when the term is collected.

    The cache does *not* keep its keys alive: each entry is paired with a
    weak reference whose callback removes the entry when the term dies.
    This makes the cache safe for identity keying (a recycled id can never
    observe a stale entry) without pinning every term ever seen.
    """

    __slots__ = ("name", "_values", "_refs")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[int, Any] = {}
        self._refs: dict[int, weakref.ref] = {}

    def get(self, term: Any) -> Any | None:
        """The cached value for ``term``, or None."""
        return self._values.get(id(term))

    def put(self, term: Any, value: Any) -> Any:
        """Cache ``value`` for ``term`` and return it."""
        key = id(term)
        values = self._values
        if key in values:
            values[key] = value
            return value
        values[key] = value
        refs = self._refs

        def _evict(_ref: weakref.ref, _key: int = key) -> None:
            values.pop(_key, None)
            refs.pop(_key, None)

        refs[key] = weakref.ref(term, _evict)
        return value

    def clear(self) -> None:
        """Drop every entry (the weak references die with their dict)."""
        self._values.clear()
        self._refs.clear()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, term: Any) -> bool:
        return id(term) in self._values

    def values(self) -> Iterable[Any]:
        return self._values.values()
