"""Judgment-level memoization: a fuel-replaying cache for typing and equivalence.

Typing judgments (``infer``, ``check``, ``infer_universe``) and the
equivalence judgment are pure functions of the subject term(s) and the
context, so they are memoized the way :mod:`repro.kernel.memo` memoizes
normalization: identity keys plus a small context key, with exact fuel
replay on every hit so ``Budget`` accounting and fuel exhaustion are
byte-identical to an uncached run.  The context key differs per judgment:

* equivalence uses :func:`repro.kernel.memo.context_token`, the
  *definitions-only* fingerprint: reduction sees the context only through
  δ-steps, so contexts built along different binder paths share entries;
* typing uses :func:`typing_key`, the context's *identity*.  [Var] reads
  binding objects and every ``extend``/``define`` builds a new one, so
  distinct non-empty contexts practically never agree on every binding;
  all empty contexts share one key.  Entries pin the context, and
  contexts are immutable, so the key is sound.

Only *successful* judgments are cached.  A failing judgment re-runs from
scratch, which trivially reproduces the original ``TypeCheckError`` — and
because every cached sub-judgment replays its recorded fuel, the re-run
spends exactly the steps the first run did.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.state import current_state

__all__ = ["JudgmentCache", "judgment_cache", "typing_key"]

#: The typing key all empty contexts share (``id`` is never 0).
_EMPTY_KEY = 0


def typing_key(ctx: Any) -> int:
    """The typing-memo key of ``ctx``: shared by all empty contexts, else ``id(ctx)``.

    Callers pass ``ctx`` as the ``pin`` of :meth:`JudgmentCache.store`.
    """
    return id(ctx) if ctx.entries else _EMPTY_KEY


class JudgmentCache:
    """``(kind, id(subject), id(extra), key) -> (verdict, steps)``.

    ``kind`` distinguishes judgments (``"cc.infer"``, ``"cccc.check.nbe"``,
    ``"cc.equiv"``, …).  ``extra`` is the second term of binary judgments
    (the expected type of ``check``, the right side of ``equivalent``);
    ``None`` for unary ones.  ``key`` is the context key: a
    :func:`~repro.kernel.memo.context_token` for equivalence, a
    :func:`typing_key` for typing.  Each entry pins the terms it keys on
    (and the ``pin`` object a typing key's id refers to) and records the
    reduction steps the original computation spent; hits replay that cost
    into the caller's ``Budget``.  Bounded the same way as the
    normalization cache: past ``max_entries`` it is emptied — judgments
    are cheap to recompute relative to eviction bookkeeping.
    """

    __slots__ = ("name", "max_entries", "hits", "_entries")

    def __init__(self, name: str = "kernel.judgments", max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self._entries: dict[tuple, tuple[Any, Any, Any, Any, int]] = {}

    def lookup(self, kind: str, subject: Any, extra: Any, key: int) -> tuple[Any, int] | None:
        """The cached (verdict, steps) for the judgment, or None."""
        entry = self._entries.get((kind, id(subject), 0 if extra is None else id(extra), key))
        if entry is None:
            return None
        self.hits += 1
        return entry[3], entry[4]

    def store(
        self,
        kind: str,
        subject: Any,
        extra: Any,
        key: int,
        verdict: Any,
        steps: int,
        pin: Any = None,
    ) -> None:
        """Record ``verdict`` (reached spending ``steps`` reduction steps)."""
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        entry_key = (kind, id(subject), 0 if extra is None else id(extra), key)
        self._entries[entry_key] = (subject, extra, pin, verdict, steps)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def judgment_cache() -> JudgmentCache:
    """The active session's judgment cache."""
    return current_state().judgments
