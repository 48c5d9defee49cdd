"""Judgment-level memoization: typing tokens and a fuel-replaying cache.

Typing judgments (``infer``, ``check``, ``infer_universe``) and the
equivalence judgment are pure functions of the subject term(s) and the
*visible bindings* of the context, so both type checkers memoize them the
same way :mod:`repro.kernel.memo` memoizes normalization: identity keys
plus a small context fingerprint, with exact fuel replay on every hit so
``Budget`` accounting and fuel exhaustion are byte-identical to an
uncached run.

Two tokens exist because the two judgments observe different slices of
the context:

* :func:`repro.kernel.memo.context_token` — *definitions only*.  Reduction
  (and therefore equivalence) can see the context exclusively through
  δ-steps, so assumptions are irrelevant beyond the shadowing they cause.
* :func:`typing_token` (here) — the *full* shadowing-resolved
  ``name -> binding`` map.  Typing reads assumption types through [Var],
  so two contexts are interchangeable for ``infer`` exactly when they
  resolve every name to the same binding object.

Both are instances of the same :class:`~repro.kernel.memo.ContextTokenizer`
machinery, so the pinning/parent-link/reset discipline is shared, not
duplicated.

Only *successful* judgments are cached.  A failing judgment re-runs from
scratch, which trivially reproduces the original ``TypeCheckError`` — and
because every cached sub-judgment replays its recorded fuel, the re-run
spends exactly the steps the first run did.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.memo import ContextTokenizer
from repro.kernel.state import current_state

__all__ = ["JudgmentCache", "judgment_cache", "typing_token"]


def _bindings_root(ctx: Any) -> dict[str, Any]:
    return {binding.name: binding for binding in ctx.entries}


def _bindings_step(bindings: dict[str, Any], binding: Any) -> dict[str, Any]:
    # Every binding is visible to typing, so extension never shares maps.
    return {**bindings, binding.name: binding}


_TYPING_TOKENS = ContextTokenizer(
    "kernel.typing_tokens",
    "_kernel_typing_token",
    "_kernel_bindings",
    _bindings_root,
    _bindings_step,
)


def typing_token(ctx: Any) -> int:
    """A small integer identifying ``ctx``'s visible bindings.

    Two contexts get the same token iff, after shadowing, they resolve the
    same names to the same binding *objects* — the condition under which
    every typing judgment behaves identically.  Cached on the context
    instance, so repeated calls are O(1).
    """
    return _TYPING_TOKENS.token(ctx)


class JudgmentCache:
    """``(kind, id(subject), id(extra), token) -> (verdict, steps)``.

    ``kind`` distinguishes judgments (``"cc.infer"``, ``"cccc.check"``,
    ``"cc.equiv"``, …).  ``extra`` is the second term of binary judgments
    (the expected type of ``check``, the right side of ``equivalent``);
    ``None`` for unary ones.  Each entry pins the terms it keys on and
    records the reduction steps the original computation spent; hits
    replay that cost into the caller's ``Budget``.  Bounded the same way
    as the normalization cache: past ``max_entries`` it is emptied —
    judgments are cheap to recompute relative to eviction bookkeeping.
    """

    __slots__ = ("name", "max_entries", "hits", "_entries")

    def __init__(self, name: str = "kernel.judgments", max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self._entries: dict[tuple, tuple[Any, Any, Any, int]] = {}

    def lookup(self, kind: str, subject: Any, extra: Any, token: int) -> tuple[Any, int] | None:
        """The cached (verdict, steps) for the judgment, or None."""
        entry = self._entries.get((kind, id(subject), 0 if extra is None else id(extra), token))
        if entry is None:
            return None
        self.hits += 1
        return entry[2], entry[3]

    def store(
        self, kind: str, subject: Any, extra: Any, token: int, verdict: Any, steps: int
    ) -> None:
        """Record ``verdict`` (reached spending ``steps`` reduction steps)."""
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        key = (kind, id(subject), 0 if extra is None else id(extra), token)
        self._entries[key] = (subject, extra, verdict, steps)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def judgment_cache() -> JudgmentCache:
    """The active session's judgment cache."""
    return current_state().judgments

