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
* typing uses :meth:`JudgmentCache.typing_key`, the context's *extension
  path*.  [Var] reads binding objects, so a typing key names the root
  context a context was built from (by identity) plus the sequence of
  ``(name, type object, definition object)`` bindings pushed onto it.
  Two context objects built along the same path — the body context the
  source check builds for a λ and the one closure conversion builds for
  the same λ — share their key, so the conversion reads the check's
  judgment instead of re-deriving it.  Key 0 is the empty context's, and
  every empty context shares it.  So does every context a *closed* subject
  is inferred or sorted under: such a derivation never reads Γ ([Var]
  only finds the subject's own binders), so its verdict, type and fuel
  are the same under every context, and one entry serves every position.
  ``check`` keeps the path key, since its expected type may be open.  An
  empty context that roots a path still anchors it by identity, so
  judgments of open subjects under binders never leak between unrelated
  derivations.

Keys are interned in a :class:`TypingPaths` table that lives on the
judgment cache, pins every object whose id a path mentions, and is
emptied whenever the cache is.  A key is cached on its context together
with the table's current epoch, so it is honoured only by the table (and
the fill of that table) that issued it.  Key numbers come from one
process-wide counter, so no number is ever issued twice — in one session
or across sessions — and a stale key can never alias another path.

Only *successful* judgments are cached.  A failing judgment re-runs from
scratch, which trivially reproduces the original ``TypeCheckError`` — and
because every cached sub-judgment replays its recorded fuel, the re-run
spends exactly the steps the first run did.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.kernel.state import current_state

__all__ = ["JudgmentCache", "TypingPaths", "judgment_cache"]

#: The typing key all empty contexts share (issued keys start at 1).
_EMPTY_KEY = 0
#: Set on contexts by ``Context._push``: ``(parent, binding)``.
_PARENT_ATTR = "_kernel_parent"
#: ``(epoch, key)`` cached on a context by :meth:`TypingPaths.key`.
_KEY_ATTR = "_kernel_typing_key"
#: Path keys for every table; ``next`` is atomic under the GIL.
_KEY_COUNTER = itertools.count(_EMPTY_KEY + 1)


class TypingPaths:
    """Interned extension paths: ``path -> (key, pin)``.

    A path is ``(id(root),)`` for a context without a parent link, else
    ``(parent key, name, id(type), id(definition))``; the pin (the root
    context, or the pushed binding) keeps every keyed id alive while the
    entry is.  ``clear`` starts a new epoch, which invalidates every key
    cached on a context.
    """

    __slots__ = ("name", "max_entries", "_keys", "_epoch")

    def __init__(self, name: str = "kernel.typing_paths", max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self._keys: dict[tuple, tuple[int, Any]] = {}
        self._epoch = object()

    def key(self, ctx: Any) -> int:
        """The path key of the non-empty context ``ctx``."""
        epoch = self._epoch
        cached = getattr(ctx, _KEY_ATTR, None)
        if cached is not None and cached[0] is epoch:
            return cached[1]
        if len(self._keys) >= self.max_entries:
            self.clear()
            epoch = self._epoch
        # Walk up to the nearest context keyed in this epoch (or the root),
        # then issue keys back down: iterative, so deep contexts are fine.
        pending = []
        node = ctx
        while True:
            link = getattr(node, _PARENT_ATTR, None)
            if link is None:
                key = self._issue((id(node),), node)
                object.__setattr__(node, _KEY_ATTR, (epoch, key))
                break
            pending.append(node)
            node = link[0]
            cached = getattr(node, _KEY_ATTR, None)
            if cached is not None and cached[0] is epoch:
                key = cached[1]
                break
        for node in reversed(pending):
            binding = getattr(node, _PARENT_ATTR)[1]
            path = (key, binding.name, id(binding.type_), id(binding.definition))
            key = self._issue(path, binding)
            object.__setattr__(node, _KEY_ATTR, (epoch, key))
        return key

    def _issue(self, path: tuple, pin: Any) -> int:
        entry = self._keys.get(path)
        if entry is None:
            entry = self._keys[path] = (next(_KEY_COUNTER), pin)
        return entry[0]

    def clear(self) -> None:
        self._keys.clear()
        self._epoch = object()

    def __len__(self) -> int:
        return len(self._keys)


class JudgmentCache:
    """``(kind, id(subject), id(extra), key) -> (verdict, steps)``.

    ``kind`` distinguishes judgments (``"cc.infer"``, ``"cccc.check.nbe"``,
    ``"cc.equiv"``, …).  ``extra`` is the second term of binary judgments
    (the expected type of ``check``, the right side of ``equivalent``);
    ``None`` for unary ones.  ``key`` is the context key: a
    :func:`~repro.kernel.memo.context_token` for equivalence, a
    :meth:`typing_key` for typing.  Each entry pins the terms it keys on
    and records the reduction steps the original computation spent; hits
    replay that cost into the caller's ``Budget``.  Bounded the same way
    as the normalization cache: past ``max_entries`` it is emptied, and
    its :class:`TypingPaths` table with it — judgments are cheap to
    recompute relative to eviction bookkeeping.
    """

    __slots__ = ("name", "max_entries", "hits", "paths", "_entries")

    def __init__(self, name: str = "kernel.judgments", max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.paths = TypingPaths(max_entries=max_entries)
        self._entries: dict[tuple, tuple[Any, Any, Any, int]] = {}

    def typing_key(self, ctx: Any, closed: bool = False) -> int:
        """The typing-memo key of ``ctx``: 0 when empty or ``closed``, else its path key.

        ``closed`` says the judgment reads nothing of ``ctx``: the caller
        knows its subject has no free variables.
        """
        return self.paths.key(ctx) if ctx.entries and not closed else _EMPTY_KEY

    def lookup(self, kind: str, subject: Any, extra: Any, key: int) -> tuple[Any, int] | None:
        """The cached (verdict, steps) for the judgment, or None."""
        entry = self._entries.get((kind, id(subject), 0 if extra is None else id(extra), key))
        if entry is None:
            return None
        self.hits += 1
        return entry[2], entry[3]

    def peek(self, kind: str, subject: Any, extra: Any, key: int) -> Any:
        """The cached verdict, or None — a read that counts no hit."""
        entry = self._entries.get((kind, id(subject), 0 if extra is None else id(extra), key))
        return None if entry is None else entry[2]

    def store(
        self,
        kind: str,
        subject: Any,
        extra: Any,
        key: int,
        verdict: Any,
        steps: int,
    ) -> None:
        """Record ``verdict`` (reached spending ``steps`` reduction steps)."""
        if len(self._entries) >= self.max_entries:
            self.clear()
        entry_key = (kind, id(subject), 0 if extra is None else id(extra), key)
        self._entries[entry_key] = (subject, extra, verdict, steps)

    def clear(self) -> None:
        self._entries.clear()
        self.paths.clear()

    def __len__(self) -> int:
        return len(self._entries)


def judgment_cache() -> JudgmentCache:
    """The active session's judgment cache."""
    return current_state().judgments
