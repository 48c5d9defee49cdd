"""The kernel memo: one fuel-replaying cache for every judgment, one key table.

Reduction and equivalence (paper Figures 2 and 6) and typing ``Γ ⊢ e : A``
(Figures 3, 4 and 7) are pure functions of their context and subject, so
the kernel memoizes all of them through one class, :class:`Memo`.  A
session owns two instances: ``KernelState.normalization`` for ``whnf`` and
``normalize`` (with the optional persistent tier), and
``KernelState.judgments`` for ``infer``, ``check``, ``infer_universe`` and
``equivalent``.  An entry is keyed

    (kind, id(subject), id(extra) or 0, context key)

and records the reduction steps the original computation spent.  Every
site probes with :meth:`Memo.replay`, which charges that fuel into the
caller's :class:`~repro.kernel.budget.Budget` on a hit, and records with
:meth:`Memo.store`.  So step counts and fuel exhaustion are bit-for-bit
those of an uncached run, merely cheaper, and this module is the one place
an entry is keyed, pinned, bounded, replayed and counted.

``kind`` names the calculus, the judgment and, for reduction, the engine:
the NbE machine stores ``"cc.whnf"``/``"cc.nf"`` and the substitution
oracle ``"cc.whnf.subst"``/``"cc.nf.subst"``, so the engines never
exchange results or recorded fuel.  ``extra`` is the second term of a
binary judgment: the expected type of ``check``, the right side of
``equivalent``.  Only successful judgments are stored.  A failing one
re-runs and, since its cached sub-judgments replay their fuel, spends
exactly the steps the first run did.

**Context keys.**  A :class:`ContextKeys` table interns one kind of
context key.  A session owns two tables, and each key keeps its meaning:

* ``KernelState.ctx_tokens`` holds *definitions tokens*
  (:func:`context_token`).  Two contexts share a token when, after
  shadowing, they map the same names to the same definition objects.
  That is the slice of a context that δ-reduction, and so normalization
  and equivalence, can observe.  The persistent tier translates a token
  back into the content it fingerprints (:meth:`ContextKeys.pinned`).
* ``KernelState.typing_paths`` holds *extension-path keys*
  (:func:`judgment_key`).  [Var] reads binding objects, so a path key
  names the root context a context was built from (by identity) and the
  ``(name, type object, definition object)`` bindings pushed onto it.
  The source check and closure conversion build equal paths for a λ body,
  so the conversion reads the check's judgment.  Key 0 is every empty
  context's.  So is the key of every context a *closed* subject is
  inferred or sorted under, since that derivation never reads Γ.

Both tables follow one rule.  A key is cached on its context together with
the table's epoch, and it is honoured only by the table, and the fill of
that table, that issued it.  A context that outlives a reset, or that a
second session sees, is keyed again.  Keys are derived along the
``(parent, binding)`` links that ``Context._push`` leaves, in one
iterative walk, so deep contexts are fine.  All key numbers come from one
process-wide counter, so a stale key can never alias another context.

Soundness of the identity keys: every entry pins the terms it keys on, and
every fingerprint pins the objects whose ids it mentions, so no keyed id
can be recycled while its entry is live.  Both structures are bounded:
past ``max_entries`` they are emptied, the judgment memo together with
its path table.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.kernel.budget import Budget
from repro.kernel.state import current_state

__all__ = ["ContextKeys", "Memo", "context_token", "judgment_key"]

#: The typing key every empty context shares (issued keys start at 1).
_EMPTY_KEY = 0
#: Set on contexts by ``Context._push``: ``(parent, binding)``.
_PARENT_ATTR = "_kernel_parent"
#: Every key of every table; ``next`` is atomic under the GIL.
_COUNTER = itertools.count(_EMPTY_KEY + 1)


class ContextKeys:
    """Interned context keys: ``fingerprint -> key`` and ``key -> pin``.

    A key is computed in two steps.  ``derive(table, parent, link)`` gives
    a context's *stem*: called with ``parent`` None and ``link`` a context
    without a parent link (a root), or with the parent's stem and the
    binding pushed onto it.  ``finish(table, stem)`` turns a stem into a
    key; keys are issued through :meth:`issue`.  A context whose stem is its
    parent's very stem shares the parent's key, and only a context whose
    key is asked for is finished.  Each context caches ``(epoch, stem,
    key or None)``; ``clear`` starts a new epoch, which voids them all.
    The pin of a key keeps every object its fingerprint names by id alive
    while the entry is.
    """

    __slots__ = ("name", "max_entries", "_derive", "_finish", "_attr", "_keys", "_pins",
                 "_epoch")

    def __init__(self, name: str, derive: Callable, finish: Callable,
                 max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self._derive = derive
        self._finish = finish
        self._attr = "_" + name.replace(".", "_")
        self._keys: dict[tuple, int] = {}
        self._pins: dict[int, Any] = {}
        self._epoch = object()

    def key(self, ctx: Any) -> int:
        """The key of ``ctx`` in this table's current fill."""
        attr, epoch = self._attr, self._epoch
        cached = getattr(ctx, attr, None)
        if cached is not None and cached[0] is epoch and cached[2] is not None:
            return cached[2]
        if len(self._keys) >= self.max_entries:
            self.clear()
            epoch = self._epoch
        # Walk up to the nearest context with a stem in this fill (or a
        # root), then derive stems back down: iterative, so deep contexts
        # are fine.
        derive = self._derive
        pending = []
        node = ctx
        while True:
            cached = getattr(node, attr, None)
            if cached is not None and cached[0] is epoch:
                stem, key = cached[1], cached[2]
                break
            link = getattr(node, _PARENT_ATTR, None)
            if link is None:
                stem, key = derive(self, None, node), None
                object.__setattr__(node, attr, (epoch, stem, None))
                break
            pending.append((node, link[1]))
            node = link[0]
        for node, binding in reversed(pending):
            parent, stem = stem, derive(self, stem, binding)
            if stem is not parent:
                key = None
            object.__setattr__(node, attr, (epoch, stem, key))
        if key is None:
            key = self._finish(self, stem)
            object.__setattr__(ctx, attr, (epoch, stem, key))
        return key

    def issue(self, fingerprint: tuple, pin: Any) -> int:
        """The key of ``fingerprint``, issued (pinning ``pin``) on first sight."""
        key = self._keys.get(fingerprint)
        if key is None:
            key = self._keys[fingerprint] = next(_COUNTER)
            self._pins[key] = pin
        return key

    def pinned(self, key: int) -> Any:
        """What ``key`` pins in this fill, or None if it issued no such key."""
        return self._pins.get(key)

    def clear(self) -> None:
        self._keys.clear()
        self._pins.clear()
        self._epoch = object()

    def __len__(self) -> int:
        return len(self._keys)


def visible_definitions(table: ContextKeys, parent: dict | None, link: Any) -> dict[str, Any]:
    """The definitions-token stem: the shadowing-resolved ``name -> definition`` map.

    A step that cannot change the map (an assumption shadowing no
    definition) returns the parent's map itself, so the child shares the
    parent's token.
    """
    if parent is None:
        visible: dict[str, Any] = {}
        for binding in link.entries:
            if binding.definition is not None:
                visible[binding.name] = binding.definition
            elif binding.name in visible:
                del visible[binding.name]  # an assumption shadows a definition
        return visible
    name = link.name
    if link.definition is not None:
        return {**parent, name: link.definition}
    if name in parent:
        return {key: value for key, value in parent.items() if key != name}
    return parent


def definitions_token(table: ContextKeys, visible: dict[str, Any]) -> int:
    """The token of a visible-definitions map: its names and definition objects."""
    fingerprint = tuple(sorted((name, id(value)) for name, value in visible.items()))
    return table.issue(fingerprint, visible)


def extension_path(table: ContextKeys, parent: int | None, link: Any) -> int:
    """The extension-path stem, which is the key: a root by identity, then each binding."""
    if parent is None:
        return table.issue((id(link),), link)
    return table.issue((parent, link.name, id(link.type_), id(link.definition)), link)


def own_key(table: ContextKeys, stem: int) -> int:
    """The ``finish`` of a table whose stems are keys already."""
    return stem


def context_token(ctx: Any) -> int:
    """The active session's definitions token of ``ctx``."""
    return current_state().ctx_tokens.key(ctx)


def judgment_key(ctx: Any, closed: bool = False) -> tuple[Memo, int]:
    """``(memo, key)``: the active judgment memo and the typing key of ``ctx``.

    The key is 0 when ``ctx`` is empty or ``closed`` (the caller knows its
    subject has no free variables, so the judgment reads nothing of
    ``ctx``), else the path key.
    """
    state = current_state()
    if closed or not ctx.entries:
        return state.judgments, _EMPTY_KEY
    return state.judgments, state.typing_paths.key(ctx)


class Memo:
    """``(kind, id(subject), id(extra) or 0, key) -> (subject, extra, verdict, steps)``.

    The stored terms pin the keyed ids.  Past ``max_entries`` the memo is
    emptied, and ``keys`` (the key table it owns, if any) with it:
    judgments are cheap to recompute relative to the bookkeeping of a
    smarter eviction policy.  ``hits`` counts in-memory hits, for the
    structured result objects of :mod:`repro.api`.

    ``persistent`` (installed by ``KernelState.attach_memo_store`` on the
    normalization memo, None otherwise) is the content-keyed on-disk tier:
    consulted on an in-memory miss, written through on every store.  A
    persistent hit warms the in-memory entry and replays its recorded fuel
    like a local one; it is not re-persisted, and it is counted on the
    tier, not in ``hits``.
    """

    __slots__ = ("name", "max_entries", "hits", "keys", "persistent", "_entries")

    def __init__(self, name: str, keys: ContextKeys | None = None,
                 max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.keys = keys
        self.persistent: Any = None
        self._entries: dict[tuple, tuple[Any, Any, Any, int]] = {}

    def replay(self, kind: str, subject: Any, extra: Any, key: int, budget: Budget) -> Any:
        """The memoized verdict, its recorded fuel charged to ``budget``; or None."""
        entry_key = (kind, id(subject), 0 if extra is None else id(extra), key)
        entry = self._entries.get(entry_key)
        if entry is not None:
            self.hits += 1
        else:
            tier = self.persistent
            if tier is None:
                return None
            # Persistence is an accelerator: any tier failure is a counted
            # miss, never an exception on the hot path.
            try:
                found = tier.load(kind, subject, key)
            except Exception:
                tier.errors += 1
                found = None
            if found is None:
                return None
            if len(self._entries) >= self.max_entries:
                self.clear()
            entry = self._entries[entry_key] = (subject, extra, found[0], found[1])
        budget.charge(entry[3])
        return entry[2]

    def peek(self, kind: str, subject: Any, extra: Any, key: int) -> Any:
        """The memoized verdict, or None: a read that counts no hit and charges nothing."""
        entry = self._entries.get((kind, id(subject), 0 if extra is None else id(extra), key))
        return None if entry is None else entry[2]

    def store(self, kind: str, subject: Any, extra: Any, key: int, verdict: Any,
              steps: int) -> None:
        """Record ``verdict``, reached spending ``steps`` reduction steps."""
        if len(self._entries) >= self.max_entries:
            self.clear()
        entry_key = (kind, id(subject), 0 if extra is None else id(extra), key)
        self._entries[entry_key] = (subject, extra, verdict, steps)
        tier = self.persistent
        if tier is not None:
            try:
                tier.save(kind, subject, key, verdict, steps)
            except Exception:
                tier.errors += 1

    def rollback(self, size: int) -> None:
        """Drop the newest entries until ``size`` remain (dicts keep insertion order)."""
        entries = self._entries
        while len(entries) > size:
            entries.popitem()

    def clear(self) -> None:
        self._entries.clear()
        if self.keys is not None:
            self.keys.clear()

    def __len__(self) -> int:
        return len(self._entries)
