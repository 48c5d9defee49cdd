"""Memoized normalization: a WHNF/normal-form cache with context fingerprints.

``whnf`` and ``normalize`` are pure functions of (a) the term, (b) the
*definitions* visible in the context (δ-reduction is the only way a context
influences reduction), and (c) nothing else — assumptions ``x : A`` only
matter insofar as they shadow a definition.  The cache therefore keys on

    (id(term), kind, context_token(ctx))

where :func:`context_token` distills a context down to a small integer that
two contexts share exactly when they expose the same definition objects for
the same names.  Each entry records the reduction steps the original
computation spent, and every hit replays that cost into the caller's
:class:`~repro.kernel.budget.Budget` via ``charge`` — so step counts
(``normalize_counting``) and fuel exhaustion are bit-for-bit identical to
an uncached run, merely cheaper.

``kind`` carries the *engine* as well as the judgment: the NbE machine
(:mod:`repro.kernel.nbe`) stores under ``"cc.whnf"``/``"cc.nf"`` while the
substitution oracle stores under ``"cc.whnf.subst"``/``"cc.nf.subst"`` (and
likewise for CC-CC), so the two engines never exchange results or recorded
fuel — each replays exactly the cost model it computes under.  The memo
discipline itself (token, fuel-replaying lookup, store) is written once,
in :mod:`repro.kernel.reduction`, for both engines and both calculi.

A token is derived from the shadowing-resolved ``name -> definition`` map
of a context, computed incrementally along the parent links contexts
carry.  This definitions-only view is the one reduction observes; it is
shared by normalization, the equivalence memo of
:mod:`repro.kernel.judgment` and the persistent tier (which translates a
token back into content).  Typing judgments do not fingerprint contexts:
they key on the context's extension path
(:meth:`repro.kernel.judgment.JudgmentCache.typing_key`).

Session scoping: the cache and the fingerprint *table* live on the active
:class:`~repro.kernel.state.KernelState` — one set per session, so sessions
never exchange entries.  The token **counter** stays process-global and
monotone (it survives every clear and is shared by all sessions), which
is what keeps identity keys sound: tokens are cached on
context instances, and a context that outlives a reset — or that is
observed by a second session — can never carry a token that aliases a
different fingerprint anywhere, because no token number is ever issued
twice.

Soundness of the identity keys: every entry pins the term it keys on, and
every fingerprint in a token table pins the value objects whose ids it
mentions, so no keyed id can be recycled while its entry is live.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.kernel.state import current_state

__all__ = [
    "NormalizationCache",
    "context_token",
]

_PARENT_ATTR = "_kernel_parent"
_TOKEN_ATTR = "_kernel_ctx_token"
_DEFS_ATTR = "_kernel_defs"

#: Process-global and monotone: it survives every table clear and is
#: shared by all sessions, so no token number is ever issued twice.
_TOKEN_COUNTER = itertools.count(1)


def _visible_defs(ctx: Any) -> dict[str, Any]:
    """The shadowing-resolved ``name -> definition`` map of ``ctx``.

    Walks up to the nearest ancestor with a cached map and replays the
    missing (child, binding) steps back down — O(1) amortized per context
    for ``extend``/``define`` chains, full scan for a context built
    directly.  A step that cannot change the map (an assumption shadowing
    no definition) shares the parent's dict object.  Maps are cached on
    the context instances and never mutated; they are facts about the
    context alone (no session state), so the caching is sound across
    sessions.
    """
    cached = getattr(ctx, _DEFS_ATTR, None)
    if cached is not None:
        return cached
    steps: list[tuple[Any, Any]] = []
    current = ctx
    while getattr(current, _DEFS_ATTR, None) is None:
        link = getattr(current, _PARENT_ATTR, None)
        if link is None:
            defs: dict[str, Any] = {}
            for binding in current.entries:
                if binding.definition is not None:
                    defs[binding.name] = binding.definition
                elif binding.name in defs:
                    del defs[binding.name]  # assumption shadows a definition
            object.__setattr__(current, _DEFS_ATTR, defs)
            break
        steps.append((current, link[1]))
        current = link[0]
    defs = getattr(current, _DEFS_ATTR)
    for child, binding in reversed(steps):
        if binding.definition is not None:
            defs = {**defs, binding.name: binding.definition}
        elif binding.name in defs:
            defs = {key: value for key, value in defs.items() if key != binding.name}
        object.__setattr__(child, _DEFS_ATTR, defs)
    return defs


def context_token(ctx: Any) -> int:
    """A small integer identifying ``ctx``'s visible definitions.

    Two contexts get the same token iff, after shadowing, they map the same
    names to the same definition *objects* — the context slice δ-reduction
    (and therefore normalization and equivalence) can observe.  The token
    is cached on ``ctx``; the fingerprint tables live on the active
    session's :class:`~repro.kernel.state.TokenTable`.
    """
    token = getattr(ctx, _TOKEN_ATTR, None)
    if token is not None:
        return token
    visible = _visible_defs(ctx)
    tables = current_state().ctx_tokens
    hit = tables.map_tokens.get(id(visible))
    if hit is not None:
        token = hit[0]
    else:
        fingerprint = tuple(sorted((name, id(value)) for name, value in visible.items()))
        entry = tables.table.get(fingerprint)
        if entry is None:
            entry = (next(_TOKEN_COUNTER), tuple(visible.values()))
            tables.table[fingerprint] = entry
            # Reverse index for the persistent tier: it re-derives the
            # *content* this token fingerprints.  Registered only at token
            # creation — every later holder shares the map.
            tables.by_token[entry[0]] = visible
        token = entry[0]
        tables.map_tokens[id(visible)] = (token, visible)  # pin: id stays valid
    object.__setattr__(ctx, _TOKEN_ATTR, token)
    return token


class NormalizationCache:
    """``(id(term), kind, token) -> (term, result, steps)``.

    ``kind`` distinguishes e.g. ``"cc.whnf"`` from ``"cc.nf"``.  The stored
    term pins the keyed id.  The cache is bounded: when it grows past
    ``max_entries`` it is simply emptied — normalization results are cheap
    to recompute relative to the bookkeeping of a smarter eviction policy.
    ``hits`` counts successful lookups, for the structured result objects
    of :mod:`repro.api`.

    ``persistent`` (installed by ``KernelState.attach_memo_store``, None
    otherwise) is the content-keyed on-disk tier: consulted on an
    in-memory miss, written through on every store.  A persistent hit
    warms the in-memory entry (so identity-keyed lookups take over) and
    carries recorded fuel exactly like a local entry; it is *not*
    re-persisted, and it is counted on the tier, not in ``hits`` — the
    in-memory hit counters keep their historical meaning.
    """

    __slots__ = ("name", "max_entries", "hits", "persistent", "_entries")

    def __init__(self, name: str = "kernel.normalization", max_entries: int = 262_144) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.persistent: Any = None
        self._entries: dict[tuple[int, str, int], tuple[Any, Any, int]] = {}

    def lookup(self, kind: str, term: Any, token: int) -> tuple[Any, int] | None:
        """The cached (result, steps) for ``term`` under ``token``, or None."""
        entry = self._entries.get((id(term), kind, token))
        if entry is None:
            tier = self.persistent
            if tier is None:
                return None
            # Persistence is an accelerator: any tier failure is a counted
            # miss, never an exception on the normalization hot path.
            try:
                found = tier.load(kind, term, token)
            except Exception:
                tier.errors += 1
                found = None
            if found is None:
                return None
            result, steps = found
            if len(self._entries) >= self.max_entries:
                self._entries.clear()
            self._entries[(id(term), kind, token)] = (term, result, steps)
            return result, steps
        self.hits += 1
        return entry[1], entry[2]

    def store(self, kind: str, term: Any, token: int, result: Any, steps: int) -> None:
        """Record ``result`` (reached in ``steps`` reduction steps)."""
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[(id(term), kind, token)] = (term, result, steps)
        tier = self.persistent
        if tier is not None:
            try:
                tier.save(kind, term, token, result, steps)
            except Exception:
                tier.errors += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
