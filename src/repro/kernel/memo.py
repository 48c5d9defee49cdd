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
fuel — each replays exactly the cost model it computes under.

The fingerprinting machinery is :class:`ContextTokenizer`: a token is
derived from a shadowing-resolved ``name -> value`` map computed
incrementally along the parent links contexts carry, parameterized by how
one binding transforms the map.  Its one instance is the definitions-only
view reduction observes, shared by normalization, the equivalence memo of
:mod:`repro.kernel.judgment` and the persistent tier (which translates a
token back into content).  Typing judgments do not fingerprint contexts:
they key on context identity (:func:`repro.kernel.judgment.typing_key`).

Session scoping: the cache and the fingerprint *tables* live on the active
:class:`~repro.kernel.state.KernelState` — one set per session, so sessions
never exchange entries.  Each tokenizer's token **counter** stays
process-global and monotone (it survives every clear and is shared by all
sessions), which is what keeps identity keys sound: tokens are cached on
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
from typing import Any, Callable

from repro.kernel.state import current_state, register_tokenizer

__all__ = [
    "ContextTokenizer",
    "NormalizationCache",
    "context_token",
    "head_is_weak_normal",
    "memoized_reduction",
    "normalization_cache",
]

_PARENT_ATTR = "_kernel_parent"


class ContextTokenizer:
    """Incremental context fingerprints over parent-linked contexts.

    A tokenizer owns a view of contexts as shadowing-resolved ``name ->
    value`` maps: ``derive_root`` computes the map of a context by full
    scan (the fallback for contexts built directly), ``derive_step``
    transforms a parent's map for one appended binding — returning the
    *same* dict object when the binding is invisible to the view, which
    lets extension chains share maps.  Maps are cached on the context
    instances (``map_attr``) and never mutated; tokens likewise
    (``token_attr``).  Two contexts receive the same token iff their maps
    pair the same names with the same value *objects*.

    The fingerprint tables live on the active session's
    :class:`~repro.kernel.state.TokenTable`; the token counter is one
    process-global monotone sequence per tokenizer, so clearing a table
    (session reset) can never lead to a token being reused.
    """

    __slots__ = ("name", "_token_attr", "_map_attr", "_derive_root", "_derive_step",
                 "_counter")

    def __init__(
        self,
        name: str,
        token_attr: str,
        map_attr: str,
        derive_root: Callable[[Any], dict],
        derive_step: Callable[[dict, Any], dict],
    ) -> None:
        self.name = name
        self._token_attr = token_attr
        self._map_attr = map_attr
        self._derive_root = derive_root
        self._derive_step = derive_step
        self._counter = itertools.count(1)
        register_tokenizer(self)

    def visible(self, ctx: Any) -> dict[str, Any]:
        """The view map of ``ctx``, derived incrementally.

        Walks up to the nearest ancestor with a cached map and replays the
        missing (child, binding) steps back down — O(1) amortized per
        context for ``extend``/``define`` chains, full scan otherwise.
        The map is a fact about the context alone (no session state), so
        caching it on the instance is sound across sessions.
        """
        map_attr = self._map_attr
        cached = getattr(ctx, map_attr, None)
        if cached is not None:
            return cached
        steps: list[tuple[Any, Any]] = []
        current = ctx
        while getattr(current, map_attr, None) is None:
            link = getattr(current, _PARENT_ATTR, None)
            if link is None:
                object.__setattr__(current, map_attr, self._derive_root(current))
                break
            steps.append((current, link[1]))
            current = link[0]
        visible = getattr(current, map_attr)
        for child, binding in reversed(steps):
            visible = self._derive_step(visible, binding)
            object.__setattr__(child, map_attr, visible)
        return visible

    def token(self, ctx: Any) -> int:
        """The small integer identifying ``ctx``'s view; cached on ``ctx``."""
        token = getattr(ctx, self._token_attr, None)
        if token is not None:
            return token
        visible = self.visible(ctx)
        tables = current_state().token_table(self.name)
        hit = tables.map_tokens.get(id(visible))
        if hit is not None:
            token = hit[0]
        else:
            fingerprint = tuple(sorted((name, id(value)) for name, value in visible.items()))
            entry = tables.table.get(fingerprint)
            if entry is None:
                entry = (next(self._counter), tuple(visible.values()))
                tables.table[fingerprint] = entry
                # Reverse index for the persistent tier: it re-derives the
                # *content* this token fingerprints.  Registered only at
                # token creation — every later holder shares the map.
                tables.by_token[entry[0]] = visible
            token = entry[0]
            tables.map_tokens[id(visible)] = (token, visible)  # pin: id stays valid
        object.__setattr__(ctx, self._token_attr, token)
        return token


def _defs_root(ctx: Any) -> dict[str, Any]:
    defs: dict[str, Any] = {}
    for binding in ctx.entries:
        if binding.definition is not None:
            defs[binding.name] = binding.definition
        elif binding.name in defs:
            del defs[binding.name]  # assumption shadows a definition
    return defs


def _defs_step(defs: dict[str, Any], binding: Any) -> dict[str, Any]:
    if binding.definition is not None:
        return {**defs, binding.name: binding.definition}
    if binding.name in defs:
        return {key: value for key, value in defs.items() if key != binding.name}
    return defs  # invisible to reduction: share the parent's dict object


_DEFS_TOKENS = ContextTokenizer(
    "kernel.ctx_tokens", "_kernel_ctx_token", "_kernel_defs", _defs_root, _defs_step
)


def context_token(ctx: Any) -> int:
    """A small integer identifying ``ctx``'s visible definitions.

    Two contexts get the same token iff, after shadowing, they map the same
    names to the same definition *objects* — the context slice δ-reduction
    (and therefore normalization and equivalence) can observe.
    """
    return _DEFS_TOKENS.token(ctx)


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


def normalization_cache() -> NormalizationCache:
    """The active session's normalization cache."""
    return current_state().normalization


def memoized_reduction(ctx: Any, term: Any, budget: Any, kind: str, compute: Callable) -> Any:
    """Run ``compute(ctx, term, budget)`` through the normalization memo.

    The one definition of the memo discipline — token, fuel-replaying
    lookup, store — shared by both calculi's reduction wrappers (NbE and
    substitution-oracle alike), so no engine can desynchronize on it.
    """
    cache = current_state().normalization
    token = context_token(ctx)
    hit = cache.lookup(kind, term, token)
    if hit is not None:
        result, steps = hit
        budget.charge(steps)
        return result
    before = budget.spent
    result = compute(ctx, term, budget)
    cache.store(kind, term, token, result, budget.spent - before)
    return result


def head_is_weak_normal(ctx: Any, term: Any, var_cls: type, active: tuple) -> bool:
    """Is ``term`` already weak-head normal (no memo round-trip needed)?

    Fast path for the overwhelmingly common cases: a neutral variable
    needs one context probe, and non-``active`` heads cannot reduce.
    """
    if isinstance(term, var_cls):
        binding = ctx.lookup(term.name)
        return binding is None or binding.definition is None
    return not isinstance(term, active)
