"""Reduction shared by both calculi: the substitution oracle and the memo wrappers.

CC-CC reduction (paper Figure 6) is CC reduction (Figure 2) with one rule
changed.  δ, ζ, π1/π2 and the ground-type ι-rules are the same, and β fires
on a closure whose code is a literal ``CodeLam`` rather than on a λ::

    (λ x:A. b) a                     ⊲β  b[a/x]                  (CC)
    ⟨⟨λ (x′:A′, x:A). e1, e′⟩⟩ e      ⊲β  e1[e′/x′, e/x]          (CC-CC)

So one engine serves both.  It is driven by a calculus's
:class:`~repro.kernel.nbe.NbeSpec`: the spec names the eliminator classes
the axioms fire on and the β flavour, and the registered node specs of
:mod:`repro.kernel.nodespec` drive every congruence.  The contextual
closure walks a node's children in field order.  Each child sees the
context extended by the binders in scope for it, and binder *k* is
annotated with the last child at depth *k*: ``Pi`` gives ``domain``,
``CodeLam`` gives ``env_type`` and then ``arg_type``.  ``Let`` is the one
exception: reducts of its body see the definition, ``ctx.define(name,
bound, annot)``.

Two engines decide the relation, and this module wraps both:

* **NbE** (:mod:`repro.kernel.nbe`) backs :func:`whnf` and
  :func:`normalize`.
* **Substitution** backs :func:`whnf_subst` and :func:`normalize_subst`.
  It is the *oracle* that NbE is differentially tested against
  (``tests/test_nbe_differential.py``), and the **counting path**:
  :func:`normalize_counting` reports its step semantics, one unit per
  contraction per occurrence, replayed on memo hits.

Both engines memoize through :func:`_memoized` under the kinds of
:class:`~repro.kernel.nbe.NbeSpec` (``"cc.whnf"`` vs ``"cc.whnf.subst"``,
and so on), so they never exchange results or recorded fuel.  The spec is
threaded through as the first argument of every compute function rather
than bound into a closure or partial, so a nested reduction costs three
Python frames per level (entry, memo, step); the recursion depth this
buys at the default limit is held by ``tests/test_nbe_differential.py``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.budget import DEFAULT_FUEL, Budget
from repro.kernel.memo import context_token
from repro.kernel.nbe import NbeSpec, Thunk, nbe_normalize, nbe_whnf, read_back
from repro.kernel.state import current_state
from repro.kernel.substitution import subst

__all__ = [
    "head_reducts",
    "normalize",
    "normalize_counting",
    "normalize_subst",
    "reducts",
    "whnf",
    "whnf_subst",
    "whnf_value",
]


def _memoized(spec: NbeSpec, ctx: Any, term: Any, budget: Budget, kind: str,
              compute: Callable) -> Any:
    """Run ``compute(spec, ctx, term, budget)`` through the normalization memo.

    The one definition of the memo discipline (token, fuel-replaying
    lookup, store) behind every wrapper here, so no engine can
    desynchronize on it.
    """
    cache = current_state().normalization
    token = context_token(ctx)
    hit = cache.lookup(kind, term, token)
    if hit is not None:
        result, steps = hit
        budget.charge(steps)
        return result
    before = budget.spent
    result = compute(spec, ctx, term, budget)
    cache.store(kind, term, token, result, budget.spent - before)
    return result


def _head_normal(spec: NbeSpec, ctx: Any, term: Any) -> bool:
    """Is ``term`` weak-head normal without a memo probe?

    A neutral variable needs one context probe; a class outside
    ``spec.active`` cannot reduce at the head.
    """
    if type(term) is spec.var_cls:
        binding = ctx.lookup(term.name)
        return binding is None or binding.definition is None
    return not isinstance(term, spec.active)


def _normal(spec: NbeSpec, ctx: Any, term: Any) -> bool:
    """Is ``term`` its own normal form (a leaf, or a variable with no δ)?"""
    if isinstance(term, spec.trivial):
        return True
    if type(term) is spec.var_cls:
        binding = ctx.lookup(term.name)
        return binding is None or binding.definition is None
    return False


def whnf(spec: NbeSpec, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
    """Weak-head normal form on the NbE engine, memoized with fuel replay."""
    if budget is None:
        budget = Budget()
    if _head_normal(spec, ctx, term):
        return term
    return _memoized(spec, ctx, term, budget, spec.whnf_kind, nbe_whnf)


def whnf_value(spec: NbeSpec, ctx: Any, value: Any, budget: Budget) -> Any:
    """:func:`whnf` of a type value (:func:`repro.kernel.nbe.glue`).

    A value whose head is a type or data constructor is weak-head normal
    already and is returned as is, its delayed substitution and
    instantiation frames still pending.  Three kinds of head are read back
    and reduced as syntax instead, so the fuel spent is exactly that of
    reducing the substituted term: an elimination or ``let``, a λ (CC) and
    a closure (CC-CC), the last two because conversion's η-rules inspect
    them as syntax.
    """
    if type(value) is not Thunk:
        return whnf(spec, ctx, value, budget)
    node = value.term
    while type(node) is Thunk:
        node = node.term
    head = type(node)
    if head in spec.tags or head is spec.lam_cls or head is spec.clo_cls:
        return whnf(spec, ctx, read_back(spec, value), budget)
    return value


def normalize(spec: NbeSpec, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
    """Full normal form on the NbE engine, memoized with fuel replay."""
    if budget is None:
        budget = Budget()
    if _normal(spec, ctx, term):
        return term
    return nbe_normalize(spec, ctx, term, budget, current_state().normalization,
                         spec.nf_kind)


def whnf_subst(spec: NbeSpec, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
    """:func:`whnf` on the substitution engine (the differential oracle)."""
    if budget is None:
        budget = Budget()
    if _head_normal(spec, ctx, term):
        return term
    return _memoized(spec, ctx, term, budget, spec.whnf_subst_kind, _whnf)


def normalize_subst(spec: NbeSpec, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
    """:func:`normalize` on the substitution engine (the counting oracle)."""
    if budget is None:
        budget = Budget()
    if _normal(spec, ctx, term):
        return term
    return _memoized(spec, ctx, term, budget, spec.nf_subst_kind, _normalize)


def normalize_counting(spec: NbeSpec, ctx: Any, term: Any,
                       fuel: int = DEFAULT_FUEL) -> tuple[Any, int]:
    """:func:`normalize_subst`, also reporting the reduction steps taken."""
    budget = Budget(remaining=fuel)
    result = normalize_subst(spec, ctx, term, budget)
    return result, budget.spent


def _whnf(spec: NbeSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    while True:
        cls = type(term)
        if cls is spec.var_cls:
            binding = ctx.lookup(term.name)
            if binding is None or binding.definition is None:
                return term
            budget.spend()
            term = binding.definition
            continue
        if cls is spec.let_cls:
            budget.spend()
            term = subst(spec.lang, term.body, {term.name: term.bound})
            continue
        attr = spec.scrutinee.get(cls)
        if attr is None:
            return term
        scrutinee = getattr(term, attr)
        head = whnf_subst(spec, ctx, scrutinee, budget)
        code = None
        if type(head) is spec.clo_cls and cls is spec.app_cls:
            code = whnf_subst(spec, ctx, head.code, budget)
        reduct = _contract(spec, term, head, code, budget.spend)
        if reduct is not None:
            term = reduct
            continue
        if code is not None and code is not head.code:
            head = spec.clo_cls(code, head.env)
        if head is scrutinee:
            return term
        fields = spec.lang.specs[cls].field_order
        return cls(*[head if name == attr else getattr(term, name) for name in fields])


def _contract(spec: NbeSpec, term: Any, head: Any, code: Any, spend: Callable) -> Any:
    """The contractum of eliminator ``term`` whose scrutinee is ``head``.

    None when no axiom fires (the eliminator is stuck).  ``code`` is the
    code position of a closure ``head`` as exposed, which CC-CC β reads.
    ``spend`` runs once an axiom fires, before the contractum is built, so
    fuel runs out before a contraction draws any fresh name.
    """
    cls, kind = type(term), type(head)
    if cls is spec.app_cls:
        if kind is spec.lam_cls:
            spend()
            return subst(spec.lang, head.body, {head.name: term.arg})
        if kind is spec.clo_cls and type(code) is spec.codelam_cls:
            spend()
            # Environment and argument are substituted in *parallel*:
            # sequential application would let the second capture free
            # variables of the environment that share the argument
            # binder's name (the hazard the [Clo] typing rule guards
            # against by renaming).  When the code shadows ``env_name``
            # with ``arg_name``, the argument wins, as ``CodeLam`` scopes.
            return subst(spec.lang, code.body, {code.env_name: head.env, code.arg_name: term.arg})
    elif cls is spec.fst_cls or cls is spec.snd_cls:
        if kind is spec.pair_cls:
            spend()
            return head.fst_val if cls is spec.fst_cls else head.snd_val
    elif cls is spec.if_cls:
        if kind is spec.boollit_cls:
            spend()
            return term.then_branch if head.value else term.else_branch
    elif cls is spec.natelim_cls:
        if kind is spec.zero_cls:
            spend()
            return term.base
        if kind is spec.succ_cls:
            spend()
            recur = cls(term.motive, term.base, term.step, head.pred)
            return spec.app_cls(spec.app_cls(term.step, head.pred), recur)
    return None


def _free() -> None:
    """The ``spend`` of the one-step relation, which has no budget."""


def _normalize(spec: NbeSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    term = whnf_subst(spec, ctx, term, budget)
    node = spec.lang.specs[type(term)]
    if not node.children:
        return term
    args = [getattr(term, name) for name in node.field_order]
    depth, scope, previous = 0, ctx, None
    for child, slot in zip(node.children, node.child_slots):
        while depth < len(child.binders):
            scope = scope.extend(getattr(term, child.binders[depth]), previous)
            depth += 1
        previous = args[slot]
        args[slot] = normalize_subst(spec, scope, previous, budget)
    return type(term)(*args)


# --------------------------------------------------------------------------
# The one-step relation, explicitly.
# --------------------------------------------------------------------------


def head_reducts(spec: NbeSpec, ctx: Any, term: Any) -> list[Any]:
    """All results of applying a reduction *axiom* at the root of ``term``.

    Purely syntactic except for δ, which consults ``ctx`` for definitions.
    At most one axiom ever applies per node, so the list has length ≤ 1; a
    list keeps the signature uniform with :func:`reducts`.
    """
    cls = type(term)
    if cls is spec.var_cls:
        binding = ctx.lookup(term.name)
        return [] if binding is None or binding.definition is None else [binding.definition]
    if cls is spec.let_cls:
        return [subst(spec.lang, term.body, {term.name: term.bound})]
    attr = spec.scrutinee.get(cls)
    if attr is None:
        return []
    head = getattr(term, attr)
    code = head.code if type(head) is spec.clo_cls else None
    reduct = _contract(spec, term, head, code, _free)
    return [] if reduct is None else [reduct]


def reducts(spec: NbeSpec, ctx: Any, term: Any) -> list[Any]:
    """All one-step reducts of ``term`` (contextual closure of the axioms).

    This enumerates the full relation ``Γ ⊢ e ⊲ e′``, which the metatheory
    properties (preservation of reduction, subject reduction) quantify over.
    """
    results = head_reducts(spec, ctx, term)
    node = spec.lang.specs[type(term)]
    cls = type(term)
    args = [getattr(term, name) for name in node.field_order]
    depth, scope, previous = 0, ctx, None
    for child, slot in zip(node.children, node.child_slots):
        while depth < len(child.binders):
            if cls is spec.let_cls:
                scope = scope.define(term.name, term.bound, term.annot)
            else:
                scope = scope.extend(getattr(term, child.binders[depth]), previous)
            depth += 1
        previous = args[slot]
        for reduct in reducts(spec, scope, previous):
            args[slot] = reduct
            results.append(cls(*args))
        args[slot] = previous
    return results
