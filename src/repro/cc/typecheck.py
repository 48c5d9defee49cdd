"""The CC type checker (paper Figures 3 and 4).

Synthesis-style: every CC term carries enough annotations for its type to
be computed, so :func:`infer` implements the typing judgment directly and
:func:`check` is inference followed by the [Conv] rule (definitional
equivalence of the inferred and expected types).

Universe discipline (Section 2):

* ``⋆ : □``; ``□`` has no type.
* Π is impredicative in ``⋆`` ([Prod-⋆]: the universe of ``Π x:A. B`` is
  the universe of ``B``) and predicative at ``□``.
* Σ is small only when both components are small ([Sig-⋆]); otherwise it
  lands in ``□``.  Allowing a large Σ whenever *either* side is large is
  the reading the paper's own environment telescopes (``Σ (A:⋆ …)``
  terminated by the unit type) require; see DESIGN.md §3.

Every judgment is memoized per (term identity, context path key) through
:mod:`repro.kernel.judgment`, with the reduction fuel the original run
spent replayed on every hit — so a single :class:`Budget` threaded through
a checking run observes step counts and fuel exhaustion identical to a
cold-cache run.  The per-node probes hit on hash-consed input, where one
subterm object recurs under one context.  Only successful judgments are
cached; failures re-derive (and therefore re-raise) from scratch.
:func:`derived_type` reads a stored ``infer`` judgment back without
deriving (or counting a hit): closure conversion takes each λ body's type
from the derivation the source check left behind.
"""

from __future__ import annotations

from repro.cc.ast import (
    App,
    Bool,
    BoolLit,
    Box,
    Fst,
    If,
    Lam,
    Let,
    Nat,
    NatElim,
    Pair,
    Pi,
    Sigma,
    Snd,
    Star,
    Succ,
    Term,
    Var,
    Zero,
)
from repro.cc.context import Context
from repro.cc.equiv import equivalent
from repro.cc.pretty import pretty
from repro.cc.reduce import Budget, whnf
from repro.cc.subst import subst1
from repro.common.errors import TypeCheckError
from repro.common.names import fresh
from repro.kernel.judgment import judgment_cache

__all__ = ["check", "check_context", "derived_type", "infer", "infer_universe", "well_typed"]

# Shared leaf instances.  check/equivalent memo keys are identity-based, so
# passing one stable object for the ubiquitous ground types makes those
# entries hittable instead of pinning a fresh leaf term per call.
_STAR = Star()
_BOX = Box()
_NAT = Nat()
_BOOL = Bool()
_ZERO = Zero()


def infer(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Synthesize the type of ``term`` under ``ctx`` (judgment Γ ⊢ e : A).

    Raises :class:`TypeCheckError` if no type exists.  The returned type is
    not necessarily normal; callers compare with ≡.
    """
    if budget is None:
        budget = Budget()
    # O(1) judgments skip the memo round-trip: a cache entry would cost
    # more than re-deriving the axiom (and replays zero steps either way).
    match term:
        case Var(name):
            binding = ctx.lookup(name)
            if binding is None:
                raise TypeCheckError(f"unbound variable {name!r}")
            return binding.type_  # [Var]
        case Star():
            return _BOX  # [Ax-*]
        case Bool() | Nat():
            return _STAR
        case BoolLit():
            return _BOOL
        case Zero():
            return _NAT
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup("cc.infer", term, None, key)
    if hit is not None:
        result, steps = hit
        budget.charge(steps)
        return result
    before = budget.spent
    result = _infer(ctx, term, budget)
    cache.store("cc.infer", term, None, key, result, budget.spent - before)
    return result


def derived_type(ctx: Context, term: Term) -> Term | None:
    """The type an earlier ``infer(ctx, term)`` derived and memoized, or None.

    A read of the typing memo that derives nothing and counts no hit.  None
    for leaf terms (``infer`` never stores them) and for judgments not made
    under a context with ``ctx``'s path since the memo was last emptied.
    """
    cache = judgment_cache()
    return cache.peek("cc.infer", term, None, cache.typing_key(ctx))


def _infer(ctx: Context, term: Term, budget: Budget) -> Term:
    # Leaf axioms ([Ax-*], [Var], ground types) are decided by infer()'s
    # fast path and never reach this function.
    match term:
        case Box():
            raise TypeCheckError("□ has no type (it is not a valid term)")
        case Pi(name, domain, codomain):
            infer_universe(ctx, domain, budget)
            codomain_universe = infer_universe(ctx.extend(name, domain), codomain, budget)
            return codomain_universe  # [Prod-*] / [Prod-□]
        case Lam(name, domain, body):
            infer_universe(ctx, domain, budget)
            body_type = infer(ctx.extend(name, domain), body, budget)
            return Pi(name, domain, body_type)  # [Lam]
        case App(fn, arg):
            fn_type = whnf(ctx, infer(ctx, fn, budget), budget)
            if not isinstance(fn_type, Pi):
                raise TypeCheckError(
                    f"application head has non-Π type {pretty(fn_type)}"
                ).with_note(f"checking {pretty(term)}")
            check(ctx, arg, fn_type.domain, budget)
            return subst1(fn_type.codomain, fn_type.name, arg)  # [App]
        case Let(name, bound, annot, body):
            infer_universe(ctx, annot, budget)
            check(ctx, bound, annot, budget)
            body_type = infer(ctx.define(name, bound, annot), body, budget)
            return subst1(body_type, name, bound)  # [Let]
        case Sigma(name, first, second):
            first_universe = infer_universe(ctx, first, budget)
            second_universe = infer_universe(ctx.extend(name, first), second, budget)
            if isinstance(first_universe, Star) and isinstance(second_universe, Star):
                return Star()  # [Sig-*]
            return Box()  # [Sig-□]
        case Pair(fst_val, snd_val, annot):
            infer_universe(ctx, annot, budget)
            annot_whnf = whnf(ctx, annot, budget)
            if not isinstance(annot_whnf, Sigma):
                raise TypeCheckError(
                    f"pair annotation {pretty(annot)} is not a Σ type"
                ).with_note(f"checking {pretty(term)}")
            check(ctx, fst_val, annot_whnf.first, budget)
            check(ctx, snd_val, subst1(annot_whnf.second, annot_whnf.name, fst_val), budget)
            return annot  # [Pair]
        case Fst(pair):
            pair_type = whnf(ctx, infer(ctx, pair, budget), budget)
            if not isinstance(pair_type, Sigma):
                raise TypeCheckError(
                    f"fst of non-Σ type {pretty(pair_type)}"
                ).with_note(f"checking {pretty(term)}")
            return pair_type.first  # [Fst]
        case Snd(pair):
            pair_type = whnf(ctx, infer(ctx, pair, budget), budget)
            if not isinstance(pair_type, Sigma):
                raise TypeCheckError(
                    f"snd of non-Σ type {pretty(pair_type)}"
                ).with_note(f"checking {pretty(term)}")
            return subst1(pair_type.second, pair_type.name, Fst(pair))  # [Snd]
        case Succ(pred):
            check(ctx, pred, _NAT, budget)
            return _NAT
        case If(cond, then_branch, else_branch):
            check(ctx, cond, _BOOL, budget)
            then_type = infer(ctx, then_branch, budget)
            check(ctx, else_branch, then_type, budget)
            return then_type
        case NatElim(motive, base, step, target):
            _check_motive(ctx, motive, budget)
            check(ctx, target, _NAT, budget)
            check(ctx, base, App(motive, _ZERO), budget)
            check(ctx, step, _step_type(motive), budget)
            return App(motive, target)
        case _:
            raise TypeCheckError(f"not a CC term: {term!r}")


def _check_motive(ctx: Context, motive: Term, budget: Budget) -> None:
    """Require ``motive : Π _:Nat. U`` for some universe ``U``."""
    motive_type = whnf(ctx, infer(ctx, motive, budget), budget)
    if not isinstance(motive_type, Pi):
        raise TypeCheckError(f"natelim motive has non-Π type {pretty(motive_type)}")
    if not equivalent(ctx, motive_type.domain, _NAT, budget):
        raise TypeCheckError(
            f"natelim motive domain {pretty(motive_type.domain)} is not Nat"
        )
    inner = ctx.extend(motive_type.name, _NAT)
    codomain = whnf(inner, motive_type.codomain, budget)
    if not isinstance(codomain, (Star, Box)):
        raise TypeCheckError(
            f"natelim motive codomain {pretty(codomain)} is not a universe"
        )


def _step_type(motive: Term) -> Term:
    """The expected type ``Π n:Nat. Π ih:(motive n). motive (succ n)``."""
    n = fresh("n")
    ih = fresh("ih")
    return Pi(n, _NAT, Pi(ih, App(motive, Var(n)), App(motive, Succ(Var(n)))))


def check(ctx: Context, term: Term, expected: Term, budget: Budget | None = None) -> None:
    """Check ``Γ ⊢ term : expected`` (inference + the [Conv] rule)."""
    if budget is None:
        budget = Budget()
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup("cc.check", term, expected, key)
    if hit is not None:
        budget.charge(hit[1])
        return
    before = budget.spent
    actual = infer(ctx, term, budget)
    if not equivalent(ctx, actual, expected, budget):
        raise TypeCheckError(
            f"type mismatch: term {pretty(term)}\n"
            f"  has type      {pretty(actual)}\n"
            f"  but expected  {pretty(expected)}"
        )
    cache.store("cc.check", term, expected, key, True, budget.spent - before)


def infer_universe(ctx: Context, type_: Term, budget: Budget | None = None) -> Star | Box:
    """Require ``type_`` to be a type; return its universe (⋆ or □)."""
    if budget is None:
        budget = Budget()
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup("cc.universe", type_, None, key)
    if hit is not None:
        sort, steps = hit
        budget.charge(steps)
        return sort
    before = budget.spent
    sort = whnf(ctx, infer(ctx, type_, budget), budget)
    if not isinstance(sort, (Star, Box)):
        raise TypeCheckError(
            f"expected a type but {pretty(type_)} has type {pretty(sort)}"
        )
    cache.store("cc.universe", type_, None, key, sort, budget.spent - before)
    return sort


def well_typed(ctx: Context, term: Term, budget: Budget | None = None) -> bool:
    """Convenience predicate: does ``term`` have *some* type under ``ctx``?"""
    try:
        infer(ctx, term, budget)
    except TypeCheckError:
        return False
    return True


def check_context(ctx: Context, budget: Budget | None = None) -> None:
    """Check well-formedness ``⊢ Γ`` (paper Figure 4)."""
    if budget is None:
        budget = Budget()
    prefix = Context.empty()
    for binding in ctx:
        infer_universe(prefix, binding.type_, budget)  # [W-Assum]
        if binding.definition is not None:
            check(prefix, binding.definition, binding.type_, budget)  # [W-Def]
        if binding.definition is None:
            prefix = prefix.extend(binding.name, binding.type_)
        else:
            prefix = prefix.define(binding.name, binding.definition, binding.type_)
