"""The substitution-based CC-CC type checker: the differential reference.

This is the checker :mod:`repro.cccc.typecheck` replaced, kept verbatim
so tests and benchmarks can compare the two: same verdicts, same error
classes, α-equal types and identical fuel.  Each dependent instantiation
here is an eager ``subst1``.  Nothing outside ``tests/`` and
``benchmarks/`` imports it.

The CC-CC type checker (paper Figure 7).

The two rules that carry the weight of the paper:

* **[Code]** — code ``λ (x′:A′, x:A). e`` checks its body in the
  environment ``·, x′:A′, x:A`` — *the empty context extended only with
  the two parameters*.  This is the static, machine-checked guarantee
  that closure conversion produced closed code.

* **[Clo]** — a closure ``⟨⟨e, e′⟩⟩`` where ``e : Code (x′:A′, x:A). B``
  and ``e′ : A′`` has type ``Π x:A[e′/x′]. B[e′/x′]``: the environment is
  substituted into the type, exactly like dependent application.  This is
  what synchronizes the (open) closure type with the (closed) code type
  and makes the translation type preserving.

``Code`` formation ([T-Code-⋆]/[T-Code-□]) mirrors Π: impredicative in ⋆,
predicative at □.  Everything else is inherited from CC — including the
judgment-level memoization of :mod:`repro.kernel.judgment`: every
``infer``/``check``/``infer_universe`` result is cached per (term
identity, context path key) with exact fuel replay into the
threaded :class:`Budget`, and failures are never cached so errors
re-derive identically.
"""

from __future__ import annotations

from repro.cccc.ast import (
    App,
    Bool,
    BoolLit,
    Box,
    Clo,
    CodeLam,
    CodeType,
    Fst,
    If,
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
    Unit,
    UnitVal,
    Var,
    Zero,
    free_vars,
)
from repro.cccc.context import Context
from repro.cccc.equiv import equivalent
from repro.cccc.pretty import pretty
from repro.cccc.reduce import Budget, whnf
from repro.cccc.substitution import rename, subst1
from repro.common.errors import TypeCheckError
from repro.common.names import fresh
from repro.kernel.judgment import judgment_cache

__all__ = ["check", "check_context", "infer", "infer_universe", "well_typed"]

# Shared leaf instances.  check/equivalent memo keys are identity-based, so
# passing one stable object for the ubiquitous ground types makes those
# entries hittable instead of pinning a fresh leaf term per call.
_STAR = Star()
_BOX = Box()
_UNIT = Unit()
_NAT = Nat()
_BOOL = Bool()
_ZERO = Zero()


def infer(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Synthesize the type of ``term`` under ``ctx`` (judgment Γ ⊢ e : t)."""
    if budget is None:
        budget = Budget()
    # O(1) judgments skip the memo round-trip: a cache entry would cost
    # more than re-deriving the axiom (and replays zero steps either way).
    match term:
        case Var(name):
            binding = ctx.lookup(name)
            if binding is None:
                raise TypeCheckError(f"unbound variable {name!r}")
            return binding.type_
        case Star():
            return _BOX
        case Unit() | Bool() | Nat():
            return _STAR
        case UnitVal():
            return _UNIT
        case BoolLit():
            return _BOOL
        case Zero():
            return _NAT
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup("cccc.infer", term, None, key)
    if hit is not None:
        result, steps = hit
        budget.charge(steps)
        return result
    before = budget.spent
    result = _infer(ctx, term, budget)
    cache.store("cccc.infer", term, None, key, result, budget.spent - before)
    return result


def _infer(ctx: Context, term: Term, budget: Budget) -> Term:
    # Leaf axioms (⋆, [Var], Unit and the ground types) are decided by
    # infer()'s fast path and never reach this function.
    match term:
        case Box():
            raise TypeCheckError("□ has no type (it is not a valid term)")
        case Pi(name, domain, codomain):
            infer_universe(ctx, domain, budget)
            return infer_universe(ctx.extend(name, domain), codomain, budget)
        case CodeType(env_name, env_type, arg_name, arg_type, result):
            infer_universe(ctx, env_type, budget)
            env_ctx = ctx.extend(env_name, env_type)
            infer_universe(env_ctx, arg_type, budget)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            return infer_universe(arg_ctx, result, budget)  # [T-Code-⋆] / [T-Code-□]
        case CodeLam(env_name, env_type, arg_name, arg_type, body):
            # [Code]: the body checks under the *empty* environment — this
            # is the static closedness guarantee.
            empty = Context.empty()
            stray = free_vars(term)
            if stray:
                raise TypeCheckError(
                    f"code is not closed: free variables {sorted(stray)}"
                ).with_note(f"checking {pretty(term)}")
            infer_universe(empty, env_type, budget)
            env_ctx = empty.extend(env_name, env_type)
            infer_universe(env_ctx, arg_type, budget)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            result = infer(arg_ctx, body, budget)
            return CodeType(env_name, env_type, arg_name, arg_type, result)
        case Clo(code, env):
            code_type = whnf(ctx, infer(ctx, code, budget), budget)
            if not isinstance(code_type, CodeType):
                raise TypeCheckError(
                    f"closure over non-code of type {pretty(code_type)}"
                ).with_note(f"checking {pretty(term)}")
            check(ctx, env, code_type.env_type, budget)
            # [Clo]: Π x : A[e′/x′]. B[e′/x′].  Rename the argument binder
            # if the environment value happens to mention a variable with
            # the same name (the substitution is under the Π binder).
            arg_name = code_type.arg_name
            arg_type = code_type.arg_type
            result = code_type.result
            if arg_name in free_vars(env):
                renamed = fresh(arg_name)
                result = rename(result, arg_name, renamed)
                arg_name = renamed
            return Pi(
                arg_name,
                subst1(arg_type, code_type.env_name, env),
                subst1(result, code_type.env_name, env),
            )
        case App(fn, arg):
            fn_type = whnf(ctx, infer(ctx, fn, budget), budget)
            if not isinstance(fn_type, Pi):
                raise TypeCheckError(
                    f"application head has non-Π type {pretty(fn_type)}"
                ).with_note(f"checking {pretty(term)}")
            check(ctx, arg, fn_type.domain, budget)
            return subst1(fn_type.codomain, fn_type.name, arg)
        case Let(name, bound, annot, body):
            infer_universe(ctx, annot, budget)
            check(ctx, bound, annot, budget)
            body_type = infer(ctx.define(name, bound, annot), body, budget)
            return subst1(body_type, name, bound)
        case Sigma(name, first, second):
            first_universe = infer_universe(ctx, first, budget)
            second_universe = infer_universe(ctx.extend(name, first), second, budget)
            if isinstance(first_universe, Star) and isinstance(second_universe, Star):
                return Star()
            return Box()
        case Pair(fst_val, snd_val, annot):
            infer_universe(ctx, annot, budget)
            annot_whnf = whnf(ctx, annot, budget)
            if not isinstance(annot_whnf, Sigma):
                raise TypeCheckError(
                    f"pair annotation {pretty(annot)} is not a Σ type"
                ).with_note(f"checking {pretty(term)}")
            check(ctx, fst_val, annot_whnf.first, budget)
            check(ctx, snd_val, subst1(annot_whnf.second, annot_whnf.name, fst_val), budget)
            return annot
        case Fst(pair):
            pair_type = whnf(ctx, infer(ctx, pair, budget), budget)
            if not isinstance(pair_type, Sigma):
                raise TypeCheckError(f"fst of non-Σ type {pretty(pair_type)}").with_note(
                    f"checking {pretty(term)}"
                )
            return pair_type.first
        case Snd(pair):
            pair_type = whnf(ctx, infer(ctx, pair, budget), budget)
            if not isinstance(pair_type, Sigma):
                raise TypeCheckError(f"snd of non-Σ type {pretty(pair_type)}").with_note(
                    f"checking {pretty(term)}"
                )
            return subst1(pair_type.second, pair_type.name, Fst(pair))
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
            raise TypeCheckError(f"not a CC-CC term: {term!r}")


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
        raise TypeCheckError(f"natelim motive codomain {pretty(codomain)} is not a universe")


def _step_type(motive: Term) -> Term:
    """``Π n:Nat. Π ih:(motive n). motive (succ n)`` (a closure type here)."""
    n = fresh("n")
    ih = fresh("ih")
    return Pi(n, _NAT, Pi(ih, App(motive, Var(n)), App(motive, Succ(Var(n)))))


def check(ctx: Context, term: Term, expected: Term, budget: Budget | None = None) -> None:
    """Check ``Γ ⊢ term : expected`` (inference + [Conv])."""
    if budget is None:
        budget = Budget()
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup("cccc.check", term, expected, key)
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
    cache.store("cccc.check", term, expected, key, True, budget.spent - before)


def infer_universe(ctx: Context, type_: Term, budget: Budget | None = None) -> Star | Box:
    """Require ``type_`` to be a type; return its universe (⋆ or □)."""
    if budget is None:
        budget = Budget()
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup("cccc.universe", type_, None, key)
    if hit is not None:
        sort, steps = hit
        budget.charge(steps)
        return sort
    before = budget.spent
    sort = whnf(ctx, infer(ctx, type_, budget), budget)
    if not isinstance(sort, (Star, Box)):
        raise TypeCheckError(f"expected a type but {pretty(type_)} has type {pretty(sort)}")
    cache.store("cccc.universe", type_, None, key, sort, budget.spent - before)
    return sort


def well_typed(ctx: Context, term: Term, budget: Budget | None = None) -> bool:
    """Does ``term`` have *some* type under ``ctx``?"""
    try:
        infer(ctx, term, budget)
    except TypeCheckError:
        return False
    return True


def check_context(ctx: Context, budget: Budget | None = None) -> None:
    """Check well-formedness ``⊢ Γ``."""
    if budget is None:
        budget = Budget()
    prefix = Context.empty()
    for binding in ctx:
        infer_universe(prefix, binding.type_, budget)
        if binding.definition is not None:
            check(prefix, binding.definition, binding.type_, budget)
            prefix = prefix.define(binding.name, binding.definition, binding.type_)
        else:
            prefix = prefix.extend(binding.name, binding.type_)
