"""Reduction and normalization for CC-CC (paper Figure 6).

CC-CC inherits δ, ζ, π1/π2 (and the ground-type ι-rules) from CC.  The β
rule changes: code cannot be applied directly, only through a closure::

    ⟨⟨λ (x′:A′, x:A). e1, e′⟩⟩ e  ⊲β  e1[e′/x′][e/x]

Closures themselves are values; their code position only matters when the
closure is applied.

Like :mod:`repro.cc.reduce`, two engines decide the same relation: the NbE
environment machine of :mod:`repro.kernel.nbe` behind the public
:func:`whnf`/:func:`normalize` (closure β binds environment and argument in
parallel, as ``_beta`` does), and the substitution engine kept verbatim as
:func:`whnf_subst`/:func:`normalize_subst` — the differential oracle and
the counting path of :func:`normalize_counting`.  The engines memoize under
distinct cache kinds and never share entries.
"""

from __future__ import annotations

from repro.cccc.ast import (
    LANGUAGE,
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
    make_app,
)
from repro.cccc.context import Context
from repro.cccc.subst import subst, subst1
from repro.kernel.budget import DEFAULT_FUEL, Budget
from repro.kernel.memo import head_is_weak_normal, memoized_reduction, normalization_cache
from repro.kernel.nbe import NbeSpec, Thunk, nbe_normalize, nbe_whnf, read_back

__all__ = [
    "DEFAULT_FUEL",
    "Budget",
    "head_reducts",
    "normalize",
    "normalize_counting",
    "normalize_subst",
    "reducts",
    "read_value",
    "whnf",
    "whnf_subst",
    "whnf_value",
]


def _beta(clo: Clo, code: CodeLam, arg: Term) -> Term:
    """The closure β-contractum ``body[env/env_name][arg/arg_name]``.

    The two substitutions are performed in *parallel*: sequential
    application would let the second capture free variables of ``clo.env``
    that happen to share the argument binder's name (the same hazard the
    [Clo] typing rule guards against by renaming).  When the code shadows
    ``env_name`` with ``arg_name``, the argument mapping wins, matching the
    binder scoping of ``CodeLam``.
    """
    return subst(code.body, {code.env_name: clo.env, code.arg_name: arg})


#: Node classes a whnf step can act on; anything else is already weak-head
#: normal, so whnf returns it without touching the memo cache.  MUST list
#: exactly the head classes matched by the `_whnf` loop below — a class
#: with a reduction arm missing here would be returned unreduced
#: (tests/test_kernel.py guards this with a no-reducts-in-normal-forms check).
_WHNF_ACTIVE = (Var, Let, App, Fst, Snd, If, NatElim)

#: Leaf classes whose normal form is always themselves (no children, no δ).
_NF_TRIVIAL = (Star, Box, Unit, UnitVal, Bool, BoolLit, Nat, Zero)

#: The NbE wiring for CC-CC: β applies a closure whose code position
#: weak-head-exposes a literal ``CodeLam``.
_NBE = NbeSpec(
    lang=LANGUAGE,
    var_cls=Var,
    let_cls=Let,
    app_cls=App,
    fst_cls=Fst,
    snd_cls=Snd,
    pair_cls=Pair,
    if_cls=If,
    boollit_cls=BoolLit,
    natelim_cls=NatElim,
    zero_cls=Zero,
    succ_cls=Succ,
    trivial=_NF_TRIVIAL,
    clo_cls=Clo,
    codelam_cls=CodeLam,
)


def _whnf_head_normal(ctx: Context, term: Term) -> bool:
    return head_is_weak_normal(ctx, term, Var, _WHNF_ACTIVE)


def _nbe_whnf_compute(ctx: Context, term: Term, budget: Budget) -> Term:
    return nbe_whnf(_NBE, ctx, term, budget)


def whnf(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Reduce ``term`` to weak-head normal form under ``ctx`` (NbE engine).

    Results are memoized per (term identity, context definitions); hits
    replay the originally recorded fuel cost into ``budget``.
    """
    if budget is None:
        budget = Budget()
    if _whnf_head_normal(ctx, term):
        return term
    return memoized_reduction(ctx, term, budget, "cccc.whnf", _nbe_whnf_compute)


def whnf_value(ctx: Context, value, budget: Budget) -> Term | Thunk:
    """:func:`whnf` of a glued type value (:func:`repro.kernel.nbe.glue`).

    A value whose head is a constructor is already weak-head normal and is
    returned as is, its delayed substitution still pending.  Any other head
    (an elimination, or a closure whose code conversion must expose) is
    read back first and reduced as syntax, so the fuel spent is exactly
    that of reducing the substituted term.
    """
    if type(value) is not Thunk:
        return whnf(ctx, value, budget)
    if isinstance(value.term, _WHNF_ACTIVE) or type(value.term) is Clo:
        return whnf(ctx, read_back(_NBE, value), budget)
    return value


def read_value(value) -> Term:
    """The syntax of a glued type value (memoized on the value)."""
    return read_back(_NBE, value)


def whnf_subst(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """:func:`whnf` on the substitution engine (the differential oracle)."""
    if budget is None:
        budget = Budget()
    if _whnf_head_normal(ctx, term):
        return term
    return memoized_reduction(ctx, term, budget, "cccc.whnf.subst", _whnf)


def _whnf(ctx: Context, term: Term, budget: Budget) -> Term:
    while True:
        match term:
            case Var(name):
                binding = ctx.lookup(name)
                if binding is not None and binding.definition is not None:
                    budget.spend()
                    term = binding.definition
                    continue
                return term
            case Let(name, bound, _annot, body):
                budget.spend()
                term = subst1(body, name, bound)
                continue
            case App(fn, arg):
                fn_whnf = whnf_subst(ctx, fn, budget)
                if isinstance(fn_whnf, Clo):
                    code_whnf = whnf_subst(ctx, fn_whnf.code, budget)
                    if isinstance(code_whnf, CodeLam):
                        budget.spend()
                        term = _beta(fn_whnf, code_whnf, arg)
                        continue
                    if code_whnf is not fn_whnf.code:
                        fn_whnf = Clo(code_whnf, fn_whnf.env)
                return term if fn_whnf is fn else App(fn_whnf, arg)
            case Fst(pair):
                pair_whnf = whnf_subst(ctx, pair, budget)
                if isinstance(pair_whnf, Pair):
                    budget.spend()
                    term = pair_whnf.fst_val
                    continue
                return term if pair_whnf is pair else Fst(pair_whnf)
            case Snd(pair):
                pair_whnf = whnf_subst(ctx, pair, budget)
                if isinstance(pair_whnf, Pair):
                    budget.spend()
                    term = pair_whnf.snd_val
                    continue
                return term if pair_whnf is pair else Snd(pair_whnf)
            case If(cond, then_branch, else_branch):
                cond_whnf = whnf_subst(ctx, cond, budget)
                if isinstance(cond_whnf, BoolLit):
                    budget.spend()
                    term = then_branch if cond_whnf.value else else_branch
                    continue
                return term if cond_whnf is cond else If(cond_whnf, then_branch, else_branch)
            case NatElim(motive, base, step, target):
                target_whnf = whnf_subst(ctx, target, budget)
                if isinstance(target_whnf, Zero):
                    budget.spend()
                    term = base
                    continue
                if isinstance(target_whnf, Succ):
                    budget.spend()
                    pred = target_whnf.pred
                    term = make_app(step, pred, NatElim(motive, base, step, pred))
                    continue
                if target_whnf is target:
                    return term
                return NatElim(motive, base, step, target_whnf)
            case _:
                return term


def normalize(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Fully normalize ``term`` under ``ctx`` (NbE engine).

    Environment-independent subcomputations are memoized per (term
    identity, context definitions) with fuel replay on hits.
    """
    if budget is None:
        budget = Budget()
    if isinstance(term, _NF_TRIVIAL):
        return term
    if isinstance(term, Var):
        binding = ctx.lookup(term.name)
        if binding is None or binding.definition is None:
            return term
    return nbe_normalize(_NBE, ctx, term, budget, normalization_cache(), "cccc.nf")


def normalize_subst(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """:func:`normalize` on the substitution engine (the counting oracle)."""
    if budget is None:
        budget = Budget()
    if isinstance(term, _NF_TRIVIAL):
        return term
    if isinstance(term, Var):
        binding = ctx.lookup(term.name)
        if binding is None or binding.definition is None:
            return term
    return memoized_reduction(ctx, term, budget, "cccc.nf.subst", _normalize)


def _normalize(ctx: Context, term: Term, budget: Budget) -> Term:
    term = whnf_subst(ctx, term, budget)
    match term:
        case Pi(name, domain, codomain):
            inner = ctx.extend(name, domain)
            return Pi(name, normalize_subst(ctx, domain, budget), normalize_subst(inner, codomain, budget))
        case CodeType(env_name, env_type, arg_name, arg_type, result):
            env_ctx = ctx.extend(env_name, env_type)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            return CodeType(
                env_name,
                normalize_subst(ctx, env_type, budget),
                arg_name,
                normalize_subst(env_ctx, arg_type, budget),
                normalize_subst(arg_ctx, result, budget),
            )
        case CodeLam(env_name, env_type, arg_name, arg_type, body):
            env_ctx = ctx.extend(env_name, env_type)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            return CodeLam(
                env_name,
                normalize_subst(ctx, env_type, budget),
                arg_name,
                normalize_subst(env_ctx, arg_type, budget),
                normalize_subst(arg_ctx, body, budget),
            )
        case Clo(code, env):
            return Clo(normalize_subst(ctx, code, budget), normalize_subst(ctx, env, budget))
        case App(fn, arg):
            return App(normalize_subst(ctx, fn, budget), normalize_subst(ctx, arg, budget))
        case Sigma(name, first, second):
            inner = ctx.extend(name, first)
            return Sigma(name, normalize_subst(ctx, first, budget), normalize_subst(inner, second, budget))
        case Pair(fst_val, snd_val, annot):
            return Pair(
                normalize_subst(ctx, fst_val, budget),
                normalize_subst(ctx, snd_val, budget),
                normalize_subst(ctx, annot, budget),
            )
        case Fst(pair):
            return Fst(normalize_subst(ctx, pair, budget))
        case Snd(pair):
            return Snd(normalize_subst(ctx, pair, budget))
        case If(cond, then_branch, else_branch):
            return If(
                normalize_subst(ctx, cond, budget),
                normalize_subst(ctx, then_branch, budget),
                normalize_subst(ctx, else_branch, budget),
            )
        case Succ(pred):
            return Succ(normalize_subst(ctx, pred, budget))
        case NatElim(motive, base, step, target):
            return NatElim(
                normalize_subst(ctx, motive, budget),
                normalize_subst(ctx, base, budget),
                normalize_subst(ctx, step, budget),
                normalize_subst(ctx, target, budget),
            )
        case _:
            return term


def normalize_counting(ctx: Context, term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Normalize and report the number of reduction steps taken."""
    budget = Budget(remaining=fuel)
    result = normalize_subst(ctx, term, budget)
    return result, budget.spent


# --------------------------------------------------------------------------
# The one-step relation.
# --------------------------------------------------------------------------


def head_reducts(ctx: Context, term: Term) -> list[Term]:
    """Results of applying a reduction axiom at the root (≤ 1 result)."""
    match term:
        case Var(name):
            binding = ctx.lookup(name)
            if binding is not None and binding.definition is not None:
                return [binding.definition]
            return []
        case Let(name, bound, _annot, body):
            return [subst1(body, name, bound)]
        case App(Clo(CodeLam() as code, _env) as clo, arg):
            return [_beta(clo, code, arg)]
        case Fst(Pair(fst_val, _snd_val, _annot)):
            return [fst_val]
        case Snd(Pair(_fst_val, snd_val, _annot)):
            return [snd_val]
        case If(BoolLit(value), then_branch, else_branch):
            return [then_branch if value else else_branch]
        case NatElim(_motive, base, _step, Zero()):
            return [base]
        case NatElim(motive, base, step, Succ(pred)):
            return [make_app(step, pred, NatElim(motive, base, step, pred))]
        case _:
            return []


def reducts(ctx: Context, term: Term) -> list[Term]:
    """All one-step reducts (contextual closure of the axioms)."""
    results = list(head_reducts(ctx, term))
    match term:
        case Pi(name, domain, codomain):
            results += [Pi(name, d, codomain) for d in reducts(ctx, domain)]
            inner = ctx.extend(name, domain)
            results += [Pi(name, domain, c) for c in reducts(inner, codomain)]
        case CodeType(env_name, env_type, arg_name, arg_type, result):
            results += [
                CodeType(env_name, t, arg_name, arg_type, result) for t in reducts(ctx, env_type)
            ]
            env_ctx = ctx.extend(env_name, env_type)
            results += [
                CodeType(env_name, env_type, arg_name, t, result)
                for t in reducts(env_ctx, arg_type)
            ]
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            results += [
                CodeType(env_name, env_type, arg_name, arg_type, r)
                for r in reducts(arg_ctx, result)
            ]
        case CodeLam(env_name, env_type, arg_name, arg_type, body):
            results += [
                CodeLam(env_name, t, arg_name, arg_type, body) for t in reducts(ctx, env_type)
            ]
            env_ctx = ctx.extend(env_name, env_type)
            results += [
                CodeLam(env_name, env_type, arg_name, t, body) for t in reducts(env_ctx, arg_type)
            ]
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            results += [
                CodeLam(env_name, env_type, arg_name, arg_type, b) for b in reducts(arg_ctx, body)
            ]
        case Clo(code, env):
            results += [Clo(c, env) for c in reducts(ctx, code)]
            results += [Clo(code, e) for e in reducts(ctx, env)]
        case App(fn, arg):
            results += [App(f, arg) for f in reducts(ctx, fn)]
            results += [App(fn, a) for a in reducts(ctx, arg)]
        case Let(name, bound, annot, body):
            results += [Let(name, b, annot, body) for b in reducts(ctx, bound)]
            results += [Let(name, bound, a, body) for a in reducts(ctx, annot)]
            inner = ctx.define(name, bound, annot)
            results += [Let(name, bound, annot, b) for b in reducts(inner, body)]
        case Sigma(name, first, second):
            results += [Sigma(name, f, second) for f in reducts(ctx, first)]
            inner = ctx.extend(name, first)
            results += [Sigma(name, first, s) for s in reducts(inner, second)]
        case Pair(fst_val, snd_val, annot):
            results += [Pair(f, snd_val, annot) for f in reducts(ctx, fst_val)]
            results += [Pair(fst_val, s, annot) for s in reducts(ctx, snd_val)]
            results += [Pair(fst_val, snd_val, a) for a in reducts(ctx, annot)]
        case Fst(pair):
            results += [Fst(p) for p in reducts(ctx, pair)]
        case Snd(pair):
            results += [Snd(p) for p in reducts(ctx, pair)]
        case If(cond, then_branch, else_branch):
            results += [If(c, then_branch, else_branch) for c in reducts(ctx, cond)]
            results += [If(cond, t, else_branch) for t in reducts(ctx, then_branch)]
            results += [If(cond, then_branch, e) for e in reducts(ctx, else_branch)]
        case Succ(pred):
            results += [Succ(p) for p in reducts(ctx, pred)]
        case NatElim(motive, base, step, target):
            results += [NatElim(m, base, step, target) for m in reducts(ctx, motive)]
            results += [NatElim(motive, b, step, target) for b in reducts(ctx, base)]
            results += [NatElim(motive, base, s, target) for s in reducts(ctx, step)]
            results += [NatElim(motive, base, step, t) for t in reducts(ctx, target)]
        case _:
            pass
    return results
