"""The CC-CC type checker (paper Figure 7).

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
predicative at □.  Everything else is inherited from CC.

**Types are checked as values.**  Internally every judgment synthesizes a
*glued type value* (:func:`repro.kernel.nbe.glue`): syntax paired with a
delayed substitution.  The instantiations of [Clo], [App], [Let], [Pair]
and [Snd] each add one environment entry instead of rebuilding the type
with ``subst1``, conversion (:func:`repro.cccc.equiv.equivalent`) reads
values back lazily as it descends, and a value becomes syntax only where
syntax is required: a [Code] result, an error message, and the public
``infer``/``check``/``infer_universe`` results (read back once per
judgment, memoized on the value).  Weak-head reduction of a value
reduces exactly the substituted term, so fuel matches the substitution
checker, which :mod:`repro.cccc.typecheck_subst` keeps as the
differential reference.

Judgment-level memoization (:mod:`repro.kernel.judgment`) happens only at
the public ``infer``/``check``/``infer_universe`` entries, per (subject
identity, context path key) with exact fuel replay, under ``"cccc.*.nbe"``
kinds the reference checker never reads.  Internal judgments are not
memoized: closure conversion emits fresh trees whose nodes are each
checked once under one context, so a per-node probe would never hit.
Failures are never cached, so errors re-derive identically.
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
    cached_free_vars,
)
from repro.cccc.context import Context
from repro.cccc.equiv import equivalent
from repro.cccc.pretty import pretty
from repro.cccc.reduce import _NBE, Budget, read_value, whnf, whnf_value
from repro.common.errors import TypeCheckError
from repro.common.names import fresh
from repro.kernel.judgment import judgment_cache
from repro.kernel.nbe import Thunk, glue, glue_instantiate, value_names

__all__ = ["check", "check_context", "infer", "infer_universe", "well_typed"]

# Shared leaf instances.  Equivalence memo keys are identity-based, so
# passing one stable object for the ubiquitous ground types makes those
# entries hittable instead of pinning a fresh leaf term per call.
_STAR = Star()
_BOX = Box()
_UNIT = Unit()
_NAT = Nat()
_BOOL = Bool()
_ZERO = Zero()

_EMPTY_ENV: dict = {}


def infer(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Synthesize the type of ``term`` under ``ctx`` (judgment Γ ⊢ e : t)."""
    if budget is None:
        budget = Budget()
    return _memoized(
        "cccc.infer.nbe", ctx, term, None, budget,
        lambda: read_value(_infer_value(ctx, term, budget)),
    )


def _memoized(kind: str, ctx: Context, subject: Term, extra, budget: Budget, judge):
    """``judge()``, the judgment on ``(ctx, subject, extra)``, through the typing memo.

    The checker's only typing-memo probe, made once per public call.
    """
    cache = judgment_cache()
    key = cache.typing_key(ctx)
    hit = cache.lookup(kind, subject, extra, key)
    if hit is not None:
        verdict, steps = hit
        budget.charge(steps)
        return verdict
    before = budget.spent
    verdict = judge()
    cache.store(kind, subject, extra, key, verdict, budget.spent - before)
    return verdict


def _view(value) -> tuple[Term, dict]:
    """A weak-head value as ``(node, delayed substitution)``."""
    if type(value) is Thunk:
        return value.term, value.env
    return value, _EMPTY_ENV


def _bind(env: dict, name: str, replacement: Term) -> dict:
    """``env`` extended (in parallel) with ``name ↦ replacement``."""
    extended = dict(env)
    extended[name] = Thunk(replacement, _EMPTY_ENV)
    return extended


def _infer_value(ctx: Context, term: Term, budget: Budget):
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
        case Box():
            raise TypeCheckError("□ has no type (it is not a valid term)")
        case Pi(name, domain, codomain):
            _infer_universe(ctx, domain, budget)
            return _infer_universe(ctx.extend(name, domain), codomain, budget)
        case CodeType(env_name, env_type, arg_name, arg_type, result):
            _infer_universe(ctx, env_type, budget)
            env_ctx = ctx.extend(env_name, env_type)
            _infer_universe(env_ctx, arg_type, budget)
            arg_ctx = env_ctx.extend(arg_name, arg_type)
            return _infer_universe(arg_ctx, result, budget)  # [T-Code-⋆] / [T-Code-□]
        case CodeLam(env_name, env_type, arg_name, arg_type, _body):
            result = read_value(_code_body(term, budget))
            return CodeType(env_name, env_type, arg_name, arg_type, result)
        case Clo(code, env):
            if type(code) is CodeLam:
                # Literal code (all closure-converted output): build the
                # closure type from the body's type value directly, so no
                # [Code] result is ever read back on this path.
                body_type = _code_body(code, budget)
                _check(ctx, env, code.env_type, budget)
                closure_type = _instantiate_code(code, body_type, env)
                if closure_type is not None:
                    return closure_type
                result = read_value(body_type)
                code_type = CodeType(
                    code.env_name, code.env_type, code.arg_name, code.arg_type, result
                )
                sigma = _EMPTY_ENV
            else:
                code_type, sigma = _view(whnf_value(ctx, _infer_value(ctx, code, budget), budget))
                if not isinstance(code_type, CodeType):
                    raise TypeCheckError(
                        f"closure over non-code of type {pretty(read_value(code_type))}"
                    ).with_note(f"checking {pretty(term)}")
                _check(ctx, env, glue(_NBE, code_type.env_type, sigma), budget)
            # [Clo]: Π x : A[e′/x′]. B[e′/x′] — one delayed binding.  The
            # Π binder x shadows the pending substitution in B, and reading
            # back renames it if e′ mentions a variable named x.
            closure_type = Pi(code_type.arg_name, code_type.arg_type, code_type.result)
            return glue(_NBE, closure_type, _bind(sigma, code_type.env_name, env))
        case App(fn, arg):
            fn_type, sigma = _view(whnf_value(ctx, _infer_value(ctx, fn, budget), budget))
            if not isinstance(fn_type, Pi):
                raise TypeCheckError(
                    f"application head has non-Π type {pretty(read_value(fn_type))}"
                ).with_note(f"checking {pretty(term)}")
            _check(ctx, arg, glue(_NBE, fn_type.domain, sigma), budget)
            return glue(_NBE, fn_type.codomain, _bind(sigma, fn_type.name, arg))
        case Let(name, bound, annot, body):
            _infer_universe(ctx, annot, budget)
            _check(ctx, bound, annot, budget)
            body_type = _infer_value(ctx.define(name, bound, annot), body, budget)
            return glue_instantiate(_NBE, body_type, name, bound)
        case Sigma(name, first, second):
            first_universe = _infer_universe(ctx, first, budget)
            second_universe = _infer_universe(ctx.extend(name, first), second, budget)
            if isinstance(first_universe, Star) and isinstance(second_universe, Star):
                return Star()
            return Box()
        case Pair(fst_val, snd_val, annot):
            _infer_universe(ctx, annot, budget)
            annot_whnf = whnf(ctx, annot, budget)
            if not isinstance(annot_whnf, Sigma):
                raise TypeCheckError(
                    f"pair annotation {pretty(annot)} is not a Σ type"
                ).with_note(f"checking {pretty(term)}")
            _check(ctx, fst_val, annot_whnf.first, budget)
            second = glue(_NBE, annot_whnf.second, _bind(_EMPTY_ENV, annot_whnf.name, fst_val))
            _check(ctx, snd_val, second, budget)
            return annot
        case Fst(pair):
            pair_type, sigma = _view(whnf_value(ctx, _infer_value(ctx, pair, budget), budget))
            if not isinstance(pair_type, Sigma):
                raise TypeCheckError(
                    f"fst of non-Σ type {pretty(read_value(pair_type))}"
                ).with_note(f"checking {pretty(term)}")
            return glue(_NBE, pair_type.first, sigma)
        case Snd(pair):
            pair_type, sigma = _view(whnf_value(ctx, _infer_value(ctx, pair, budget), budget))
            if not isinstance(pair_type, Sigma):
                raise TypeCheckError(
                    f"snd of non-Σ type {pretty(read_value(pair_type))}"
                ).with_note(f"checking {pretty(term)}")
            return glue(_NBE, pair_type.second, _bind(sigma, pair_type.name, Fst(pair)))
        case Succ(pred):
            _check(ctx, pred, _NAT, budget)
            return _NAT
        case If(cond, then_branch, else_branch):
            _check(ctx, cond, _BOOL, budget)
            then_type = _infer_value(ctx, then_branch, budget)
            _check(ctx, else_branch, then_type, budget)
            return then_type
        case NatElim(motive, base, step, target):
            _check_motive(ctx, motive, budget)
            _check(ctx, target, _NAT, budget)
            _check(ctx, base, App(motive, _ZERO), budget)
            _check(ctx, step, _step_type(motive), budget)
            return App(motive, target)
        case _:
            raise TypeCheckError(f"not a CC-CC term: {term!r}")


def _code_body(code: CodeLam, budget: Budget):
    """[Code]'s premises, returning the body's type under ``·, x′:A′, x:A``.

    The body checks under the *empty* environment extended only with the
    two parameters — the static closedness guarantee.
    """
    empty = Context.empty()
    stray = cached_free_vars(code)
    if stray:
        raise TypeCheckError(
            f"code is not closed: free variables {sorted(stray)}"
        ).with_note(f"checking {pretty(code)}")
    _infer_universe(empty, code.env_type, budget)
    env_ctx = empty.extend(code.env_name, code.env_type)
    _infer_universe(env_ctx, code.arg_type, budget)
    arg_ctx = env_ctx.extend(code.arg_name, code.arg_type)
    return _infer_value(arg_ctx, code.body, budget)


def _instantiate_code(code: CodeLam, body_type, env: Term):
    """``Π x:A[e′/x′]. B[e′/x′]`` from the body's type value ``B``, or None.

    The free names of ``B`` are the code's own parameters.  Instantiating
    ``x′`` pushes ``e′`` into the delayed substitution; ``x`` must then be
    captured by the new Π.  A glued value expresses that only when ``B``
    delays neither parameter name and neither ``e′`` nor any pending entry
    mentions ``x``; otherwise the caller reads ``B`` back and takes the
    general path.
    """
    env_name, arg_name = code.env_name, code.arg_name
    if env_name == arg_name or arg_name in cached_free_vars(env):
        return None
    if type(body_type) is Thunk and (env_name in body_type.env or arg_name in body_type.env):
        return None
    env_entry = Thunk(env, _EMPTY_ENV)
    result, sigma = _view(glue_instantiate(_NBE, body_type, env_name, env_entry))
    for entry in sigma.values():
        if arg_name in value_names(_NBE, entry):
            return None
    extended = dict(sigma)
    extended[env_name] = env_entry
    return glue(_NBE, Pi(arg_name, code.arg_type, result), extended)


def _check_motive(ctx: Context, motive: Term, budget: Budget) -> None:
    """Require ``motive : Π _:Nat. U`` for some universe ``U``."""
    motive_type = read_value(whnf_value(ctx, _infer_value(ctx, motive, budget), budget))
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
    _memoized(
        "cccc.check.nbe", ctx, term, expected, budget,
        lambda: _check(ctx, term, expected, budget),
    )


def _check(ctx: Context, term: Term, expected, budget: Budget) -> bool:
    actual = _infer_value(ctx, term, budget)
    if not equivalent(ctx, actual, expected, budget):
        raise TypeCheckError(
            f"type mismatch: term {pretty(term)}\n"
            f"  has type      {pretty(read_value(actual))}\n"
            f"  but expected  {pretty(read_value(expected))}"
        )
    return True


def infer_universe(ctx: Context, type_: Term, budget: Budget | None = None) -> Star | Box:
    """Require ``type_`` to be a type; return its universe (⋆ or □)."""
    if budget is None:
        budget = Budget()
    return _memoized(
        "cccc.universe.nbe", ctx, type_, None, budget,
        lambda: _infer_universe(ctx, type_, budget),
    )


def _infer_universe(ctx: Context, type_: Term, budget: Budget) -> Star | Box:
    sort = whnf_value(ctx, _infer_value(ctx, type_, budget), budget)
    if not isinstance(sort, (Star, Box)):
        raise TypeCheckError(
            f"expected a type but {pretty(type_)} has type {pretty(read_value(sort))}"
        )
    return sort


def well_typed(ctx: Context, term: Term, budget: Budget | None = None) -> bool:
    """Does ``term`` have *some* type under ``ctx``?"""
    if budget is None:
        budget = Budget()
    try:
        _infer_value(ctx, term, budget)
    except TypeCheckError:
        return False
    return True


def check_context(ctx: Context, budget: Budget | None = None) -> None:
    """Check well-formedness ``⊢ Γ``."""
    if budget is None:
        budget = Budget()
    prefix = Context.empty()
    for binding in ctx:
        _infer_universe(prefix, binding.type_, budget)
        if binding.definition is not None:
            _check(prefix, binding.definition, binding.type_, budget)
            prefix = prefix.define(binding.name, binding.definition, binding.type_)
        else:
            prefix = prefix.extend(binding.name, binding.type_)
