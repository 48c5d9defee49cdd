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

``Code`` formation ([T-Code]) mirrors Π.  Every other rule is CC's,
written once in :mod:`repro.kernel.typing`; this module is CC-CC's
:class:`~repro.kernel.typing.TypingSpec`: its constants (CC's, ``Unit``
and ``()``), the rules above, and its memo scope (public entries only).
Fuel matches :mod:`repro.cccc.typecheck_subst`, the differential reference.
"""

from __future__ import annotations

from repro.cccc.ast import Bool, BoolLit, Box, Clo, CodeLam, CodeType, Nat, Pi, Sigma, Star
from repro.cccc.ast import Unit, UnitVal, Zero, free_vars
from repro.cccc.context import Context
from repro.cccc.equiv import equivalent
from repro.cccc.pretty import pretty
from repro.cccc.reduce import _NBE, Budget
from repro.common.errors import TypeCheckError
from repro.kernel.nbe import glue, glue_node, read_back, view
from repro.kernel.reduction import whnf_value
from repro.kernel.typing import TypingSpec, bind, check_value, infer_value, universe

__all__ = ["check", "check_context", "infer", "infer_universe", "well_typed"]

_EMPTY_ENV: dict = {}


def _code_type(spec: TypingSpec, ctx: Context, term: CodeType, budget: Budget):
    universe(spec, ctx, term.env_type, budget)
    env_ctx = ctx.extend(term.env_name, term.env_type)
    universe(spec, env_ctx, term.arg_type, budget)
    arg_ctx = env_ctx.extend(term.arg_name, term.arg_type)
    return universe(spec, arg_ctx, term.result, budget)  # [T-Code-⋆] / [T-Code-□]


def _code(spec: TypingSpec, ctx: Context, term: CodeLam, budget: Budget):
    body_type = infer_value(spec, _code_context(spec, term, budget), term.body, budget)
    result = read_back(_NBE, body_type)
    return CodeType(term.env_name, term.env_type, term.arg_name, term.arg_type, result)  # [Code]


def _clo(spec: TypingSpec, ctx: Context, term: Clo, budget: Budget):
    code, env = term.code, term.env
    if type(code) is CodeLam:
        # Literal code (all closure-converted output): the body's type value
        # lives in the code's context ·, x′, x; the closure type binds its
        # level x under the new Π and instantiates its level x′ by one
        # frame, so nothing is read back or searched.
        body_type = infer_value(spec, _code_context(spec, code, budget), code.body, budget)
        check_value(spec, ctx, env, code.env_type, budget)
        closure_type = Pi(code.arg_name, code.arg_type, body_type)
        return glue_node(_NBE, closure_type, bind(_EMPTY_ENV, code.env_name, env))
    code_type = whnf_value(_NBE, ctx, infer_value(spec, ctx, code, budget), budget)
    code_type, sigma = view(_NBE, code_type)
    if not isinstance(code_type, CodeType):
        raise TypeCheckError(
            f"closure over non-code of type {pretty(read_back(_NBE, code_type))}"
        ).with_note(f"checking {pretty(term)}")
    check_value(spec, ctx, env, glue(_NBE, code_type.env_type, sigma), budget)
    # [Clo]: Π x : A[e′/x′]. B[e′/x′] — one delayed binding.  The Π binder
    # x shadows the pending substitution in B, and reading back renames it
    # if e′ mentions a variable named x.
    closure_type = Pi(code_type.arg_name, code_type.arg_type, code_type.result)
    return glue(_NBE, closure_type, bind(sigma, code_type.env_name, env))


def _code_context(spec: TypingSpec, code: CodeLam, budget: Budget) -> Context:
    """[Code]'s premises and its body's context ``·, x′:A′, x:A``: the *empty*
    context extended only with the two parameters (the closedness guarantee)."""
    stray = free_vars(code)
    if stray:
        raise TypeCheckError(
            f"code is not closed: free variables {sorted(stray)}"
        ).with_note(f"checking {pretty(code)}")
    empty = Context.empty()
    universe(spec, empty, code.env_type, budget)
    env_ctx = empty.extend(code.env_name, code.env_type)
    universe(spec, env_ctx, code.arg_type, budget)
    return env_ctx.extend(code.arg_name, code.arg_type)


_STAR = Star()

_SPEC = TypingSpec(
    nbe=_NBE,
    axioms={Star: Box(), Unit: _STAR, Bool: _STAR, Nat: _STAR,
            UnitVal: Unit(), BoolLit: Bool(), Zero: Nat()},
    rules={CodeType: _code_type, CodeLam: _code, Clo: _clo},
    name="CC-CC",
    memo_kinds=("cccc.infer.nbe", "cccc.check.nbe", "cccc.universe.nbe"),
    memo_every_judgment=False,
    pi_cls=Pi, sigma_cls=Sigma,
    pretty=pretty, equivalent=equivalent,
)


infer = _SPEC.infer
check = _SPEC.check
infer_universe = _SPEC.infer_universe
well_typed = _SPEC.well_typed
check_context = _SPEC.check_context
