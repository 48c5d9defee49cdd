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
from repro.cccc.ast import Term, Unit, UnitVal, Zero, cached_free_vars
from repro.cccc.context import Context
from repro.cccc.equiv import equivalent
from repro.cccc.pretty import pretty
from repro.cccc.reduce import _NBE, Budget
from repro.common.errors import TypeCheckError
from repro.kernel.nbe import Thunk, glue, glue_instantiate, value_names
from repro.kernel.reduction import read_value, whnf_value
from repro.kernel.typing import TypingSpec, bind, check_value, infer_value, universe, view

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
    result = read_value(_NBE, body_type)
    return CodeType(term.env_name, term.env_type, term.arg_name, term.arg_type, result)  # [Code]


def _clo(spec: TypingSpec, ctx: Context, term: Clo, budget: Budget):
    code, env = term.code, term.env
    if type(code) is CodeLam:
        # Literal code (all closure-converted output): build the closure
        # type from the body's type value directly, so no [Code] result is
        # ever read back on this path.
        body_type = infer_value(spec, _code_context(spec, code, budget), code.body, budget)
        check_value(spec, ctx, env, code.env_type, budget)
        closure_type = _instantiate_code(code, body_type, env)
        if closure_type is not None:
            return closure_type
        result = read_value(_NBE, body_type)
        code_type = CodeType(code.env_name, code.env_type, code.arg_name, code.arg_type, result)
        sigma = _EMPTY_ENV
    else:
        code_type, sigma = view(whnf_value(_NBE, ctx, infer_value(spec, ctx, code, budget), budget))
        if not isinstance(code_type, CodeType):
            raise TypeCheckError(
                f"closure over non-code of type {pretty(read_value(_NBE, code_type))}"
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
    stray = cached_free_vars(code)
    if stray:
        raise TypeCheckError(
            f"code is not closed: free variables {sorted(stray)}"
        ).with_note(f"checking {pretty(code)}")
    empty = Context.empty()
    universe(spec, empty, code.env_type, budget)
    env_ctx = empty.extend(code.env_name, code.env_type)
    universe(spec, env_ctx, code.arg_type, budget)
    return env_ctx.extend(code.arg_name, code.arg_type)


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
    result, sigma = view(glue_instantiate(_NBE, body_type, env_name, env_entry))
    for entry in sigma.values():
        if arg_name in value_names(_NBE, entry):
            return None
    extended = dict(sigma)
    extended[env_name] = env_entry
    return glue(_NBE, Pi(arg_name, code.arg_type, result), extended)


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
