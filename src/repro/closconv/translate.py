"""The typed closure-conversion translation CC → CC-CC (paper Figure 9).

Every case except functions is a homomorphic walk ([CC-Var], [CC-App],
[CC-Prod], …).  The interesting case is [CC-Lam]::

    (λ x:A. e)⁺ = ⟨⟨ λ (n : Σ(xi:Ai⁺ …), x : let ⟨xi …⟩ = n in A⁺).
                        let ⟨xi …⟩ = n in e⁺,
                     ⟨xi …⟩ as Σ(xi:Ai⁺ …) ⟩⟩
    where  xi : Ai … = FV(λ x:A. e, Π x:A. B, Γ)

The generated code receives its free variables through the environment
tuple ``n``; the pattern lets rebind them both in the *body* and — because
types may mention them — in the argument's *type annotation*.  The
environment tuple ``⟨xi …⟩`` closes over the live variables at the
closure-creation site.

The translation is type-directed (it is defined on typing derivations,
⟦Γ ⊢ e : A⟧): [CC-Lam] needs the body's type ``B`` because the FV
metafunction collects the free variables of the type too.  ``B`` comes
from the derivation the source check already made: the check memoizes
``Γ, x:A ⊢ e : B`` under the body context's extension path, and the body
context built here has the same path whenever it descends from the same
root context along the same binding objects — as it does after
``cc.infer(ctx, term)`` on the ``ctx`` given to :func:`translate`
(:func:`repro.closconv.pipeline.compile_term` checks first).  Only when no
such judgment is memoized — a leaf body, a body rebuilt by α-renaming, a
memo emptied since the check, or a warm check that hit at the root and
never re-derived the body — is ``B`` derived here, which also rejects
ill-typed input up front.

A closed subterm is translated once per session.  Its FV set is empty,
so [CC-Lam] closes its λs over nothing from Γ and its translation does
not depend on ``ctx`` (up to the fresh environment names it draws).
:func:`translate` therefore memoizes every closed non-variable subterm by
identity in the session's ``closconv.closed`` cache, which pins the
source term.  The parser hash-conses its input, so every occurrence of a
closed subterm is one object and yields one CC-CC object: the target is a
DAG, and the CC-CC checker's ``is`` shortcuts, the free-variable walk
and hoisting each visit a shared subterm once.
"""

from __future__ import annotations

from repro import cc, cccc
from repro.cc import typecheck as cc_typecheck
from repro.cc.context import Context as CCContext
from repro.cccc.context import Context as TargetContext
from repro.cccc.ntuple import bind_env, env_sigma, env_tuple
from repro.closconv.fv import dependent_free_vars
from repro.common.errors import TranslationError, TypeCheckError
from repro.common.names import fresh
from repro.kernel.state import current_state

__all__ = ["translate", "translate_context"]


def translate(ctx: CCContext, term: cc.Term) -> cccc.Term:
    """``e⁺``: closure-convert the well-typed CC term ``term`` under ``ctx``.

    A closed non-variable ``term`` is translated once per session and
    every later occurrence of the object returns the same CC-CC object.
    """
    if type(term) is cc.Var or cc.free_vars(term):
        return _translate(ctx, term)
    memo = current_state().dict_cache("closconv.closed")
    found = memo.get(id(term))
    if found is None:
        found = memo[id(term)] = (term, _translate(ctx, term))  # pins the key's term
    return found[1]


def _translate(ctx: CCContext, term: cc.Term) -> cccc.Term:
    match term:
        case cc.Var(name):
            return cccc.Var(name)  # [CC-Var]
        case cc.Star():
            return cccc.Star()  # [CC-*]
        case cc.Box():
            # □ is not a term, but the translation is applied to types and
            # must be total on everything `infer` can return.
            return cccc.Box()
        case cc.Pi(name, domain, codomain):
            return cccc.Pi(  # [CC-Prod-⋆] / [CC-Prod-□]
                name,
                translate(ctx, domain),
                translate(ctx.extend(name, domain), codomain),
            )
        case cc.Lam():
            return _translate_lambda(ctx, term)  # [CC-Lam]
        case cc.App(fn, arg):
            return cccc.App(translate(ctx, fn), translate(ctx, arg))  # [CC-App]
        case cc.Let(name, bound, annot, body):
            return cccc.Let(  # [CC-Let]
                name,
                translate(ctx, bound),
                translate(ctx, annot),
                translate(ctx.define(name, bound, annot), body),
            )
        case cc.Sigma(name, first, second):
            return cccc.Sigma(  # [CC-Sig-⋆] / [CC-Sig-□]
                name,
                translate(ctx, first),
                translate(ctx.extend(name, first), second),
            )
        case cc.Pair(fst_val, snd_val, annot):
            return cccc.Pair(
                translate(ctx, fst_val),
                translate(ctx, snd_val),
                translate(ctx, annot),
            )
        case cc.Fst(pair):
            return cccc.Fst(translate(ctx, pair))  # [CC-Fst]
        case cc.Snd(pair):
            return cccc.Snd(translate(ctx, pair))  # [CC-Snd]
        case cc.Bool():
            return cccc.Bool()
        case cc.BoolLit(value):
            return cccc.BoolLit(value)
        case cc.If(cond, then_branch, else_branch):
            return cccc.If(
                translate(ctx, cond),
                translate(ctx, then_branch),
                translate(ctx, else_branch),
            )
        case cc.Nat():
            return cccc.Nat()
        case cc.Zero():
            return cccc.Zero()
        case cc.Succ(pred):
            return cccc.Succ(translate(ctx, pred))
        case cc.NatElim(motive, base, step, target):
            return cccc.NatElim(
                translate(ctx, motive),
                translate(ctx, base),
                translate(ctx, step),
                translate(ctx, target),
            )
        case _:
            raise TranslationError(f"not a CC term: {term!r}")


def _translate_lambda(ctx: CCContext, term: cc.Lam) -> cccc.Term:
    """The [CC-Lam] case: build code, environment type, and environment."""
    arg_name = term.name
    domain = term.domain
    body = term.body

    # The FV metafunction needs the λ's type Π x:A. B: read B off the
    # source derivation, and derive it only when there is none.
    body_ctx = ctx.extend(arg_name, domain)
    body_type = cc_typecheck.derived_type(body_ctx, body)
    if body_type is None:
        try:
            body_type = cc_typecheck.infer(body_ctx, body)
        except TypeCheckError as error:
            raise TranslationError(
                f"cannot closure-convert ill-typed function {cc.pretty(term)}: {error}"
            ) from error
    lam_type = cc.Pi(arg_name, domain, body_type)

    free_bindings = dependent_free_vars(ctx, term, lam_type)

    # If the λ binder collides with a captured free variable's name, the
    # environment-projection lets inside the code would shadow the code's
    # argument.  α-rename the binder first; the translation is stable
    # under α-equivalence.
    if any(binding.name == arg_name for binding in free_bindings):
        renamed = fresh(arg_name)
        body = cc.subst1(body, arg_name, cc.Var(renamed))
        arg_name = renamed
        body_ctx = ctx.extend(arg_name, domain)

    # Translate the telescope types in their (prefix) contexts.
    telescope: cccc.Telescope = []
    for binding in free_bindings:
        telescope.append((binding.name, translate(ctx.prefix(binding.name), binding.type_)))

    env_type = env_sigma(telescope)
    env_name = fresh("n")
    env_var = cccc.Var(env_name)

    domain_tgt = translate(ctx, domain)
    body_tgt = translate(body_ctx, body)

    code = cccc.CodeLam(
        env_name,
        env_type,
        arg_name,
        bind_env(telescope, env_var, domain_tgt),
        bind_env(telescope, env_var, body_tgt),
    )
    environment = env_tuple(telescope, [cccc.Var(name) for name, _ in telescope])
    return cccc.Clo(code, environment)


def translate_context(ctx: CCContext) -> TargetContext:
    """``Γ⁺``: translate a CC environment pointwise (paper [W-Assum]/[W-Def])."""
    result = TargetContext.empty()
    prefix = CCContext.empty()
    for binding in ctx:
        type_tgt = translate(prefix, binding.type_)
        if binding.definition is None:
            result = result.extend(binding.name, type_tgt)
            prefix = prefix.extend(binding.name, binding.type_)
        else:
            result = result.define(binding.name, translate(prefix, binding.definition), type_tgt)
            prefix = prefix.define(binding.name, binding.definition, binding.type_)
    return result
