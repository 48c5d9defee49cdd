"""Ablation studies: remove one ingredient of the paper's design and watch
the corresponding theorem fail.

Two of the paper's choices look small but carry the metatheory:

1. **Dependency-closed FV (Figure 10).**  :func:`translate_shallow_fv` is
   Figure 9 with the FV metafunction replaced by *syntactic* free
   variables (no closure over the types of captured variables, no type of
   the λ considered).  On simply typed programs it agrees with the real
   translation; on programs whose types mention variables the term
   doesn't, the generated code is open or refers to unbound names and
   **Theorem 5.6 fails** — the CC-CC kernel rejects the output.

2. **The closure η-principle ([≡-Clo1/2]).**  :func:`equivalent_without_clo_eta`
   is CC-CC definitional equivalence with the closure rules disabled
   (closures compare structurally).  Under it, the two sides of
   **Lemma 5.1 (compositionality) are inequivalent** — exactly the
   problem Section 5.1 describes, where substituting before vs. after
   translation produces environments of different shapes.

Benchmark E14 tabulates both failure rates over the corpus.
"""

from __future__ import annotations

from repro import cc, cccc
from repro.cc.context import Context as CCContext
from repro.cc import typecheck as cc_typecheck
from repro.cccc.equiv import equivalent_structural
from repro.cccc.ntuple import bind_env, env_sigma, env_tuple
from repro.closconv.translate import compositionality_sides, translate
from repro.common.errors import TranslationError, TypeCheckError
from repro.common.names import fresh

__all__ = [
    "compositionality_without_clo_eta",
    "equivalent_without_clo_eta",
    "shallow_fv_type_preservation",
    "translate_shallow_fv",
]


# --------------------------------------------------------------------------
# Ablation 1: syntactic FV instead of Figure 10.
# --------------------------------------------------------------------------


def translate_shallow_fv(ctx: CCContext, term: cc.Term) -> cccc.Term:
    """Figure 9 with *syntactic* free variables only (ablated Figure 10)."""
    match term:
        case cc.Lam():
            return _shallow_lambda(ctx, term)
        case cc.Pi(name, domain, codomain):
            return cccc.Pi(
                name,
                translate_shallow_fv(ctx, domain),
                translate_shallow_fv(ctx.extend(name, domain), codomain),
            )
        case cc.App(fn, arg):
            return cccc.App(translate_shallow_fv(ctx, fn), translate_shallow_fv(ctx, arg))
        case cc.Let(name, bound, annot, body):
            return cccc.Let(
                name,
                translate_shallow_fv(ctx, bound),
                translate_shallow_fv(ctx, annot),
                translate_shallow_fv(ctx.define(name, bound, annot), body),
            )
        case cc.Sigma(name, first, second):
            return cccc.Sigma(
                name,
                translate_shallow_fv(ctx, first),
                translate_shallow_fv(ctx.extend(name, first), second),
            )
        case cc.Pair(fst_val, snd_val, annot):
            return cccc.Pair(
                translate_shallow_fv(ctx, fst_val),
                translate_shallow_fv(ctx, snd_val),
                translate_shallow_fv(ctx, annot),
            )
        case cc.Fst(pair):
            return cccc.Fst(translate_shallow_fv(ctx, pair))
        case cc.Snd(pair):
            return cccc.Snd(translate_shallow_fv(ctx, pair))
        case cc.If(cond, then_branch, else_branch):
            return cccc.If(
                translate_shallow_fv(ctx, cond),
                translate_shallow_fv(ctx, then_branch),
                translate_shallow_fv(ctx, else_branch),
            )
        case cc.Succ(pred):
            return cccc.Succ(translate_shallow_fv(ctx, pred))
        case cc.NatElim(motive, base, step, target):
            return cccc.NatElim(
                translate_shallow_fv(ctx, motive),
                translate_shallow_fv(ctx, base),
                translate_shallow_fv(ctx, step),
                translate_shallow_fv(ctx, target),
            )
        case _:
            # Leaves are shared with the real translation.
            return translate(ctx, term)


def _shallow_lambda(ctx: CCContext, term: cc.Lam) -> cccc.Term:
    """[CC-Lam] capturing only syntactic free variables of the λ itself."""
    names = sorted(cc.free_vars(term) & set(ctx.names()), key=ctx.position)
    telescope: cccc.Telescope = []
    for name in names:
        binding = ctx.lookup(name)
        # An assumption even for a definition: the ablation drops its equation.
        telescope.append(cccc.Binding(name, translate_shallow_fv(ctx.prefix(name), binding.type_)))

    env_type = env_sigma(telescope)
    env_name = fresh("n")
    env_var = cccc.Var(env_name)
    domain_tgt = translate_shallow_fv(ctx, term.domain)
    body_tgt = translate_shallow_fv(ctx.extend(term.name, term.domain), term.body)

    code = cccc.CodeLam(
        env_name,
        env_type,
        term.name,
        bind_env(telescope, env_var, domain_tgt),
        bind_env(telescope, env_var, body_tgt),
    )
    environment = env_tuple(telescope, [cccc.Var(name) for name in names], env_type)
    return cccc.Clo(code, environment)


def shallow_fv_type_preservation(ctx: CCContext, term: cc.Term) -> bool:
    """Does Theorem 5.6 survive the shallow-FV ablation on this input?"""
    source_type = cc_typecheck.infer(ctx, term)
    from repro.closconv.translate import translate_context

    try:
        target = translate_shallow_fv(ctx, term)
        target_type = translate_shallow_fv(ctx, source_type)
        target_ctx = translate_context(ctx)
        inferred = cccc.infer(target_ctx, target)
    except (TypeCheckError, TranslationError):
        return False
    return cccc.equivalent(target_ctx, inferred, target_type)


# --------------------------------------------------------------------------
# Ablation 2: CC-CC equivalence without the closure η-rules.
# --------------------------------------------------------------------------


def equivalent_without_clo_eta(
    ctx: cccc.Context, left: cccc.Term, right: cccc.Term
) -> bool:
    """CC-CC ≡ with [≡-Clo1/2] disabled: closures compare structurally.

    Runs the shared incremental conversion engine with the closure η hook
    switched off, so β/δ/π-reduction still happens but a closure is only
    ever equal to a structurally matching closure.
    """
    return equivalent_structural(ctx, left, right)


def compositionality_without_clo_eta(
    prefix: CCContext,
    name: str,
    name_type: cc.Term,
    body: cc.Term,
    value: cc.Term,
) -> bool:
    """Lemma 5.1 decided with the ablated equivalence.

    Returns True iff ``(e1[e2/x])⁺`` and ``e1⁺[e2⁺/x]`` are equal
    *without* the closure η-principle — the paper predicts False whenever
    the λ's environment shape changes under substitution.
    """
    left, right = compositionality_sides(prefix, name, name_type, body, value)
    return equivalent_without_clo_eta(cccc.Context.empty(), left, right)
