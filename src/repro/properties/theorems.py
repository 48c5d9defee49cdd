"""Executable statements of the paper's lemmas and theorems.

Each function decides one metatheoretic property on concrete inputs; the
test suite and benchmark harness quantify them over the hand-written
corpus and the random generator.  Function names cite the paper item they
implement.

A ``True`` result is one checked instance of the theorem; a ``False``
result is a *counterexample* — the tests treat any False as a hard
failure, which is exactly how an implementation bug in the translation or
either kernel would surface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import cc, cccc
from repro.cc.context import Context as CCContext
from repro.closconv.pipeline import TypePreservationViolation, compile_term
from repro.closconv.translate import translate, translate_context
from repro.common.errors import TypeCheckError
from repro.kernel.budget import Budget
from repro.linking.link import (
    ClosingSubstitution,
    check_substitution,
    link,
    link_target,
    translate_substitution,
)
from repro.model.translate import decompile, decompile_context

__all__ = [
    "GroundObservation",
    "check_coherence",
    "check_compositionality",
    "check_consistency_of_term",
    "check_model_coherence",
    "check_model_compositionality",
    "check_model_reduction_preservation",
    "check_model_type_preservation",
    "check_preservation_of_reduction",
    "check_roundtrip",
    "check_separate_compilation",
    "check_subject_reduction",
    "check_type_preservation",
    "check_type_safety_of_target",
    "ground_observation",
    "is_target_value",
]


# --------------------------------------------------------------------------
# Compiler-side properties (Section 5).
# --------------------------------------------------------------------------


def check_compositionality(
    prefix: CCContext,
    name: str,
    name_type: cc.Term,
    body: cc.Term,
    value: cc.Term,
) -> bool:
    """Lemma 5.1: ``(e1[e2/x])⁺ ≡ e1⁺[e2⁺/x]``.

    ``prefix ⊢ value : name_type`` and ``prefix, name:name_type ⊢ body``.
    The two sides produce closures with different environment shapes (the
    left inlines ``value`` before FV is computed; the right stores ``x`` in
    the environment and substitutes afterwards) — the closure η-principle
    is what makes them definitionally equal.
    """
    extended = prefix.extend(name, name_type)
    left = translate(prefix, cc.subst1(body, name, value))
    right = cccc.subst1(translate(extended, body), name, translate(prefix, value))
    return cccc.equivalent(translate_context(prefix), left, right, Budget())


def check_preservation_of_reduction(ctx: CCContext, term: cc.Term) -> bool:
    """Lemmas 5.2–5.3: every ``e ⊲ e′`` satisfies ``e⁺ ≡ e′⁺`` in CC-CC.

    (The paper proves ``e⁺ ⊲* ẽ ≡ e′⁺``; since CC-CC's ≡ contains ⊲*,
    the checkable consequence is definitional equivalence of the images.)
    """
    target_ctx = translate_context(ctx)
    source_image = translate(ctx, term)
    budget = Budget()  # one fuel pool across the whole reduct fan-out
    for reduct in cc.reducts(ctx, term):
        reduct_image = translate(ctx, reduct)
        if not cccc.equivalent(target_ctx, source_image, reduct_image, budget):
            return False
    return True


def check_coherence(ctx: CCContext, left: cc.Term, right: cc.Term) -> bool:
    """Lemma 5.4: ``e ≡ e′`` implies ``e⁺ ≡ e′⁺``.

    Vacuously true when the inputs are not equivalent in CC.
    """
    budget = Budget()
    if not cc.equivalent(ctx, left, right, budget):
        return True
    target_ctx = translate_context(ctx)
    return cccc.equivalent(target_ctx, translate(ctx, left), translate(ctx, right), budget)


def check_type_preservation(ctx: CCContext, term: cc.Term) -> bool:
    """Theorem 5.6: ``Γ ⊢ e : t`` implies ``Γ⁺ ⊢ e⁺ : t⁺``.

    Runs the CC-CC kernel on the compiled output; the pipeline raises on
    violation, which we surface as False.
    """
    try:
        compile_term(ctx, term, verify=True)
    except TypePreservationViolation:
        return False
    return True


def check_subject_reduction(ctx: CCContext, term: cc.Term) -> bool:
    """CC kernel sanity: every one-step reduct keeps an equivalent type."""
    budget = Budget()
    type_ = cc.infer(ctx, term, budget)
    for reduct in cc.reducts(ctx, term):
        try:
            reduct_type = cc.infer(ctx, reduct, budget)
        except TypeCheckError:
            return False
        if not cc.equivalent(ctx, reduct_type, type_, budget):
            return False
    return True


# --------------------------------------------------------------------------
# Separate compilation (Theorem 5.7, Corollary 5.8).
# --------------------------------------------------------------------------

#: A ground observation: the source and target values at a ground type.
GroundObservation = bool | int | None


def ground_observation(term: cc.Term | cccc.Term) -> GroundObservation:
    """The ``≈``-observable content of a normal form at a ground type.

    ``term`` may belong to either calculus; ``v⁺ ≈ v′`` compares the two.
    """
    calculus = cccc if isinstance(term, cccc.Term) else cc
    if isinstance(term, calculus.BoolLit):
        return term.value
    return calculus.nat_value(term)


@dataclass(frozen=True)
class SeparateCompilationReport:
    """Evidence produced by one Theorem 5.7 check."""

    source_value: cc.Term
    target_value: cccc.Term
    observation: GroundObservation
    agrees: bool


def check_separate_compilation(
    ctx: CCContext, term: cc.Term, gamma: ClosingSubstitution
) -> SeparateCompilationReport:
    """Theorem 5.7: linking commutes with compilation at ground types.

    ``γ(e) ⊲* v`` in CC and ``γ⁺(e⁺) ⊲* v′`` in CC-CC with ``v⁺ ≈ v′``.
    """
    check_substitution(ctx, gamma)
    # Source side: link then run.
    linked_source = link(ctx, term, gamma)
    source_value = cc.normalize(CCContext.empty(), linked_source)
    # Target side: compile separately, then link with the compiled imports.
    compiled = translate(ctx, term)
    gamma_target = translate_substitution(gamma)
    target_ctx = translate_context(ctx)
    linked_target = link_target(target_ctx, compiled, gamma_target)
    target_value = cccc.normalize(cccc.Context.empty(), linked_target)

    source_obs = ground_observation(source_value)
    target_obs = ground_observation(target_value)
    agrees = source_obs is not None and source_obs == target_obs
    return SeparateCompilationReport(source_value, target_value, target_obs, agrees)


# --------------------------------------------------------------------------
# Model-side properties (Section 4.1).
# --------------------------------------------------------------------------


def check_model_compositionality(term: cccc.Term, name: str, value: cccc.Term) -> bool:
    """Lemma 4.2: ``(e[e′/x])° = e°[e′°/x]`` (syntactic, up to α)."""
    left = decompile(cccc.subst1(term, name, value))
    right = cc.subst1(decompile(term), name, decompile(value))
    return cc.alpha_equal(left, right)


def check_model_reduction_preservation(ctx: cccc.Context, term: cccc.Term) -> bool:
    """Lemmas 4.3–4.4: ``e ⊲ e′`` in CC-CC implies ``e° ⊲* e′°`` in CC.

    Checked as definitional equivalence of the images (which ⊲* implies),
    plus actual multi-step reachability for head steps.
    """
    cc_ctx = decompile_context(ctx)
    image = decompile(term)
    budget = Budget()
    for reduct in cccc.reducts(ctx, term):
        if not cc.equivalent(cc_ctx, image, decompile(reduct), budget):
            return False
    return True


def check_model_coherence(ctx: cccc.Context, left: cccc.Term, right: cccc.Term) -> bool:
    """Lemma 4.5: ``e1 ≡ e2`` in CC-CC implies ``e1° ≡ e2°`` in CC."""
    budget = Budget()
    if not cccc.equivalent(ctx, left, right, budget):
        return True
    cc_ctx = decompile_context(ctx)
    return cc.equivalent(cc_ctx, decompile(left), decompile(right), budget)


def check_model_type_preservation(ctx: cccc.Context, term: cccc.Term) -> bool:
    """Lemma 4.6: ``Γ ⊢ e : A`` in CC-CC implies ``Γ° ⊢ e° : A°`` in CC."""
    budget = Budget()
    type_ = cccc.infer(ctx, term, budget)
    cc_ctx = decompile_context(ctx)
    try:
        image_type = cc.infer(cc_ctx, decompile(term), budget)
    except TypeCheckError:
        return False
    return cc.equivalent(cc_ctx, image_type, decompile(type_), budget)


def check_consistency_of_term(term: cccc.Term) -> bool:
    """Theorem 4.7 (one instance): no closed CC-CC term proves ``False``.

    Returns False — i.e. reports inconsistency — only if ``term`` is a
    closed well-typed proof of ``Π A:⋆. A``.
    """
    empty = cccc.Context.empty()
    if cccc.free_vars(term):
        return True
    try:
        type_ = cccc.infer(empty, term)
    except TypeCheckError:
        return True
    false_type = cccc.Pi("A", cccc.Star(), cccc.Var("A"))
    return not cccc.equivalent(empty, type_, false_type)


def is_target_value(term: cccc.Term) -> bool:
    """Is this closed normal form a value (Theorem 4.8's observable)?"""
    match term:
        case (
            cccc.Star()
            | cccc.Pi()
            | cccc.CodeType()
            | cccc.Sigma()
            | cccc.Unit()
            | cccc.UnitVal()
            | cccc.Bool()
            | cccc.BoolLit()
            | cccc.Nat()
            | cccc.Zero()
            | cccc.CodeLam()
        ):
            return True
        case cccc.Succ(pred):
            return is_target_value(pred)
        case cccc.Clo(code, env):
            return is_target_value(code) and is_target_value(env)
        case cccc.Pair(fst_val, snd_val, _annot):
            return is_target_value(fst_val) and is_target_value(snd_val)
        case _:
            return False


def check_type_safety_of_target(term: cccc.Term) -> bool:
    """Theorem 4.8: a closed well-typed CC-CC term normalizes to a value."""
    empty = cccc.Context.empty()
    cccc.infer(empty, term)  # must be well-typed; raises otherwise
    normal_form = cccc.normalize(empty, term)
    return is_target_value(normal_form)


# --------------------------------------------------------------------------
# The Section 6 round-trip conjecture.
# --------------------------------------------------------------------------


def check_roundtrip(ctx: CCContext, term: cc.Term) -> bool:
    """Section 6 conjecture: ``e ≡ (e⁺)°``.

    Compile to CC-CC, decompile back through the model, and compare with
    the original in CC.
    """
    image = decompile(translate(ctx, term))
    return cc.equivalent(ctx, term, image, Budget())


def check_equivalence_reflection(ctx: CCContext, left: cc.Term, right: cc.Term) -> bool:
    """Section 6's *reflection* direction: ``e1⁺ ≡ e2⁺`` implies ``e1 ≡ e2``.

    The paper derives this from Lemma 4.5 (model coherence) plus the
    round-trip conjecture: if the compiled images are equivalent, their
    decompilations are (4.5), and each decompilation is ≡ to its source
    (the conjecture), so the sources are equivalent.  Vacuously true when
    the images are inequivalent.
    """
    budget = Budget()
    target_ctx = translate_context(ctx)
    if not cccc.equivalent(target_ctx, translate(ctx, left), translate(ctx, right), budget):
        return True
    return cc.equivalent(ctx, left, right, budget)
