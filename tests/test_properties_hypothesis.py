"""Property-based tests (hypothesis) over the paper's metatheory.

Hypothesis drives the type-directed generator through integer seeds, so
failures shrink to the smallest failing seed.  Each property is one of the
paper's lemmas/theorems quantified over arbitrary well-typed programs.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import cc, cccc
from repro.closconv import compile_term, translate, translate_context
from repro.gen import GenConfig, TermGenerator
from repro.model import decompile
from repro.properties import (
    check_preservation_of_reduction,
    check_roundtrip,
    check_subject_reduction,
    check_type_preservation,
)

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _generate(seed: int):
    triple = TermGenerator(seed).well_typed_term()
    assume(triple is not None)
    return triple


class TestKernelProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_normalization_is_idempotent(self, seed):
        ctx, term, _ = _generate(seed)
        normal = cc.normalize(ctx, term)
        assert cc.alpha_equal(cc.normalize(ctx, normal), normal)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_subject_reduction(self, seed):
        ctx, term, _ = _generate(seed)
        assert check_subject_reduction(ctx, term)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_equivalence_respects_reduction(self, seed):
        ctx, term, _ = _generate(seed)
        for reduct in cc.reducts(ctx, term)[:3]:
            assert cc.equivalent(ctx, term, reduct)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_substitution_respects_typing(self, seed):
        """Γ, x:A ⊢ e and Γ ⊢ v:A imply Γ ⊢ e[v/x] (substitution lemma)."""
        gen = TermGenerator(seed)
        ctx = gen.context(2)
        var_type = gen.type_(ctx, 1)
        value = gen.term(ctx, var_type, 2)
        assume(value is not None)
        extended = ctx.extend("hole", var_type)
        body = gen.any_term(extended, 3)
        assume(body is not None)
        body_type = cc.infer(extended, body)
        substituted = cc.subst1(body, "hole", value)
        inferred = cc.infer(ctx, substituted)
        assert cc.equivalent(ctx, inferred, cc.subst1(body_type, "hole", value))


class TestCompilerProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_type_preservation(self, seed):
        ctx, term, _ = _generate(seed)
        assert check_type_preservation(ctx, term)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_reduction_preservation(self, seed):
        ctx, term, _ = _generate(seed)
        assert check_preservation_of_reduction(ctx, term)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_roundtrip_conjecture(self, seed):
        ctx, term, _ = _generate(seed)
        assert check_roundtrip(ctx, term)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_translation_preserves_free_variables(self, seed):
        """fv(e⁺) ⊆ FV-closure(e) — no variable appears from nowhere."""
        ctx, term, _ = _generate(seed)
        from repro.closconv.fv import dependent_free_vars

        term_type = cc.infer(ctx, term)
        closure_names = {b.name for b in dependent_free_vars(ctx, term, term_type)}
        target = translate(ctx, term)
        assert cccc.free_vars(target) <= closure_names

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_compiled_code_blocks_all_closed(self, seed):
        """Every CodeLam anywhere in compiler output is closed — the
        property [Code] enforces, checked syntactically over the output."""
        ctx, term, _ = _generate(seed)
        target = translate(ctx, term)
        for sub in cccc.subterms(target):
            if isinstance(sub, cccc.CodeLam):
                assert cccc.free_vars(sub) == set()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_model_type_preservation_of_compiled(self, seed):
        """Lemma 4.6 on the image of the compiler."""
        ctx, term, _ = _generate(seed)
        result = compile_term(ctx, term, verify=False)
        from repro.model import decompile_context

        cc_ctx = decompile_context(result.target_context)
        image = decompile(result.target)
        image_type = cc.infer(cc_ctx, image)
        assert cc.equivalent(cc_ctx, image_type, decompile(result.target_type))


class TestGroundEvaluation:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SETTINGS
    def test_closed_nat_programs_agree_end_to_end(self, seed):
        """Corollary 5.8 + machine, on random closed Nat programs."""
        gen = TermGenerator(seed, GenConfig(context_size=0))
        empty = cc.Context.empty()
        term = gen.term(empty, cc.Nat(), 4)
        assume(term is not None and not cc.free_vars(term))
        cc.check(empty, term, cc.Nat())
        expected = cc.nat_value(cc.normalize(empty, term))

        result = compile_term(empty, term, verify=False)
        target_value = cccc.normalize(cccc.Context.empty(), result.target)
        assert cccc.nat_value(target_value) == expected

        from repro.machine import hoist, machine_observation, run

        machine_value, _ = run(hoist(result.target))
        assert machine_observation(machine_value) == expected

        from repro.baseline import erase, uconvert, ueval

        assert ueval(uconvert(erase(term))) == expected
