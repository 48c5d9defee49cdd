"""Theorem 5.6 (Type Preservation): ``Γ ⊢ e : t`` ⟹ ``Γ⁺ ⊢ e⁺ : t⁺``.

The headline theorem, checked by actually running the CC-CC kernel on
compiler output — over the corpus, over targeted dependent-type stress
cases, and over hundreds of randomly generated well-typed programs.
"""

import pytest

from repro import api, cc, cccc
from repro.cc import prelude
from repro.closconv import compile_term
from repro.gen import GenConfig, TermGenerator
from repro.properties import check_type_preservation
from repro.surface import parse_term
from tests.corpus import CORPUS, corpus_ids


class TestCorpus:
    @pytest.mark.parametrize("name, ctx, term", CORPUS, ids=corpus_ids())
    def test_corpus(self, name, ctx, term):
        assert check_type_preservation(ctx, term)


class TestPaperExamples:
    def test_polymorphic_identity(self, empty):
        """The paper's Section 3 running example, including the check that
        the closure type is equivalent to Π A:⋆. Π x:A. A."""
        result = compile_term(empty, prelude.polymorphic_identity)
        expected = cccc.Pi("A", cccc.Star(), cccc.Pi("x", cccc.Var("A"), cccc.Var("A")))
        assert cccc.equivalent(result.target_context, result.checked_type, expected)

    def test_inner_closure_type_mentions_env(self, empty):
        """The inferred type of the inner closure contains the environment
        substituted per [Clo] — the paper's key synchronization mechanism."""
        ctx = empty.extend("A", cc.Star())
        result = compile_term(ctx, parse_term(r"\ (x : A). x"))
        # The raw inferred type mentions the environment tuple ⟨A, ⟨⟩⟩…
        assert isinstance(result.checked_type, cccc.Pi)
        # …but is definitionally equal to the translated source type.
        assert cccc.equivalent(
            result.target_context,
            result.checked_type,
            cccc.Pi("x", cccc.Var("A"), cccc.Var("A")),
        )

    def test_div_style_precondition(self, empty):
        """The paper's div example shape: a Π whose later arguments are
        proofs about earlier ones."""
        div_type = cc.Pi(
            "x",
            cc.Nat(),
            cc.Pi(
                "y",
                cc.Nat(),
                cc.Pi(
                    "_",
                    prelude.leibniz_eq(cc.Bool(), cc.App(prelude.nat_is_zero, cc.Var("y")), cc.BoolLit(False)),
                    cc.Nat(),
                ),
            ),
        )
        ctx = empty.extend("div", div_type)
        # div 4 2 : Π _:(is_zero 2 = false). Nat — y replaced by 2 ([App]).
        applied = cc.make_app(cc.Var("div"), cc.nat_literal(4), cc.nat_literal(2))
        assert check_type_preservation(ctx, applied)

    def test_proof_term_compilation(self, empty):
        """Compile an actual proof (refl) and its theorem statement."""
        statement = prelude.leibniz_eq(cc.Nat(), cc.nat_literal(2), cc.nat_literal(2))
        proof = prelude.leibniz_refl(cc.Nat(), cc.nat_literal(2))
        cc.check(empty, proof, statement)
        result = compile_term(empty, proof)
        cccc.check(result.target_context, result.target, result.target_type)

    def test_deep_nesting(self, empty):
        term = parse_term(
            r"\ (A : Type) (f : A -> A) (g : A -> A) (x : A). f (g (f x))"
        )
        assert check_type_preservation(empty, term)

    def test_dependent_pair_chain(self, empty):
        assert check_type_preservation(empty, prelude.positive_nat_value(5))

    def test_type_operator_capture(self, empty):
        ctx = empty.extend("F", cc.arrow(cc.Star(), cc.Star())).extend("A", cc.Star())
        term = parse_term(r"\ (x : F A). x")
        assert check_type_preservation(ctx, term)

    def test_impredicative_self_application(self, empty):
        term = parse_term(
            r"\ (f : forall (A : Type), A -> A). f (forall (A : Type), A -> A) f"
        )
        assert check_type_preservation(empty, term)


class TestRandomized:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_programs(self, seed):
        gen = TermGenerator(seed)
        triple = gen.well_typed_term()
        if triple is None:
            pytest.skip("no term generated")
        ctx, term, _ = triple
        assert check_type_preservation(ctx, term)

    @pytest.mark.parametrize("seed", range(20))
    def test_deeper_random_programs(self, seed):
        gen = TermGenerator(seed + 50_000, GenConfig(max_depth=6, context_size=5))
        triple = gen.well_typed_term()
        if triple is None:
            pytest.skip("no term generated")
        ctx, term, _ = triple
        assert check_type_preservation(ctx, term)


#: [CC-Lam] captures a ``let``-bound name as a plain environment entry:
#: ``closconv/fv.dependent_free_vars`` records ``T`` but not ``T ≡ Nat``, and
#: ``bind_env`` rebinds it as ``fst n``, so the code block cannot see that a
#: ``T``-typed argument is a ``Nat``.  The checker accepts these programs and
#: verify rejects their translation.  These pin that bug (ROADMAP open item
#: 1a) and must be flipped to plain tests by the change that fixes it.
_LET_BOUND_TYPE_IN_CLOSURE = [
    pytest.param(r"let T = Nat : Type in \ (x : T). succ x", id="let-lambda"),
    pytest.param(r"let T = Nat : Type in (\ (x : T). succ x) 41", id="let-redex"),
    pytest.param(r"\ (x : Nat). let T = Nat : Type in \ (y : T). succ y", id="lambda-let-lambda"),
]


class TestLetBoundTypeInClosure:
    @pytest.mark.xfail(strict=True, reason="[CC-Lam] drops a let-bound type's definition "
                       "(ROADMAP item 1a)")
    @pytest.mark.parametrize("text", _LET_BOUND_TYPE_IN_CLOSURE)
    def test_checked_program_compiles(self, text):
        session = api.Session()
        session.check(text)
        assert session.compile(text).verified
