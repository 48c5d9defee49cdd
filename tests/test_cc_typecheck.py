"""Unit tests for the CC type system (paper Figures 3 and 4), rule by rule."""

import pytest

from repro import api, cc
from repro.cc import prelude
from repro.common.errors import TypeCheckError
from repro.kernel.budget import Budget
from repro.surface import parse_term
from tests.corpus import CORPUS


class TestAxiomsAndVariables:
    def test_star_has_type_box(self, empty):
        assert cc.infer(empty, cc.Star()) == cc.Box()

    def test_box_has_no_type(self, empty):
        with pytest.raises(TypeCheckError):
            cc.infer(empty, cc.Box())

    def test_var_rule(self, empty):
        ctx = empty.extend("x", cc.Nat())
        assert cc.infer(ctx, cc.Var("x")) == cc.Nat()

    def test_unbound_var(self, empty):
        with pytest.raises(TypeCheckError, match="unbound"):
            cc.infer(empty, cc.Var("ghost"))

    def test_definition_var(self, empty):
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        assert cc.infer(ctx, cc.Var("two")) == cc.Nat()


class TestFunctions:
    def test_lam_rule(self, empty):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert cc.equivalent(empty, cc.infer(empty, term), cc.arrow(cc.Nat(), cc.Nat()))

    def test_polymorphic_identity_type(self, empty):
        inferred = cc.infer(empty, prelude.polymorphic_identity)
        assert cc.equivalent(empty, inferred, prelude.polymorphic_identity_type)

    def test_app_rule_substitutes(self, empty):
        # The paper's div example shape: applying replaces x in the codomain.
        f_type = cc.Pi("x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), cc.Var("x")))
        ctx = empty.extend("f", f_type)
        app = cc.App(cc.Var("f"), cc.nat_literal(2))
        expected = prelude.leibniz_eq(cc.Nat(), cc.nat_literal(2), cc.nat_literal(2))
        assert cc.equivalent(ctx, cc.infer(ctx, app), expected)

    def test_app_of_non_function(self, empty):
        with pytest.raises(TypeCheckError, match="non-Π"):
            cc.infer(empty, cc.App(cc.Zero(), cc.Zero()))

    def test_app_argument_mismatch(self, empty):
        term = cc.App(cc.Lam("x", cc.Nat(), cc.Var("x")), cc.BoolLit(True))
        with pytest.raises(TypeCheckError, match="mismatch"):
            cc.infer(empty, term)

    def test_lam_with_ill_formed_domain(self, empty):
        with pytest.raises(TypeCheckError):
            cc.infer(empty, cc.Lam("x", cc.Zero(), cc.Var("x")))  # 0 is not a type

    def test_dependent_application_through_conv(self, empty):
        # id ((λA:⋆.A) Nat) 3 — the argument type needs [Conv] to match.
        term = cc.make_app(
            prelude.polymorphic_identity,
            cc.App(cc.Lam("A", cc.Star(), cc.Var("A")), cc.Nat()),
            cc.nat_literal(3),
        )
        assert cc.equivalent(empty, cc.infer(empty, term), cc.Nat())


class TestUniverses:
    def test_prod_star_small(self, empty):
        assert cc.infer(empty, parse_term("Nat -> Nat")) == cc.Star()

    def test_prod_star_impredicative(self, empty):
        # Π A:⋆. A → A quantifies over ⋆ yet lives in ⋆ ([Prod-*]).
        assert cc.infer(empty, parse_term("forall (A : Type), A -> A")) == cc.Star()

    def test_prod_box(self, empty):
        # Nat → ⋆ is a type operator, in □ ([Prod-□]).
        assert cc.infer(empty, cc.Pi("_", cc.Nat(), cc.Star())) == cc.Box()

    def test_sig_star(self, empty):
        assert cc.infer(empty, parse_term("exists (x : Nat), Bool")) == cc.Star()

    def test_sig_box_no_impredicativity(self, empty):
        # Σ A:⋆. A must NOT be small — impredicative strong Σ is unsound
        # (paper Section 2, citing Girard/Coquand/Hook-Howe).
        sigma = cc.Sigma("A", cc.Star(), cc.Var("A"))
        assert cc.infer(empty, sigma) == cc.Box()

    def test_ground_types_are_small(self, empty):
        assert cc.infer(empty, cc.Nat()) == cc.Star()
        assert cc.infer(empty, cc.Bool()) == cc.Star()

    def test_infer_universe_rejects_terms(self, empty):
        with pytest.raises(TypeCheckError, match="expected a type"):
            cc.infer_universe(empty, cc.Zero())


class TestLet:
    def test_let_rule(self, empty):
        term = parse_term(r"let y = 1 : Nat in succ y")
        assert cc.equivalent(empty, cc.infer(empty, term), cc.Nat())

    def test_let_annotation_checked(self, empty):
        term = cc.Let("y", cc.BoolLit(True), cc.Nat(), cc.Var("y"))
        with pytest.raises(TypeCheckError):
            cc.infer(empty, term)

    def test_let_type_substitutes_definition(self, empty):
        # let T = Nat : Type in λ x:T. x  gets type (Π x:T. T)[Nat/T].
        term = parse_term(r"let T = Nat : Type in \ (x : T). x")
        assert cc.equivalent(empty, cc.infer(empty, term), cc.arrow(cc.Nat(), cc.Nat()))

    def test_let_definition_usable_in_types(self, empty):
        # The definition is available for δ during checking the body.
        term = parse_term(
            r"let T = Nat : Type in (\ (x : T). x) 0"
        )
        assert cc.equivalent(empty, cc.infer(empty, term), cc.Nat())


class TestPairs:
    def test_pair_rule(self, empty):
        term = parse_term(r"<3, true> as (exists (x : Nat), Bool)")
        assert cc.infer(empty, term) == parse_term("exists (x : Nat), Bool")

    def test_pair_dependent_second_component(self, empty):
        # ⟨2, refl⟩ : Σ x:Nat. Eq Nat x 2 — snd checked at B[fst/x].
        annot = cc.Sigma("x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), cc.nat_literal(2)))
        pair = cc.Pair(cc.nat_literal(2), prelude.leibniz_refl(cc.Nat(), cc.nat_literal(2)), annot)
        assert cc.equivalent(empty, cc.infer(empty, pair), annot)

    def test_pair_wrong_witness_rejected(self, empty):
        annot = cc.Sigma("x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), cc.nat_literal(2)))
        bad = cc.Pair(cc.nat_literal(3), prelude.leibniz_refl(cc.Nat(), cc.nat_literal(3)), annot)
        with pytest.raises(TypeCheckError):
            cc.infer(empty, bad)

    def test_pair_needs_sigma_annotation(self, empty):
        with pytest.raises(TypeCheckError, match="not a Σ"):
            cc.infer(empty, cc.Pair(cc.Zero(), cc.Zero(), cc.Nat()))

    def test_fst_snd_rules(self, empty):
        pair = parse_term(r"<3, true> as (exists (x : Nat), Bool)")
        assert cc.infer(empty, cc.Fst(pair)) == cc.Nat()
        assert cc.equivalent(empty, cc.infer(empty, cc.Snd(pair)), cc.Bool())

    def test_snd_substitutes_fst(self, empty):
        # For p : Σ x:Nat. Eq Nat x x, snd p : Eq Nat (fst p) (fst p).
        sigma = cc.Sigma("x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), cc.Var("x")))
        ctx = empty.extend("p", sigma)
        snd_type = cc.infer(ctx, cc.Snd(cc.Var("p")))
        expected = prelude.leibniz_eq(cc.Nat(), cc.Fst(cc.Var("p")), cc.Fst(cc.Var("p")))
        assert cc.equivalent(ctx, snd_type, expected)

    def test_projection_of_non_pair_type(self, empty):
        with pytest.raises(TypeCheckError, match="non-Σ"):
            cc.infer(empty, cc.Fst(cc.Zero()))


class TestConv:
    def test_conv_resolves_redex_in_type(self, empty):
        # e : (λA:⋆.A) Nat should check at Nat.
        redex_type = cc.App(cc.Lam("A", cc.Star(), cc.Var("A")), cc.Nat())
        cc.check(empty, cc.Zero(), redex_type)

    def test_conv_paper_example(self, empty):
        # The paper's Σ x:Nat. x = 1+1 versus x = 2 example, with our add.
        two_computed = cc.make_app(prelude.nat_add, cc.nat_literal(1), cc.nat_literal(1))
        annot_computed = cc.Sigma(
            "x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), two_computed)
        )
        annot_literal = cc.Sigma(
            "x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), cc.nat_literal(2))
        )
        pair = cc.Pair(
            cc.nat_literal(2), prelude.leibniz_refl(cc.Nat(), cc.nat_literal(2)), annot_computed
        )
        cc.check(empty, pair, annot_literal)

    def test_check_rejects_wrong_type(self, empty):
        with pytest.raises(TypeCheckError, match="mismatch"):
            cc.check(empty, cc.Zero(), cc.Bool())


class TestGroundTypes:
    def test_literals(self, empty):
        assert cc.infer(empty, cc.BoolLit(True)) == cc.Bool()
        assert cc.infer(empty, cc.Zero()) == cc.Nat()
        assert cc.infer(empty, cc.nat_literal(3)) == cc.Nat()

    def test_succ_requires_nat(self, empty):
        with pytest.raises(TypeCheckError):
            cc.infer(empty, cc.Succ(cc.BoolLit(True)))

    def test_if_rule(self, empty):
        term = parse_term(r"if true then 1 else 0")
        assert cc.infer(empty, term) == cc.Nat()

    def test_if_branches_must_agree(self, empty):
        with pytest.raises(TypeCheckError):
            cc.infer(empty, parse_term(r"if true then 1 else false"))

    def test_if_condition_must_be_bool(self, empty):
        with pytest.raises(TypeCheckError):
            cc.infer(empty, parse_term(r"if 0 then 1 else 2"))

    def test_if_at_type_level(self, empty):
        ctx = empty.extend("b", cc.Bool())
        term = cc.If(cc.Var("b"), cc.Nat(), cc.Bool())
        assert cc.infer(ctx, term) == cc.Star()

    def test_natelim_type(self, empty):
        term = parse_term(
            r"natelim(\ (k : Nat). Nat, 0, \ (k : Nat) (ih : Nat). succ ih, 3)"
        )
        assert cc.equivalent(empty, cc.infer(empty, term), cc.Nat())

    def test_natelim_dependent_motive(self, empty):
        # motive returning different types per index: P = λ n. if iszero n then Bool else Nat
        motive = cc.Lam(
            "n",
            cc.Nat(),
            cc.If(cc.App(prelude.nat_is_zero, cc.Var("n")), cc.Bool(), cc.Nat()),
        )
        step = cc.Lam(
            "k",
            cc.Nat(),
            cc.Lam("ih", cc.App(motive, cc.Var("k")), cc.nat_literal(7)),
        )
        term = cc.NatElim(motive, cc.BoolLit(True), step, cc.Zero())
        assert cc.equivalent(empty, cc.infer(empty, term), cc.Bool())

    def test_natelim_bad_motive(self, empty):
        with pytest.raises(TypeCheckError, match="motive"):
            cc.infer(empty, cc.NatElim(cc.Zero(), cc.Zero(), cc.Zero(), cc.Zero()))

    def test_natelim_bad_base(self, empty):
        motive = cc.Lam("n", cc.Nat(), cc.Nat())
        step = cc.Lam("k", cc.Nat(), cc.Lam("ih", cc.Nat(), cc.Var("ih")))
        with pytest.raises(TypeCheckError):
            cc.infer(empty, cc.NatElim(motive, cc.BoolLit(True), step, cc.Zero()))

    def test_natelim_bad_step(self, empty):
        motive = cc.Lam("n", cc.Nat(), cc.Nat())
        with pytest.raises(TypeCheckError):
            cc.infer(empty, cc.NatElim(motive, cc.Zero(), cc.Zero(), cc.Zero()))

    def test_natelim_target_must_be_nat(self, empty):
        motive = cc.Lam("n", cc.Nat(), cc.Nat())
        step = cc.Lam("k", cc.Nat(), cc.Lam("ih", cc.Nat(), cc.Var("ih")))
        with pytest.raises(TypeCheckError):
            cc.infer(empty, cc.NatElim(motive, cc.Zero(), step, cc.BoolLit(True)))


class TestContexts:
    def test_empty_context_well_formed(self, empty):
        cc.check_context(empty)

    def test_assumption_context(self, empty):
        cc.check_context(empty.extend("A", cc.Star()).extend("x", cc.Var("A")))

    def test_definition_context(self, empty):
        cc.check_context(empty.define("two", cc.nat_literal(2), cc.Nat()))

    def test_bad_type_rejected(self, empty):
        with pytest.raises(TypeCheckError):
            cc.check_context(empty.extend("x", cc.Zero()))

    def test_bad_definition_rejected(self, empty):
        with pytest.raises(TypeCheckError):
            cc.check_context(empty.define("x", cc.BoolLit(True), cc.Nat()))

    def test_dependent_context(self, empty):
        ctx = (
            empty.extend("A", cc.Star())
            .extend("P", cc.arrow(cc.Var("A"), cc.Star()))
            .extend("x", cc.Var("A"))
            .extend("h", cc.App(cc.Var("P"), cc.Var("x")))
        )
        cc.check_context(ctx)

    def test_well_typed_predicate(self, empty):
        assert cc.well_typed(empty, cc.Zero())
        assert not cc.well_typed(empty, cc.Var("ghost"))


class TestCorpusWellTyped:
    def test_entire_corpus_checks(self):
        from tests.corpus import CORPUS

        for name, ctx, term in CORPUS:
            cc.check_context(ctx)
            cc.infer(ctx, term)  # must not raise


_EMPTY = cc.Context.empty()
_NAT_ID = cc.Lam("x", cc.Nat(), cc.Var("x"))
_MOTIVE = cc.Lam("n", cc.Nat(), cc.Nat())
_STEP = cc.Lam("k", cc.Nat(), cc.Lam("ih", cc.Nat(), cc.Var("ih")))
_EQ_TWO = cc.Sigma("x", cc.Nat(), prelude.leibniz_eq(cc.Nat(), cc.Var("x"), cc.nat_literal(2)))

#: (name, context, term) — every one ill-typed.
_NEGATIVE = [
    ("box", _EMPTY, cc.Box()),
    ("unbound", _EMPTY, cc.Var("ghost")),
    ("app-non-pi", _EMPTY, cc.App(cc.Zero(), cc.Zero())),
    ("app-arg-mismatch", _EMPTY, cc.App(_NAT_ID, cc.BoolLit(True))),
    ("app-arg-is-type", _EMPTY, cc.App(_NAT_ID, cc.Bool())),
    ("lam-bad-domain", _EMPTY, cc.Lam("x", cc.Zero(), cc.Var("x"))),
    ("universe-of-term", _EMPTY, cc.Pi("x", cc.Zero(), cc.Nat())),
    ("let-annot-mismatch", _EMPTY, cc.Let("y", cc.BoolLit(True), cc.Nat(), cc.Var("y"))),
    ("pair-wrong-witness", _EMPTY, cc.Pair(
        cc.nat_literal(3), prelude.leibniz_refl(cc.Nat(), cc.nat_literal(3)), _EQ_TWO
    )),
    ("pair-non-sigma", _EMPTY, cc.Pair(cc.Zero(), cc.Zero(), cc.Nat())),
    ("fst-non-sigma", _EMPTY, cc.Fst(cc.nat_literal(1))),
    ("snd-non-sigma", _EMPTY, cc.Snd(cc.Zero())),
    ("succ-bool", _EMPTY, cc.Succ(cc.BoolLit(True))),
    ("if-branches", _EMPTY, parse_term(r"if true then 1 else false")),
    ("if-cond", _EMPTY, cc.If(cc.Zero(), cc.Zero(), cc.Zero())),
    ("natelim-motive", _EMPTY, cc.NatElim(cc.Zero(), cc.Zero(), cc.Zero(), cc.Zero())),
    ("natelim-base", _EMPTY, cc.NatElim(_MOTIVE, cc.BoolLit(True), _STEP, cc.Zero())),
    ("natelim-step", _EMPTY, cc.NatElim(_MOTIVE, cc.Zero(), cc.Zero(), cc.Zero())),
    ("natelim-target", _EMPTY, cc.NatElim(_MOTIVE, cc.Zero(), _STEP, cc.BoolLit(True))),
    ("dependent-mismatch", _EMPTY.extend("p", _EQ_TWO), cc.App(
        cc.Lam("q", prelude.leibniz_eq(cc.Nat(), cc.nat_literal(2), cc.nat_literal(2)), cc.Var("q")),
        cc.Snd(cc.Var("p")),
    )),
]


def _typing_record(ctx, term, interned):
    """(accepted, error class, message, steps, α-canonical type) in a cold session."""
    with api.Session().activate():
        if interned:
            term = cc.intern(term)
        budget = Budget()
        try:
            type_ = cc.infer(ctx, term, budget)
        except TypeCheckError as error:
            return (False, type(error).__name__, str(error), budget.spent, None)
        return (True, None, None, budget.spent, cc.pretty(cc.intern(type_)))


#: What the checker decided on every case: the verdict, the error class and
#: message, the fuel spent and the α-canonical type, each raw and interned.
_PINNED = {
    ('poly-id', False): (True, None, None, 0, 'Π ($cv0 : ⋆). $cv0 -> $cv0'),
    ('poly-id', True): (True, None, None, 0, 'Π ($cv0 : ⋆). $cv0 -> $cv0'),
    ('mono-id', False): (True, None, None, 0, 'Nat -> Nat'),
    ('mono-id', True): (True, None, None, 0, 'Nat -> Nat'),
    ('const', False): (True, None, None, 0, 'Nat -> Bool -> Nat'),
    ('const', True): (True, None, None, 0, 'Nat -> Bool -> Nat'),
    ('compose', False): (True, None, None, 0, '(Nat -> Bool) -> (Nat -> Nat) -> Nat -> Bool'),
    ('compose', True): (True, None, None, 0, '(Nat -> Bool) -> (Nat -> Nat) -> Nat -> Bool'),
    ('twice', False): (True, None, None, 0, '(Nat -> Nat) -> Nat -> Nat'),
    ('twice', True): (True, None, None, 0, '(Nat -> Nat) -> Nat -> Nat'),
    ('open-capture-term', False): (True, None, None, 0, 'A -> A'),
    ('open-capture-term', True): (True, None, None, 0, 'A -> A'),
    ('open-capture-type', False): (True, None, None, 0, 'A -> A'),
    ('open-capture-type', True): (True, None, None, 0, 'A -> A'),
    ('nested-capture', False): (True, None, None, 0, 'A -> A -> A'),
    ('nested-capture', True): (True, None, None, 0, 'A -> A -> A'),
    ('triple-nest', False): (True, None, None, 0, 'Nat -> Nat -> Nat -> Nat'),
    ('triple-nest', True): (True, None, None, 0, 'Nat -> Nat -> Nat -> Nat'),
    ('shadow', False): (True, None, None, 0, 'Nat -> Bool'),
    ('shadow', True): (True, None, None, 0, 'Nat -> Bool'),
    ('beta-redex', False): (True, None, None, 0, 'Nat'),
    ('beta-redex', True): (True, None, None, 0, 'Nat'),
    ('id-Nat-3', False): (True, None, None, 0, 'Nat'),
    ('id-Nat-3', True): (True, None, None, 0, 'Nat'),
    ('partial-app', False): (True, None, None, 3, 'Nat -> (λ ($cv1 : Nat). Nat) 2'),
    ('partial-app', True): (True, None, None, 3, 'Nat -> (λ ($cv1 : Nat). Nat) 2'),
    ('higher-order', False): (True, None, None, 0, 'Nat'),
    ('higher-order', True): (True, None, None, 0, 'Nat'),
    ('apply-open', False): (True, None, None, 0, 'A'),
    ('apply-open', True): (True, None, None, 0, 'A'),
    ('let-zeta', False): (True, None, None, 0, 'Nat'),
    ('let-zeta', True): (True, None, None, 0, 'Nat'),
    ('let-under-lam', False): (True, None, None, 0, 'Nat -> Nat'),
    ('let-under-lam', True): (True, None, None, 0, 'Nat -> Nat'),
    ('let-type', False): (True, None, None, 0, 'Nat -> Nat'),
    ('let-type', True): (True, None, None, 0, 'Nat -> Nat'),
    ('delta-def', False): (True, None, None, 3, '(λ ($cv0 : Nat). Nat) m'),
    ('delta-def', True): (True, None, None, 3, '(λ ($cv0 : Nat). Nat) m'),
    ('pair-ground', False): (True, None, None, 0, 'Σ ($cv0 : Nat). Bool'),
    ('pair-ground', True): (True, None, None, 0, 'Σ ($cv0 : Nat). Bool'),
    ('pair-dependent', False): (True, None, None, 8, 'Σ ($cv0 : Nat). Π ($cv1 : Bool -> ⋆). $cv1 ((λ ($cv2 : Nat). natelim(λ ($cv3 : Nat). Bool, true, λ ($cv3 : Nat). λ ($cv4 : Bool). false, $cv2)) $cv0) -> $cv1 false'),
    ('pair-dependent', True): (True, None, None, 8, 'Σ ($cv0 : Nat). Π ($cv1 : Bool -> ⋆). $cv1 ((λ ($cv2 : Nat). natelim(λ ($cv3 : Nat). Bool, true, λ ($cv3 : Nat). λ ($cv4 : Bool). false, $cv2)) $cv0) -> $cv1 false'),
    ('fst-proj', False): (True, None, None, 0, 'Nat'),
    ('fst-proj', True): (True, None, None, 0, 'Nat'),
    ('snd-proj', False): (True, None, None, 0, 'Bool'),
    ('snd-proj', True): (True, None, None, 0, 'Bool'),
    ('sigma-in-lam', False): (True, None, None, 0, '(Σ ($cv0 : Nat). Bool) -> Nat'),
    ('sigma-in-lam', True): (True, None, None, 0, '(Σ ($cv0 : Nat). Bool) -> Nat'),
    ('snd-dependent', False): (True, None, None, 8, 'Π ($cv0 : Bool -> ⋆). $cv0 ((λ ($cv1 : Nat). natelim(λ ($cv2 : Nat). Bool, true, λ ($cv2 : Nat). λ ($cv3 : Bool). false, $cv1)) (fst ⟨3, λ ($cv1 : Bool -> ⋆). λ ($cv2 : $cv1 false). $cv2⟩ as (Σ ($cv1 : Nat). Π ($cv2 : Bool -> ⋆). $cv2 ((λ ($cv3 : Nat). natelim(λ ($cv4 : Nat). Bool, true, λ ($cv4 : Nat). λ ($cv5 : Bool). false, $cv3)) $cv1) -> $cv2 false))) -> $cv0 false'),
    ('snd-dependent', True): (True, None, None, 8, 'Π ($cv0 : Bool -> ⋆). $cv0 ((λ ($cv1 : Nat). natelim(λ ($cv2 : Nat). Bool, true, λ ($cv2 : Nat). λ ($cv3 : Bool). false, $cv1)) (fst ⟨3, λ ($cv1 : Bool -> ⋆). λ ($cv2 : $cv1 false). $cv2⟩ as (Σ ($cv1 : Nat). Π ($cv2 : Bool -> ⋆). $cv2 ((λ ($cv3 : Nat). natelim(λ ($cv4 : Nat). Bool, true, λ ($cv4 : Nat). λ ($cv5 : Bool). false, $cv3)) $cv1) -> $cv2 false))) -> $cv0 false'),
    ('if-ground', False): (True, None, None, 0, 'Nat'),
    ('if-ground', True): (True, None, None, 0, 'Nat'),
    ('if-neutral', False): (True, None, None, 0, 'Nat'),
    ('if-neutral', True): (True, None, None, 0, 'Nat'),
    ('natelim-add', False): (True, None, None, 3, '(λ ($cv0 : Nat). Nat) 3'),
    ('natelim-add', True): (True, None, None, 3, '(λ ($cv0 : Nat). Nat) 3'),
    ('is-zero', False): (True, None, None, 3, '(λ ($cv0 : Nat). Bool) 0'),
    ('is-zero', True): (True, None, None, 3, '(λ ($cv0 : Nat). Bool) 0'),
    ('pred', False): (True, None, None, 3, '(λ ($cv0 : Nat). Nat) 5'),
    ('pred', True): (True, None, None, 3, '(λ ($cv0 : Nat). Nat) 5'),
    ('dependent-if-annot', False): (True, None, None, 0, '(if b then Nat else Bool) -> (if b then Nat else Bool)'),
    ('dependent-if-annot', True): (True, None, None, 0, '(if b then Nat else Bool) -> (if b then Nat else Bool)'),
    ('leibniz-refl', False): (True, None, None, 0, 'Π ($cv0 : Nat -> ⋆). $cv0 1 -> $cv0 1'),
    ('leibniz-refl', True): (True, None, None, 0, 'Π ($cv0 : Nat -> ⋆). $cv0 1 -> $cv0 1'),
    ('type-operator', False): (True, None, None, 0, 'Π ($cv0 : ⋆ -> ⋆). Π ($cv1 : ⋆). $cv0 $cv1 -> $cv0 $cv1'),
    ('type-operator', True): (True, None, None, 0, 'Π ($cv0 : ⋆ -> ⋆). Π ($cv1 : ⋆). $cv0 $cv1 -> $cv0 $cv1'),
    ('impredicative', False): (True, None, None, 0, '(Π ($cv0 : ⋆). $cv0 -> $cv0) -> (Π ($cv1 : ⋆). $cv1 -> $cv1)'),
    ('impredicative', True): (True, None, None, 0, '(Π ($cv0 : ⋆). $cv0 -> $cv0) -> (Π ($cv1 : ⋆). $cv1 -> $cv1)'),
    ('type-only-capture', False): (True, None, None, 0, 'Nat -> C'),
    ('type-only-capture', True): (True, None, None, 0, 'Nat -> C'),
    ('sigma-dep-capture', False): (True, None, None, 0, 'Nat -> A'),
    ('sigma-dep-capture', True): (True, None, None, 0, 'Nat -> A'),
    ('chain-capture', False): (True, None, None, 0, 'Nat -> P x'),
    ('chain-capture', True): (True, None, None, 0, 'Nat -> P x'),
    ('add-zero-proof', False): (True, None, None, 41, 'Π ($cv0 : Nat). (λ ($cv1 : Nat). Π ($cv2 : Nat -> ⋆). $cv2 ((λ ($cv3 : Nat). λ ($cv4 : Nat). natelim(λ ($cv5 : Nat). Nat, $cv4, λ ($cv5 : Nat). λ ($cv6 : Nat). succ $cv6, $cv3)) $cv1 0) -> $cv2 $cv1) $cv0'),
    ('add-zero-proof', True): (True, None, None, 41, 'Π ($cv0 : Nat). (λ ($cv1 : Nat). Π ($cv2 : Nat -> ⋆). $cv2 ((λ ($cv3 : Nat). λ ($cv4 : Nat). natelim(λ ($cv5 : Nat). Nat, $cv4, λ ($cv5 : Nat). λ ($cv6 : Nat). succ $cv6, $cv3)) $cv1 0) -> $cv2 $cv1) $cv0'),
    ('church-2', False): (True, None, None, 0, 'Π ($cv0 : ⋆). ($cv0 -> $cv0) -> $cv0 -> $cv0'),
    ('church-2', True): (True, None, None, 0, 'Π ($cv0 : ⋆). ($cv0 -> $cv0) -> $cv0 -> $cv0'),
    ('church-add-2-3', False): (True, None, None, 0, 'Π ($cv0 : ⋆). ($cv0 -> $cv0) -> $cv0 -> $cv0'),
    ('church-add-2-3', True): (True, None, None, 0, 'Π ($cv0 : ⋆). ($cv0 -> $cv0) -> $cv0 -> $cv0'),
    ('type-term', False): (True, None, None, 0, '⋆'),
    ('type-term', True): (True, None, None, 0, '⋆'),
    ('pi-type-term', False): (True, None, None, 0, '⋆'),
    ('pi-type-term', True): (True, None, None, 0, '⋆'),
    ('sigma-type-term', False): (True, None, None, 4, '⋆'),
    ('sigma-type-term', True): (True, None, None, 4, '⋆'),
    ('shared-dag-tower', False): (True, None, None, 0, 'Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Σ ($cv4 : Nat). Nat). Σ ($cv5 : Nat). Σ ($cv6 : Nat). Nat'),
    ('shared-dag-tower', True): (True, None, None, 0, 'Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Σ ($cv4 : Nat). Nat). Σ ($cv5 : Nat). Σ ($cv6 : Nat). Nat'),
    ('box', False): (False, 'TypeCheckError', '□ has no type (it is not a valid term)', 0, None),
    ('box', True): (False, 'TypeCheckError', '□ has no type (it is not a valid term)', 0, None),
    ('unbound', False): (False, 'TypeCheckError', "unbound variable 'ghost'", 0, None),
    ('unbound', True): (False, 'TypeCheckError', "unbound variable 'ghost'", 0, None),
    ('app-non-pi', False): (False, 'TypeCheckError', 'application head has non-Π type Nat\n  while checking 0 0', 0, None),
    ('app-non-pi', True): (False, 'TypeCheckError', 'application head has non-Π type Nat\n  while checking 0 0', 0, None),
    ('app-arg-mismatch', False): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('app-arg-mismatch', True): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('app-arg-is-type', False): (False, 'TypeCheckError', 'type mismatch: term Bool\n  has type      ⋆\n  but expected  Nat', 0, None),
    ('app-arg-is-type', True): (False, 'TypeCheckError', 'type mismatch: term Bool\n  has type      ⋆\n  but expected  Nat', 0, None),
    ('lam-bad-domain', False): (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    ('lam-bad-domain', True): (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    ('universe-of-term', False): (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    ('universe-of-term', True): (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    ('let-annot-mismatch', False): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('let-annot-mismatch', True): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('pair-wrong-witness', False): (False, 'TypeCheckError', 'type mismatch: term λ (P : Nat -> ⋆). λ (p : P 3). p\n  has type      Π (P : Nat -> ⋆). P 3 -> P 3\n  but expected  Π (P : Nat -> ⋆). P 3 -> P 2', 0, None),
    ('pair-wrong-witness', True): (False, 'TypeCheckError', 'type mismatch: term λ ($cv0 : Nat -> ⋆). λ ($cv1 : $cv0 3). $cv1\n  has type      Π ($cv0 : Nat -> ⋆). $cv0 3 -> $cv0 3\n  but expected  Π ($cv1 : Nat -> ⋆). $cv1 3 -> $cv1 2', 0, None),
    ('pair-non-sigma', False): (False, 'TypeCheckError', 'pair annotation Nat is not a Σ type\n  while checking ⟨0, 0⟩ as Nat', 0, None),
    ('pair-non-sigma', True): (False, 'TypeCheckError', 'pair annotation Nat is not a Σ type\n  while checking ⟨0, 0⟩ as Nat', 0, None),
    ('fst-non-sigma', False): (False, 'TypeCheckError', 'fst of non-Σ type Nat\n  while checking fst 1', 0, None),
    ('fst-non-sigma', True): (False, 'TypeCheckError', 'fst of non-Σ type Nat\n  while checking fst 1', 0, None),
    ('snd-non-sigma', False): (False, 'TypeCheckError', 'snd of non-Σ type Nat\n  while checking snd 0', 0, None),
    ('snd-non-sigma', True): (False, 'TypeCheckError', 'snd of non-Σ type Nat\n  while checking snd 0', 0, None),
    ('succ-bool', False): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('succ-bool', True): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('if-branches', False): (False, 'TypeCheckError', 'type mismatch: term false\n  has type      Bool\n  but expected  Nat', 0, None),
    ('if-branches', True): (False, 'TypeCheckError', 'type mismatch: term false\n  has type      Bool\n  but expected  Nat', 0, None),
    ('if-cond', False): (False, 'TypeCheckError', 'type mismatch: term 0\n  has type      Nat\n  but expected  Bool', 0, None),
    ('if-cond', True): (False, 'TypeCheckError', 'type mismatch: term 0\n  has type      Nat\n  but expected  Bool', 0, None),
    ('natelim-motive', False): (False, 'TypeCheckError', 'natelim motive has non-Π type Nat', 0, None),
    ('natelim-motive', True): (False, 'TypeCheckError', 'natelim motive has non-Π type Nat', 0, None),
    ('natelim-base', False): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  (λ (n : Nat). Nat) 0', 1, None),
    ('natelim-base', True): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  (λ ($cv0 : Nat). Nat) 0', 1, None),
    ('natelim-step', False): (False, 'TypeCheckError', 'type mismatch: term 0\n  has type      Nat\n  but expected  Π (n$1 : Nat). (λ (n : Nat). Nat) n$1 -> (λ (n : Nat). Nat) (succ n$1)', 1, None),
    ('natelim-step', True): (False, 'TypeCheckError', 'type mismatch: term 0\n  has type      Nat\n  but expected  Π (n$1 : Nat). (λ ($cv0 : Nat). Nat) n$1 -> (λ ($cv0 : Nat). Nat) (succ n$1)', 1, None),
    ('natelim-target', False): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('natelim-target', True): (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    ('dependent-mismatch', False): (False, 'TypeCheckError', 'type mismatch: term snd p\n  has type      Π (P : Nat -> ⋆). P (fst p) -> P 2\n  but expected  Π (P : Nat -> ⋆). P 2 -> P 2', 0, None),
    ('dependent-mismatch', True): (False, 'TypeCheckError', 'type mismatch: term snd p\n  has type      Π (P : Nat -> ⋆). P (fst p) -> P 2\n  but expected  Π ($cv0 : Nat -> ⋆). $cv0 2 -> $cv0 2', 0, None),
}


@pytest.mark.parametrize("interned", [False, True], ids=["raw", "interned"])
@pytest.mark.parametrize(
    "name, ctx, term",
    CORPUS + _NEGATIVE,
    ids=[name for name, _, _ in CORPUS + _NEGATIVE],
)
def test_typing_is_pinned(name, ctx, term, interned):
    assert _typing_record(ctx, term, interned) == _PINNED[name, interned]


#: The checker resolves context variables by name, so a later binder that
#: reuses a name captures an earlier binding's type: ``x : A`` is read at
#: the inner ``A``.  These pin that bug (ROADMAP open item 1) and must be
#: flipped to plain tests by the change that fixes it.
_SHADOWING_ILL_TYPED = [
    pytest.param(r"\ (A : Type) (x : A) (A : Type). (\ (z : A). z) x", id="lambda"),
    pytest.param(r"\ (A : Type) (x : A). exists (A : Type), forall (P : A -> Type), P x",
                 id="sigma"),
    pytest.param(r"\ (A : Type) (x : A). let A = Nat : Type in (\ (z : A). z) x", id="let"),
]


class TestShadowingCapture:
    @pytest.mark.xfail(strict=True, reason="context variables resolve by name (ROADMAP item 1)")
    @pytest.mark.parametrize("text", _SHADOWING_ILL_TYPED)
    def test_shadowing_binder_is_rejected(self, text):
        with pytest.raises(TypeCheckError):
            api.Session().check(text)

    @pytest.mark.xfail(strict=True, reason="context variables resolve by name (ROADMAP item 1)")
    def test_shadowed_well_typed_program_checks_and_runs(self):
        session = api.Session()
        text = r"\ (A : Type) (x : A) (A : Type) (y : A). x"
        star, var = cc.Star(), cc.Var
        # Π (A:⋆). A → Π (A′:⋆). A′ → A
        expected = cc.Pi("A", star, cc.arrow(var("A"), cc.Pi("B", star, cc.arrow(var("B"), var("A")))))
        assert cc.alpha_equal(session.check(text).type_, expected)
        session.run(text)
