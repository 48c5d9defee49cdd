"""Unit tests for CC reduction (paper Figure 2): δ, ζ, β, π1, π2, ι."""

import pytest

from repro import api, cc
from repro.cc.reduce import Budget, head_reducts, normalize_counting, normalize_subst, reduces_to
from repro.common.errors import NormalizationDepthExceeded
from repro.surface import parse_term


class TestAxioms:
    def test_beta(self, empty):
        term = cc.App(cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x"))), cc.Zero())
        assert head_reducts(empty, term) == [cc.Succ(cc.Zero())]

    def test_zeta(self, empty):
        term = cc.Let("x", cc.Zero(), cc.Nat(), cc.Succ(cc.Var("x")))
        assert head_reducts(empty, term) == [cc.Succ(cc.Zero())]

    def test_delta(self, empty):
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        assert head_reducts(ctx, cc.Var("two")) == [cc.nat_literal(2)]

    def test_delta_requires_definition(self, empty):
        ctx = empty.extend("x", cc.Nat())
        assert head_reducts(ctx, cc.Var("x")) == []

    def test_pi1(self, empty):
        pair = cc.Pair(cc.Zero(), cc.BoolLit(True), cc.Sigma("x", cc.Nat(), cc.Bool()))
        assert head_reducts(empty, cc.Fst(pair)) == [cc.Zero()]

    def test_pi2(self, empty):
        pair = cc.Pair(cc.Zero(), cc.BoolLit(True), cc.Sigma("x", cc.Nat(), cc.Bool()))
        assert head_reducts(empty, cc.Snd(pair)) == [cc.BoolLit(True)]

    def test_iota_if_true(self, empty):
        term = cc.If(cc.BoolLit(True), cc.Zero(), cc.nat_literal(1))
        assert head_reducts(empty, term) == [cc.Zero()]

    def test_iota_if_false(self, empty):
        term = cc.If(cc.BoolLit(False), cc.Zero(), cc.nat_literal(1))
        assert head_reducts(empty, term) == [cc.nat_literal(1)]

    def test_iota_natelim_zero(self, empty):
        term = cc.NatElim(cc.Var("P"), cc.Var("z"), cc.Var("s"), cc.Zero())
        assert head_reducts(empty, term) == [cc.Var("z")]

    def test_iota_natelim_succ(self, empty):
        term = cc.NatElim(cc.Var("P"), cc.Var("z"), cc.Var("s"), cc.Succ(cc.Zero()))
        [reduct] = head_reducts(empty, term)
        expected = cc.make_app(
            cc.Var("s"), cc.Zero(), cc.NatElim(cc.Var("P"), cc.Var("z"), cc.Var("s"), cc.Zero())
        )
        assert reduct == expected

    def test_no_axiom_at_neutral(self, empty):
        assert head_reducts(empty, cc.App(cc.Var("f"), cc.Zero())) == []
        assert head_reducts(empty, cc.Fst(cc.Var("p"))) == []


class TestWhnf:
    def test_whnf_stops_at_head(self, empty):
        inner_redex = cc.App(cc.Lam("y", cc.Nat(), cc.Var("y")), cc.Zero())
        term = cc.Pair(inner_redex, cc.Zero(), cc.Sigma("x", cc.Nat(), cc.Nat()))
        assert cc.whnf(empty, term) == term  # pairs are whnf; components untouched

    def test_whnf_chains(self, empty):
        term = parse_term(r"(\ (f : Nat -> Nat). f) (\ (x : Nat). x) 0")
        assert cc.whnf(empty, term) == cc.Zero()

    def test_whnf_unfolds_definitions_at_head(self, empty):
        ctx = empty.define("f", cc.Lam("x", cc.Nat(), cc.Var("x")), cc.arrow(cc.Nat(), cc.Nat()))
        assert cc.whnf(ctx, cc.App(cc.Var("f"), cc.Zero())) == cc.Zero()

    def test_whnf_preserves_neutral(self, empty):
        ctx = empty.extend("f", cc.arrow(cc.Nat(), cc.Nat()))
        term = cc.App(cc.Var("f"), cc.Zero())
        assert cc.whnf(ctx, term) == term


class TestNormalize:
    @pytest.mark.parametrize(
        "source, expected",
        [
            (r"(\ (x : Nat). succ x) 4", 5),
            (r"let y = 1 : Nat in succ y", 2),
            (r"if true then 1 else 0", 1),
            (r"fst (<3, true> as (exists (x : Nat), Bool))", 3),
            (r"natelim(\ (k : Nat). Nat, 2, \ (k : Nat) (ih : Nat). succ ih, 3)", 5),
        ],
    )
    def test_ground_programs(self, empty, source, expected):
        assert cc.nat_value(cc.normalize(empty, parse_term(source))) == expected

    def test_normalize_under_binders(self, empty):
        term = parse_term(r"\ (x : Nat). (\ (y : Nat). y) x")
        assert cc.normalize(empty, term) == cc.Lam("x", cc.Nat(), cc.Var("x"))

    def test_normalize_domain(self, empty):
        term = cc.Lam("x", cc.App(cc.Lam("A", cc.Star(), cc.Var("A")), cc.Nat()), cc.Var("x"))
        assert cc.normalize(empty, term) == cc.Lam("x", cc.Nat(), cc.Var("x"))

    def test_normal_forms_are_let_free(self, empty):
        term = parse_term(r"\ (x : Nat). let y = x : Nat in <y, y> as (exists (a : Nat), Nat)")
        normal = cc.normalize(empty, term)
        assert not any(isinstance(sub, cc.Let) for sub in cc.subterms(normal))

    def test_bound_var_shadows_definition(self, empty):
        # With x := 5 in the context, λ x:Nat. x must NOT unfold the bound x.
        ctx = empty.define("x", cc.nat_literal(5), cc.Nat())
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert cc.normalize(ctx, term) == term

    def test_normalize_is_idempotent(self, empty):
        term = parse_term(r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5")
        once = cc.normalize(empty, term)
        assert cc.normalize(empty, once) == once

    def test_church_arithmetic(self, empty):
        from repro.cc import prelude

        total = cc.make_app(prelude.church_add, prelude.church_nat(3), prelude.church_nat(4))
        assert cc.equivalent(empty, total, prelude.church_nat(7))

    def test_fuel_exhaustion_raises(self, empty):
        from repro.cc import prelude

        big = cc.make_app(prelude.nat_add, cc.nat_literal(30), cc.nat_literal(30))
        with pytest.raises(NormalizationDepthExceeded):
            cc.normalize(empty, big, Budget(remaining=3))

    def test_counting(self, empty):
        term = parse_term(r"(\ (x : Nat). succ x) 4")
        normal, steps = normalize_counting(empty, term)
        assert cc.nat_value(normal) == 5
        assert steps == 1  # exactly the single β step


class TestReducts:
    def test_congruence_positions(self, empty):
        redex = cc.App(cc.Lam("x", cc.Nat(), cc.Var("x")), cc.Zero())
        term = cc.Pair(redex, redex, cc.Sigma("x", cc.Nat(), cc.Nat()))
        results = cc.reducts(empty, term)
        assert len(results) == 2  # one per component

    def test_head_and_congruence_together(self, empty):
        # (λx. ((λy.y) 0)) 1 has the head β-redex and the inner one.
        inner = cc.App(cc.Lam("y", cc.Nat(), cc.Var("y")), cc.Zero())
        term = cc.App(cc.Lam("x", cc.Nat(), inner), cc.nat_literal(1))
        assert len(cc.reducts(empty, term)) == 2

    def test_let_body_sees_definition(self, empty):
        # Inside `let x = 0 in x`, the body's x can δ-step.
        term = cc.Let("x", cc.Zero(), cc.Nat(), cc.Var("x"))
        results = cc.reducts(empty, term)
        # ζ at the root and δ inside the body both yield 0-ish results.
        assert cc.Zero() in results
        assert cc.Let("x", cc.Zero(), cc.Nat(), cc.Zero()) in results

    def test_normal_form_has_no_reducts(self, empty):
        assert cc.reducts(empty, cc.Lam("x", cc.Nat(), cc.Var("x"))) == []
        assert cc.reducts(empty, cc.nat_literal(3)) == []

    def test_reduces_to(self, empty):
        term = parse_term(r"(\ (x : Nat). succ x) ((\ (y : Nat). y) 1)")
        assert reduces_to(empty, term, cc.nat_literal(2))

    def test_reducts_match_normalization(self, empty):
        # Any single step keeps the normal form (confluence smoke test).
        term = parse_term(r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5")
        normal = cc.normalize(empty, term)
        for reduct in cc.reducts(empty, term):
            assert cc.normalize(empty, reduct) == normal


#: ``x = Nat : ⋆, T = x : ⋆``: unfolding ``T`` under a binder named ``x``
#: must not let the binder capture the definition's ``x``.
_DELTA_CAPTURE_CTX = cc.Context.empty().define("x", cc.Nat(), cc.Star()).define(
    "T", cc.Var("x"), cc.Star()
)


class TestDeltaCapture:
    @pytest.mark.parametrize("engine", ["nbe", "subst"])
    @pytest.mark.parametrize("through", ["kernel", "session"])
    def test_unfolded_definition_is_not_captured(self, engine, through):
        term = cc.Pi("x", cc.Nat(), cc.Var("T"))
        if through == "session":
            normal = api.Session().normalize(term, _DELTA_CAPTURE_CTX, engine=engine).value
        elif engine == "nbe":
            normal = cc.normalize(_DELTA_CAPTURE_CTX, term)
        else:
            normal = normalize_subst(_DELTA_CAPTURE_CTX, term)
        assert cc.alpha_equal(normal, cc.arrow(cc.Nat(), cc.Nat()))
