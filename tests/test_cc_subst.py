"""Unit tests for CC substitution and α-equivalence."""

from repro import cc
from repro.cc.substitution import rename, subst, subst1


class TestSubstBasics:
    def test_var_hit(self):
        assert subst1(cc.Var("x"), "x", cc.Zero()) == cc.Zero()

    def test_var_miss(self):
        assert subst1(cc.Var("y"), "x", cc.Zero()) == cc.Var("y")

    def test_empty_mapping_is_identity(self):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert subst(term, {}) is term

    def test_irrelevant_mapping_shares_term(self):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert subst(term, {"q": cc.Zero()}) is term

    def test_parallel_is_simultaneous(self):
        # [y/x, x/y] swaps, it does not chain.
        term = cc.App(cc.Var("x"), cc.Var("y"))
        swapped = subst(term, {"x": cc.Var("y"), "y": cc.Var("x")})
        assert swapped == cc.App(cc.Var("y"), cc.Var("x"))

    def test_substitutes_in_annotations(self):
        term = cc.Lam("y", cc.Var("x"), cc.Var("y"))
        result = subst1(term, "x", cc.Nat())
        assert result == cc.Lam("y", cc.Nat(), cc.Var("y"))

    def test_pair_annotation_substituted(self):
        term = cc.Pair(cc.Var("x"), cc.Zero(), cc.Var("S"))
        result = subst(term, {"x": cc.Zero(), "S": cc.Nat()})
        assert result == cc.Pair(cc.Zero(), cc.Zero(), cc.Nat())


class TestBinders:
    def test_shadowed_name_untouched(self):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert subst1(term, "x", cc.Zero()) == term

    def test_shadowing_still_substitutes_domain(self):
        term = cc.Lam("x", cc.Var("x"), cc.Var("x"))  # domain x is free
        result = subst1(term, "x", cc.Nat())
        assert result.domain == cc.Nat()
        assert result.body == cc.Var(result.name)

    def test_capture_avoidance(self):
        # (λ y. x)[y/x] must NOT become λ y. y.
        term = cc.Lam("y", cc.Nat(), cc.Var("x"))
        result = subst1(term, "x", cc.Var("y"))
        assert isinstance(result, cc.Lam)
        assert result.name != "y"
        assert result.body == cc.Var("y")  # the substituted y, now not captured

    def test_capture_avoidance_in_pi(self):
        term = cc.Pi("y", cc.Nat(), cc.App(cc.Var("P"), cc.Var("x")))
        result = subst1(term, "x", cc.Var("y"))
        assert result.name != "y"
        assert cc.free_vars(result) == {"P", "y"}

    def test_capture_avoidance_in_let(self):
        term = cc.Let("y", cc.Zero(), cc.Nat(), cc.App(cc.Var("f"), cc.Var("x")))
        result = subst1(term, "x", cc.Var("y"))
        assert result.name != "y"

    def test_capture_avoidance_in_sigma(self):
        term = cc.Sigma("y", cc.Nat(), cc.App(cc.Var("P"), cc.Var("x")))
        result = subst1(term, "x", cc.Var("y"))
        assert result.name != "y"

    def test_rename(self):
        term = cc.App(cc.Var("x"), cc.Lam("x", cc.Nat(), cc.Var("x")))
        result = rename(term, "x", "z")
        assert result == cc.App(cc.Var("z"), cc.Lam("x", cc.Nat(), cc.Var("x")))

    def test_substitution_lemma_shape(self):
        # e[a/x][b/y] == e[b/y][a[b/y]/x] when x ∉ fv(b): the classic identity.
        e = cc.App(cc.Var("x"), cc.Var("y"))
        a = cc.App(cc.Var("y"), cc.Zero())
        b = cc.nat_literal(2)
        lhs = subst1(subst1(e, "x", a), "y", b)
        rhs = subst1(subst1(e, "y", b), "x", subst1(a, "y", b))
        assert cc.alpha_equal(lhs, rhs)


class TestAlphaEqual:
    def test_identical(self):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert cc.alpha_equal(term, term)

    def test_renamed_binder(self):
        assert cc.alpha_equal(
            cc.Lam("x", cc.Nat(), cc.Var("x")),
            cc.Lam("y", cc.Nat(), cc.Var("y")),
        )

    def test_free_vars_matter(self):
        assert not cc.alpha_equal(cc.Var("x"), cc.Var("y"))

    def test_bound_vs_free(self):
        # λx. x  vs  λx. y — not α-equal.
        assert not cc.alpha_equal(
            cc.Lam("x", cc.Nat(), cc.Var("x")),
            cc.Lam("x", cc.Nat(), cc.Var("y")),
        )

    def test_crossed_binders(self):
        # λx. λy. x  vs  λy. λx. x — NOT α-equal (inner binder differs).
        left = cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x")))
        right = cc.Lam("y", cc.Nat(), cc.Lam("x", cc.Nat(), cc.Var("x")))
        assert not cc.alpha_equal(left, right)

    def test_crossed_binders_matching(self):
        left = cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x")))
        right = cc.Lam("y", cc.Nat(), cc.Lam("x", cc.Nat(), cc.Var("y")))
        assert cc.alpha_equal(left, right)

    def test_domains_compared(self):
        assert not cc.alpha_equal(
            cc.Lam("x", cc.Nat(), cc.Var("x")),
            cc.Lam("x", cc.Bool(), cc.Var("x")),
        )

    def test_pi_and_sigma(self):
        assert cc.alpha_equal(
            cc.Pi("x", cc.Nat(), cc.Var("x")), cc.Pi("y", cc.Nat(), cc.Var("y"))
        )
        assert cc.alpha_equal(
            cc.Sigma("x", cc.Nat(), cc.Var("x")), cc.Sigma("y", cc.Nat(), cc.Var("y"))
        )

    def test_let_binder(self):
        assert cc.alpha_equal(
            cc.Let("x", cc.Zero(), cc.Nat(), cc.Var("x")),
            cc.Let("y", cc.Zero(), cc.Nat(), cc.Var("y")),
        )

    def test_different_node_types(self):
        assert not cc.alpha_equal(cc.Star(), cc.Box())
        assert not cc.alpha_equal(cc.Zero(), cc.BoolLit(False))

    def test_literals(self):
        assert cc.alpha_equal(cc.BoolLit(True), cc.BoolLit(True))
        assert not cc.alpha_equal(cc.BoolLit(True), cc.BoolLit(False))

    def test_shadowing_inside(self):
        left = cc.Lam("x", cc.Nat(), cc.Lam("x", cc.Nat(), cc.Var("x")))
        right = cc.Lam("y", cc.Nat(), cc.Lam("z", cc.Nat(), cc.Var("z")))
        assert cc.alpha_equal(left, right)

    def test_subst_then_alpha(self):
        # Substitution respects α-equivalence of results.
        left = subst1(cc.Lam("y", cc.Nat(), cc.Var("x")), "x", cc.Var("y"))
        right = cc.Lam("w", cc.Nat(), cc.Var("y"))
        assert cc.alpha_equal(left, right)
