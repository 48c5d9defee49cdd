"""Unit tests for the incremental whnf-driven conversion engine.

Covers what the old normalize-then-compare procedure could not do:

* deciding equivalence of 10k-node-deep terms without blowing the Python
  stack (the walk is an explicit work-list, not recursion);
* fail-fast on divergent heads — zero reduction steps spent when the
  outermost constructors already disagree;
* O(1) short-circuits on pointer-shared and previously-interned subterms,
  observable as equivalence succeeding under a budget far too small to
  normalize either side;
* η edge cases in both orders for CC (λ vs neutral) and CC-CC (closure vs
  neutral), and the domain/annotation irrelevance the paper's untyped
  rules prescribe.
"""

from __future__ import annotations

import pytest

from repro import cc, cccc
from repro.cc import prelude
from repro.common.errors import NormalizationDepthExceeded
from repro.common.names import reset_fresh_counter
from repro.kernel.budget import Budget

DEEP = 10_000


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_fresh_counter()
    yield


def _succ_tower(n: int, core: cc.Term) -> cc.Term:
    term = core
    for _ in range(n):
        term = cc.Succ(term)
    return term


def _lam_nest(n: int, base_name: str) -> cc.Term:
    body: cc.Term = cc.Var(base_name + "0")
    for index in range(n - 1, -1, -1):
        body = cc.Lam(f"{base_name}{index}", cc.Nat(), body)
    return body


class TestDeepTerms:
    """The conversion walk survives terms the kernel traversals support."""

    def test_deep_succ_towers_equal(self, empty):
        left = _succ_tower(DEEP, cc.Zero())
        right = _succ_tower(DEEP, cc.Zero())
        assert cc.equivalent(empty, left, right)

    def test_deep_succ_towers_differ_at_core(self, empty):
        left = _succ_tower(DEEP, cc.Zero())
        right = _succ_tower(DEEP, cc.Var("x"))
        assert not cc.equivalent(empty, left, right)

    def test_deep_lambda_nests_alpha_variant(self, empty):
        left = _lam_nest(DEEP, "x")
        right = _lam_nest(DEEP, "y")
        assert cc.equivalent(empty, left, right)

    def test_deep_pair_towers_cccc(self, empty_target):
        annot = cccc.Sigma("t", cccc.Nat(), cccc.Nat())

        def tower(n: int) -> cccc.Term:
            term: cccc.Term = cccc.Zero()
            for _ in range(n):
                term = cccc.Pair(term, cccc.Zero(), annot)
            return term

        assert cccc.equivalent(empty_target, tower(DEEP), tower(DEEP))


class TestFailFast:
    def test_divergent_heads_spend_nothing(self, empty):
        # Two large terms that disagree at the outermost constructor: the
        # engine answers without one reduction step or subterm visit.
        big = _succ_tower(2_000, cc.Zero())
        left = cc.Sigma("x", cc.Nat(), cc.Sigma("y", cc.Nat(), cc.Nat()))
        right = cc.Pi("x", cc.Nat(), cc.Nat())
        budget = Budget()
        assert not cc.equivalent(empty, cc.Pair(big, big, left), cc.Lam("z", right, big), budget)
        assert budget.spent == 0

    def test_shared_subterm_skips_normalization(self, empty):
        # The shared argument would cost thousands of steps to normalize;
        # pointer identity answers before any of them are spent.
        expensive = cc.make_app(prelude.nat_add, cc.nat_literal(40), cc.nat_literal(40))
        left = cc.App(cc.Var("f"), expensive)
        right = cc.App(cc.Var("f"), expensive)
        budget = Budget(remaining=2)  # far too little to run nat_add
        assert cc.equivalent(empty, left, right, budget)

    def test_interned_variants_hit_the_probe(self, empty):
        # α-variants interned beforehand compare via the intern memo —
        # again without touching the (unaffordable) β-redexes inside.
        redex = cc.App(cc.Lam("k", cc.Nat(), cc.Var("k")), cc.nat_literal(30))
        left = cc.Lam("x", cc.Nat(), cc.Pair(cc.Var("x"), redex, cc.Sigma("s", cc.Nat(), cc.Nat())))
        right = cc.Lam("y", cc.Nat(), cc.Pair(cc.Var("y"), redex, cc.Sigma("t", cc.Nat(), cc.Nat())))
        assert cc.intern(left) is cc.intern(right)
        budget = Budget(remaining=0)
        assert cc.equivalent(empty, left, right, budget)
        assert budget.spent == 0


class TestEtaEdgeCases:
    def test_lambda_vs_neutral_both_orders(self, empty):
        ctx = empty.extend("f", cc.arrow(cc.Nat(), cc.Nat()))
        expanded = cc.Lam("x", cc.Nat(), cc.App(cc.Var("f"), cc.Var("x")))
        assert cc.equivalent(ctx, expanded, cc.Var("f"))
        assert cc.equivalent(ctx, cc.Var("f"), expanded)

    def test_lambda_vs_neutral_negative_both_orders(self, empty):
        ctx = empty.extend("f", cc.arrow(cc.Nat(), cc.Nat()))
        constant = cc.Lam("x", cc.Nat(), cc.App(cc.Var("f"), cc.Zero()))
        assert not cc.equivalent(ctx, constant, cc.Var("f"))
        assert not cc.equivalent(ctx, cc.Var("f"), constant)

    def test_eta_under_binder(self, empty):
        # η must also fire below the root, where the walk has crossed a Π.
        ctx = empty.extend("g", cc.arrow(cc.Nat(), cc.arrow(cc.Nat(), cc.Nat())))
        inner = cc.Lam("y", cc.Nat(), cc.App(cc.App(cc.Var("g"), cc.Var("x")), cc.Var("y")))
        left = cc.Lam("x", cc.Nat(), inner)
        right = cc.Lam("x", cc.Nat(), cc.App(cc.Var("g"), cc.Var("x")))
        assert cc.equivalent(ctx, left, right)
        assert cc.equivalent(ctx, right, left)

    def test_shadowed_definition_stays_neutral(self, empty):
        # A binder shadowing a δ-definition must not unfold inside its body.
        ctx = empty.define("x", cc.nat_literal(3), cc.Nat())
        left = cc.Lam("x", cc.Nat(), cc.Var("x"))
        right = cc.Lam("y", cc.Nat(), cc.Var("y"))
        assert cc.equivalent(ctx, left, right)
        assert not cc.equivalent(ctx, left, cc.Lam("y", cc.Nat(), cc.nat_literal(3)))
        # ... while free occurrences still δ-reduce:
        assert cc.equivalent(ctx, cc.Var("x"), cc.nat_literal(3))


    @pytest.mark.xfail(strict=True, reason="conversion masks a definition that a binder "
                       "shadows instead of renaming the binder (ROADMAP item 14)")
    def test_unfolded_definition_is_not_captured(self):
        # x = Nat : ⋆, T = x : ⋆ ⊢ Π (x : Nat). T ≡ Nat -> Nat.
        ctx = cc.Context.empty().define("x", cc.Nat(), cc.Star()).define(
            "T", cc.Var("x"), cc.Star()
        )
        left = cc.Pi("x", cc.Nat(), cc.Var("T"))
        assert cc.equivalent(ctx, left, cc.arrow(cc.Nat(), cc.Nat()))


def _identity_closure(env_val: cccc.Term, env_type: cccc.Term) -> cccc.Clo:
    code = cccc.CodeLam("env", env_type, "a", cccc.Nat(), cccc.Var("a"))
    return cccc.Clo(code, env_val)


class TestClosureEta:
    def test_different_environments_same_behaviour(self, empty_target):
        # Two identity closures over different environments are equal by
        # [≡-Clo1/2] even though they differ structurally.
        left = _identity_closure(cccc.Zero(), cccc.Nat())
        right = _identity_closure(cccc.BoolLit(True), cccc.Bool())
        assert cccc.equivalent(empty_target, left, right)

    def test_closure_vs_neutral_both_orders(self, empty_target):
        # ⟨⟨λ(e,a). f a, tt⟩⟩ ≡ f for a neutral f, in both orders.
        ctx = empty_target.extend("f", cccc.arrow(cccc.Nat(), cccc.Nat()))
        code = cccc.CodeLam(
            "env", cccc.Unit(), "a", cccc.Nat(), cccc.App(cccc.Var("f"), cccc.Var("a"))
        )
        clo = cccc.Clo(code, cccc.UnitVal())
        assert cccc.equivalent(ctx, clo, cccc.Var("f"))
        assert cccc.equivalent(ctx, cccc.Var("f"), clo)

    def test_closure_vs_neutral_negative(self, empty_target):
        ctx = empty_target.extend("f", cccc.arrow(cccc.Nat(), cccc.Nat()))
        code = cccc.CodeLam(
            "env", cccc.Unit(), "a", cccc.Nat(), cccc.App(cccc.Var("f"), cccc.Zero())
        )
        clo = cccc.Clo(code, cccc.UnitVal())
        assert not cccc.equivalent(ctx, clo, cccc.Var("f"))
        assert not cccc.equivalent(ctx, cccc.Var("f"), clo)

    def test_delta_defined_code_still_opens(self, empty_target):
        # The closure's code position hides behind a definition; the
        # prepare hook exposes it so the η-rule still fires.
        code = cccc.CodeLam("env", cccc.Unit(), "a", cccc.Nat(), cccc.Var("a"))
        ctx = empty_target.define(
            "c", code, cccc.CodeType("env", cccc.Unit(), "a", cccc.Nat(), cccc.Nat())
        )
        left = cccc.Clo(cccc.Var("c"), cccc.UnitVal())
        right = cccc.Clo(code, cccc.UnitVal())
        assert cccc.equivalent(ctx, left, right)

    def test_env_inlining_degrees_equal(self, empty_target):
        # The Section 5.1 shape: one closure captured `zero` in its
        # environment, the other inlined it into the code body.
        captured_code = cccc.CodeLam(
            "env", cccc.Nat(), "a", cccc.Nat(), cccc.App(cccc.App(cccc.Var("add"), cccc.Var("env")), cccc.Var("a"))
        )
        inlined_code = cccc.CodeLam(
            "env", cccc.Unit(), "a", cccc.Nat(), cccc.App(cccc.App(cccc.Var("add"), cccc.Zero()), cccc.Var("a"))
        )
        ctx = empty_target.extend(
            "add", cccc.arrow(cccc.Nat(), cccc.arrow(cccc.Nat(), cccc.Nat()))
        )
        left = cccc.Clo(captured_code, cccc.Zero())
        right = cccc.Clo(inlined_code, cccc.UnitVal())
        assert cccc.equivalent(ctx, left, right)


class TestBudgetSemantics:
    def test_exhaustion_point_is_deterministic(self, empty):
        redex = cc.make_app(prelude.nat_add, cc.nat_literal(16), cc.nat_literal(16))
        reset_fresh_counter()
        with pytest.raises(NormalizationDepthExceeded):
            cc.equivalent(empty, redex, cc.nat_literal(32), Budget(remaining=5))
        # Warm caches replay the recorded fuel and exhaust identically.
        cold = Budget(remaining=5)
        with pytest.raises(NormalizationDepthExceeded):
            cc.equivalent(empty, redex, cc.nat_literal(32), cold)
        assert cold.spent == 5
        assert cold.remaining == 0

    def test_verdicts_replay_steps(self, empty):
        redex = cc.make_app(prelude.nat_add, cc.nat_literal(8), cc.nat_literal(8))
        literal = cc.nat_literal(16)
        first = Budget()
        assert cc.equivalent(empty, redex, literal, first)
        again = Budget()
        assert cc.equivalent(empty, redex, literal, again)
        assert first.spent == again.spent > 0
