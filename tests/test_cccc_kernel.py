"""Unit tests for the CC-CC kernel (paper Figures 5–7): syntax, reduction,
typing of code and closures."""

import gc

import pytest

from repro import cccc
from repro.cccc.ntuple import bind_env, env_sigma, env_tuple
from repro.common.errors import TypeCheckError


def _identity_code(arg_type: cccc.Term) -> cccc.CodeLam:
    """``λ (n:1, x:arg_type). x`` — closed code with an empty environment."""
    return cccc.CodeLam("n", cccc.Unit(), "x", arg_type, cccc.Var("x"))


def _const_closure(value: cccc.Term, arg_type: cccc.Term) -> cccc.Clo:
    """``⟨⟨λ (n:1, x:arg_type). value, ⟨⟩⟩⟩`` (value must be closed)."""
    return cccc.Clo(
        cccc.CodeLam("n", cccc.Unit(), "x", arg_type, value), cccc.UnitVal()
    )


class TestSyntax:
    def test_free_vars_of_code(self):
        code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        assert cccc.free_vars(code) == set()

    def test_code_env_binds_arg_type(self):
        # env name n is bound in the argument annotation.
        code = cccc.CodeLam(
            "n", env_sigma([cccc.Binding("A", cccc.Star())]), "x", cccc.Fst(cccc.Var("n")), cccc.Var("x")
        )
        assert cccc.free_vars(code) == set()

    def test_open_code_has_free_vars(self):
        code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("y"))
        assert cccc.free_vars(code) == {"y"}

    def test_clo_components_free(self):
        clo = cccc.Clo(cccc.Var("c"), cccc.Var("e"))
        assert cccc.free_vars(clo) == {"c", "e"}

    def test_alpha_equal_code(self):
        left = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        right = cccc.CodeLam("m", cccc.Unit(), "y", cccc.Nat(), cccc.Var("y"))
        assert cccc.alpha_equal(left, right)

    def test_alpha_unequal_bodies(self):
        left = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        right = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Zero())
        assert not cccc.alpha_equal(left, right)

    def test_subst_respects_code_binders(self):
        code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        assert cccc.subst1(code, "x", cccc.Zero()) == code

    def test_subst_capture_avoidance_env_binder(self):
        # Substituting a term mentioning n under the env binder n must rename.
        code_type = cccc.CodeType("n", cccc.Unit(), "x", cccc.Var("q"), cccc.Nat())
        result = cccc.subst1(code_type, "q", cccc.Var("n"))
        assert isinstance(result, cccc.CodeType)
        assert result.env_name != "n"
        assert result.arg_type == cccc.Var("n")


class TestReduction:
    def test_closure_beta(self, empty_target):
        clo = _const_closure(cccc.nat_literal(5), cccc.Nat())
        term = cccc.App(clo, cccc.Zero())
        assert cccc.normalize(empty_target, term) == cccc.nat_literal(5)

    def test_closure_beta_uses_env(self, empty_target):
        # code: λ (n:Σ(y:Nat), x:Nat). let y = fst n in y ; env ⟨7⟩.
        tele = [cccc.Binding("y", cccc.Nat())]
        code = cccc.CodeLam(
            "n",
            env_sigma(tele),
            "x",
            cccc.Nat(),
            bind_env(tele, cccc.Var("n"), cccc.Var("y")),
        )
        clo = cccc.Clo(code, env_tuple(tele, [cccc.nat_literal(7)]))
        assert cccc.normalize(empty_target, cccc.App(clo, cccc.Zero())) == cccc.nat_literal(7)

    def test_beta_axiom_is_syntactic(self, empty_target):
        clo = _const_closure(cccc.Zero(), cccc.Nat())
        [reduct] = cccc.head_reducts(empty_target, cccc.App(clo, cccc.Zero()))
        assert reduct == cccc.Zero()

    def test_no_beta_for_neutral_code(self, empty_target):
        ctx = empty_target.extend(
            "c", cccc.CodeType("n", cccc.Unit(), "x", cccc.Nat(), cccc.Nat())
        )
        term = cccc.App(cccc.Clo(cccc.Var("c"), cccc.UnitVal()), cccc.Zero())
        assert cccc.head_reducts(ctx, term) == []
        assert cccc.whnf(ctx, term) == term

    def test_delta_unfolds_code_through_closure(self, empty_target):
        code = _identity_code(cccc.Nat())
        code_type = cccc.infer(empty_target, code)
        ctx = empty_target.define("idc", code, code_type)
        term = cccc.App(cccc.Clo(cccc.Var("idc"), cccc.UnitVal()), cccc.nat_literal(2))
        assert cccc.normalize(ctx, term) == cccc.nat_literal(2)

    def test_projections_and_let(self, empty_target):
        pair = cccc.Pair(cccc.Zero(), cccc.BoolLit(True), cccc.Sigma("x", cccc.Nat(), cccc.Bool()))
        assert cccc.normalize(empty_target, cccc.Fst(pair)) == cccc.Zero()
        assert cccc.normalize(empty_target, cccc.Snd(pair)) == cccc.BoolLit(True)
        let = cccc.Let("x", cccc.Zero(), cccc.Nat(), cccc.Succ(cccc.Var("x")))
        assert cccc.normalize(empty_target, let) == cccc.nat_literal(1)

    def test_natelim_with_closure_step(self, empty_target):
        # The step function is a closure after conversion.
        step_inner = _const_closure(cccc.nat_literal(9), cccc.Nat())
        step = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "k", cccc.Nat(), step_inner), cccc.UnitVal()
        )
        motive = _const_closure(cccc.Nat(), cccc.Nat())
        term = cccc.NatElim(motive, cccc.Zero(), step, cccc.nat_literal(1))
        assert cccc.normalize(empty_target, term) == cccc.nat_literal(9)

    def test_reducts_enumeration(self, empty_target):
        clo = _const_closure(cccc.Zero(), cccc.Nat())
        redex = cccc.App(clo, cccc.Zero())
        pair = cccc.Pair(redex, redex, cccc.Sigma("x", cccc.Nat(), cccc.Nat()))
        assert len(cccc.reducts(empty_target, pair)) == 2


class TestTyping:
    def test_unit(self, empty_target):
        assert cccc.infer(empty_target, cccc.Unit()) == cccc.Star()
        assert cccc.infer(empty_target, cccc.UnitVal()) == cccc.Unit()

    def test_code_rule(self, empty_target):
        code = _identity_code(cccc.Nat())
        code_type = cccc.infer(empty_target, code)
        assert isinstance(code_type, cccc.CodeType)
        assert code_type.env_type == cccc.Unit()
        assert code_type.arg_type == cccc.Nat()

    def test_code_must_be_closed(self, empty_target):
        # [Code]'s whole point: the body cannot mention ambient variables.
        ctx = empty_target.extend("y", cccc.Nat())
        open_code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("y"))
        with pytest.raises(TypeCheckError, match="not closed"):
            cccc.infer(ctx, open_code)

    def test_clo_rule_substitutes_env(self, empty_target):
        # The paper's example: closure type is Π x:A[e′/n]. B[e′/n].
        tele = [cccc.Binding("A", cccc.Star())]
        code = cccc.CodeLam(
            "n",
            env_sigma(tele),
            "x",
            bind_env(tele, cccc.Var("n"), cccc.Var("A")),
            bind_env(tele, cccc.Var("n"), cccc.Var("x")),
        )
        ctx = empty_target.extend("A", cccc.Star())
        clo = cccc.Clo(code, env_tuple(tele, [cccc.Var("A")]))
        clo_type = cccc.infer(ctx, clo)
        assert cccc.equivalent(ctx, clo_type, cccc.Pi("x", cccc.Var("A"), cccc.Var("A")))

    def test_clo_env_type_checked(self, empty_target):
        code = cccc.CodeLam("n", cccc.Nat(), "x", cccc.Nat(), cccc.Var("x"))
        with pytest.raises(TypeCheckError):
            cccc.infer(empty_target, cccc.Clo(code, cccc.BoolLit(True)))

    def test_clo_over_non_code(self, empty_target):
        with pytest.raises(TypeCheckError, match="non-code"):
            cccc.infer(empty_target, cccc.Clo(cccc.Zero(), cccc.UnitVal()))

    def test_application_of_closure(self, empty_target):
        clo = _const_closure(cccc.nat_literal(5), cccc.Nat())
        term = cccc.App(clo, cccc.Zero())
        assert cccc.equivalent(empty_target, cccc.infer(empty_target, term), cccc.Nat())

    def test_code_type_formation_star(self, empty_target):
        # [T-Code-⋆]: impredicative — env type may be large, result small.
        large_env = cccc.Sigma("A", cccc.Star(), cccc.Unit())
        code_type = cccc.CodeType("n", large_env, "x", cccc.Nat(), cccc.Nat())
        assert cccc.infer(empty_target, code_type) == cccc.Star()

    def test_code_type_formation_box(self, empty_target):
        code_type = cccc.CodeType("n", cccc.Unit(), "x", cccc.Nat(), cccc.Star())
        assert cccc.infer(empty_target, code_type) == cccc.Box()

    def test_pi_classifies_closures_not_lambdas(self, empty_target):
        # There is no Lam in CC-CC; Π is inhabited via [Clo].
        clo = _const_closure(cccc.Zero(), cccc.Nat())
        inferred = cccc.whnf(empty_target, cccc.infer(empty_target, clo))
        assert isinstance(inferred, cccc.Pi)

    def test_dependent_code_result(self, empty_target):
        # code: λ (n:1, A:⋆). ⟨⟨id-code, ⟨A⟩⟩⟩ — the compiled polymorphic id.
        tele = [cccc.Binding("A", cccc.Star())]
        inner = cccc.CodeLam(
            "n2",
            env_sigma(tele),
            "x",
            bind_env(tele, cccc.Var("n2"), cccc.Var("A")),
            bind_env(tele, cccc.Var("n2"), cccc.Var("x")),
        )
        outer = cccc.CodeLam(
            "n1",
            cccc.Unit(),
            "A",
            cccc.Star(),
            cccc.Clo(inner, env_tuple(tele, [cccc.Var("A")])),
        )
        whole = cccc.Clo(outer, cccc.UnitVal())
        expected = cccc.Pi("A", cccc.Star(), cccc.Pi("x", cccc.Var("A"), cccc.Var("A")))
        assert cccc.equivalent(empty_target, cccc.infer(empty_target, whole), expected)

    def test_context_checking(self, empty_target):
        code = _identity_code(cccc.Nat())
        ctx = empty_target.define("idc", code, cccc.infer(empty_target, code))
        cccc.check_context(ctx)


class TestNTupleSugar:
    def test_env_sigma_empty(self):
        assert env_sigma([]) == cccc.Unit()

    def test_env_sigma_nested(self):
        tele = [cccc.Binding("x", cccc.Nat()), cccc.Binding("y", cccc.Bool())]
        assert env_sigma(tele) == cccc.Sigma(
            "x", cccc.Nat(), cccc.Sigma("y", cccc.Bool(), cccc.Unit())
        )

    def test_env_tuple_typechecks_dependently(self, empty_target):
        # Telescope Σ(A:⋆, x:A) with values (Nat, 0).
        tele = [cccc.Binding("A", cccc.Star()), cccc.Binding("x", cccc.Var("A"))]
        tup = env_tuple(tele, [cccc.Nat(), cccc.Zero()])
        inferred = cccc.infer(empty_target, tup)
        assert cccc.equivalent(empty_target, inferred, env_sigma(tele))

    def test_env_tuple_leaves_no_cyclic_garbage(self):
        tele = [
            cccc.Binding("A", cccc.Star()),
            cccc.Binding("x", cccc.Var("A")),
            cccc.Binding("y", cccc.Nat()),
        ]
        values = [cccc.Nat(), cccc.Zero(), cccc.nat_literal(2)]
        gc.collect()
        gc.disable()
        try:
            env_tuple(tele, values)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_env_tuple_arity_mismatch(self):
        with pytest.raises(ValueError):
            env_tuple([cccc.Binding("x", cccc.Nat())], [])

    def test_project(self, empty_target):
        tele = [cccc.Binding(name, cccc.Nat()) for name in "abc"]
        tup = env_tuple(tele, [cccc.nat_literal(i) for i in range(3)])
        from repro.cccc.ntuple import project

        for index in range(3):
            value = cccc.normalize(empty_target, project(tup, index))
            assert cccc.nat_value(value) == index

    def test_bind_env_rebinding(self, empty_target):
        tele = [cccc.Binding("a", cccc.Nat()), cccc.Binding("b", cccc.Nat())]
        tup = env_tuple(tele, [cccc.nat_literal(3), cccc.nat_literal(4)])
        body = bind_env(tele, tup, cccc.Succ(cccc.Var("b")))
        assert cccc.nat_value(cccc.normalize(empty_target, body)) == 5

    def test_bind_env_dependent_annotations(self, empty_target):
        # Σ(A:⋆, x:A): the second let's annotation mentions the first binder.
        tele = [cccc.Binding("A", cccc.Star()), cccc.Binding("x", cccc.Var("A"))]
        tup = env_tuple(tele, [cccc.Nat(), cccc.nat_literal(2)])
        body = bind_env(tele, tup, cccc.Var("x"))
        assert cccc.equivalent(empty_target, cccc.infer(empty_target, body), cccc.Nat())
        assert cccc.nat_value(cccc.normalize(empty_target, body)) == 2

    def test_definition_entry_is_a_let(self):
        tele = [cccc.Binding("T", cccc.Star(), cccc.Nat()), cccc.Binding("x", cccc.Var("T"))]
        assert env_sigma(tele) == cccc.Let(
            "T", cccc.Nat(), cccc.Star(), cccc.Sigma("x", cccc.Var("T"), cccc.Unit())
        )
        assert cccc.tuple_values(env_tuple(tele, [cccc.Zero()])) == [cccc.Zero()]
        with pytest.raises(ValueError):
            env_tuple(tele, [cccc.Nat(), cccc.Zero()])

    def test_code_sees_a_definition_entry(self, empty_target):
        # Σ(T = Nat : ⋆, x : T): the code's argument has type T, and its
        # body needs T ≡ Nat, which only the pattern let's definition gives.
        tele = [cccc.Binding("T", cccc.Star(), cccc.Nat()), cccc.Binding("x", cccc.Var("T"))]
        env = cccc.Var("n")
        code = cccc.CodeLam(
            "n", env_sigma(tele), "y",
            bind_env(tele, env, cccc.Var("T")),
            bind_env(tele, env, cccc.Succ(cccc.Var("y"))),
        )
        clo = cccc.Clo(code, env_tuple(tele, [cccc.nat_literal(2)]))
        assert cccc.equivalent(
            empty_target, cccc.infer(empty_target, clo), cccc.arrow(cccc.Nat(), cccc.Nat())
        )
        result = cccc.normalize(empty_target, cccc.App(clo, cccc.nat_literal(4)))
        assert cccc.nat_value(result) == 5

    def test_tuple_values_roundtrip(self):
        from repro.cccc.ntuple import tuple_values

        tele = [cccc.Binding("a", cccc.Nat()), cccc.Binding("b", cccc.Bool())]
        values = [cccc.Zero(), cccc.BoolLit(False)]
        assert tuple_values(env_tuple(tele, values)) == values
        assert tuple_values(cccc.Zero()) is None


class TestClosureEta:
    def test_inlined_vs_captured(self, empty_target):
        # ⟨⟨λ(n:Σ(y:Nat),x). y, ⟨5⟩⟩⟩ ≡ ⟨⟨λ(n:1,x). 5, ⟨⟩⟩⟩ — [≡-Clo].
        tele = [cccc.Binding("y", cccc.Nat())]
        captured = cccc.Clo(
            cccc.CodeLam(
                "n", env_sigma(tele), "x", cccc.Nat(),
                bind_env(tele, cccc.Var("n"), cccc.Var("y")),
            ),
            env_tuple(tele, [cccc.nat_literal(5)]),
        )
        inlined = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.nat_literal(5)),
            cccc.UnitVal(),
        )
        assert cccc.equivalent(empty_target, captured, inlined)

    def test_different_values_not_equal(self, empty_target):
        five = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.nat_literal(5)), cccc.UnitVal()
        )
        six = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.nat_literal(6)), cccc.UnitVal()
        )
        assert not cccc.equivalent(empty_target, five, six)

    def test_clo_eta_against_neutral(self, empty_target):
        # ⟨⟨λ(n:1,x). f x, ⟨⟩⟩⟩ ≡ f for neutral f — [≡-Clo1] with free arg.
        ctx = empty_target.extend("f", cccc.Pi("x", cccc.Nat(), cccc.Nat()))
        eta = cccc.Clo(
            cccc.CodeLam(
                "n", cccc.Unit(), "x", cccc.Nat(), cccc.App(cccc.Var("f"), cccc.Var("x"))
            ),
            cccc.UnitVal(),
        )
        # f is free in the body, so this code is open — but equivalence is
        # untyped and the η rule still applies.
        assert cccc.equivalent(ctx, eta, cccc.Var("f"))
        assert cccc.equivalent(ctx, cccc.Var("f"), eta)

    def test_env_extension_invariance(self, empty_target):
        # A closure that ignores an extra captured variable equals the lean one.
        lean_tele = [cccc.Binding("y", cccc.Nat())]
        fat_tele = [cccc.Binding("y", cccc.Nat()), cccc.Binding("z", cccc.Bool())]
        lean = cccc.Clo(
            cccc.CodeLam(
                "n", env_sigma(lean_tele), "x", cccc.Nat(),
                bind_env(lean_tele, cccc.Var("n"), cccc.Var("y")),
            ),
            env_tuple(lean_tele, [cccc.nat_literal(1)]),
        )
        fat = cccc.Clo(
            cccc.CodeLam(
                "n", env_sigma(fat_tele), "x", cccc.Nat(),
                bind_env(fat_tele, cccc.Var("n"), cccc.Var("y")),
            ),
            env_tuple(fat_tele, [cccc.nat_literal(1), cccc.BoolLit(True)]),
        )
        assert cccc.equivalent(empty_target, lean, fat)

    def test_eta_differing_argument_use(self, empty_target):
        # λx. succ x as closure ≢ λx. succ 0 as closure.
        left = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Succ(cccc.Var("x"))),
            cccc.UnitVal(),
        )
        right = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Succ(cccc.Zero())),
            cccc.UnitVal(),
        )
        assert not cccc.equivalent(empty_target, left, right)
