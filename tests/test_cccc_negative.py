"""Negative battery for the CC-CC kernel: every rule's failure modes.

Type safety of the target hinges on the kernel *rejecting* bad programs;
each test here is an ill-typed term with a specific broken premise.
"""

import pytest

from repro import cccc
from repro.cccc.ntuple import env_sigma, env_tuple
from repro.common.errors import TypeCheckError


def _expect_reject(ctx, term):
    with pytest.raises(TypeCheckError):
        cccc.infer(ctx, term)


class TestCodeRejections:
    def test_open_body(self, empty_target):
        ctx = empty_target.extend("stray", cccc.Nat())
        _expect_reject(
            ctx, cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("stray"))
        )

    def test_open_env_type(self, empty_target):
        ctx = empty_target.extend("T", cccc.Star())
        _expect_reject(
            ctx, cccc.CodeLam("n", cccc.Var("T"), "x", cccc.Nat(), cccc.Zero())
        )

    def test_open_arg_type(self, empty_target):
        ctx = empty_target.extend("T", cccc.Star())
        _expect_reject(
            ctx, cccc.CodeLam("n", cccc.Unit(), "x", cccc.Var("T"), cccc.Zero())
        )

    def test_env_type_must_be_a_type(self, empty_target):
        _expect_reject(
            empty_target, cccc.CodeLam("n", cccc.Zero(), "x", cccc.Nat(), cccc.Zero())
        )

    def test_arg_type_must_be_a_type(self, empty_target):
        _expect_reject(
            empty_target, cccc.CodeLam("n", cccc.Unit(), "x", cccc.UnitVal(), cccc.Zero())
        )

    def test_ill_typed_body(self, empty_target):
        _expect_reject(
            empty_target,
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.App(cccc.Zero(), cccc.Zero())),
        )

    def test_code_cannot_be_applied_directly(self, empty_target):
        # Code is not a closure; application demands a Π (closure) type.
        code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        _expect_reject(empty_target, cccc.App(code, cccc.Zero()))


class TestCloRejections:
    def test_env_of_wrong_type(self, empty_target):
        code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        _expect_reject(empty_target, cccc.Clo(code, cccc.Zero()))

    def test_env_telescope_value_mismatch(self, empty_target):
        # Telescope Σ(A:⋆, x:A) but values (Nat, true) — true : Bool ≠ Nat.
        tele = [cccc.Binding("A", cccc.Star()), cccc.Binding("x", cccc.Var("A"))]
        code = cccc.CodeLam(
            "n", env_sigma(tele), "x2", cccc.Nat(), cccc.Zero()
        )
        bad_env = env_tuple(tele, [cccc.Nat(), cccc.BoolLit(True)])
        _expect_reject(empty_target, cccc.Clo(code, bad_env))

    def test_closure_over_value(self, empty_target):
        _expect_reject(empty_target, cccc.Clo(cccc.Zero(), cccc.UnitVal()))

    def test_closure_over_closure(self, empty_target):
        clo = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x")), cccc.UnitVal()
        )
        _expect_reject(empty_target, cccc.Clo(clo, cccc.UnitVal()))

    def test_applying_closure_to_wrong_argument(self, empty_target):
        clo = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x")), cccc.UnitVal()
        )
        _expect_reject(empty_target, cccc.App(clo, cccc.BoolLit(True)))


class TestUniverseRejections:
    def test_box_untypable(self, empty_target):
        _expect_reject(empty_target, cccc.Box())

    def test_sigma_over_term(self, empty_target):
        _expect_reject(empty_target, cccc.Sigma("x", cccc.Zero(), cccc.Nat()))

    def test_pi_over_term(self, empty_target):
        _expect_reject(empty_target, cccc.Pi("x", cccc.Zero(), cccc.Nat()))

    def test_code_type_over_term(self, empty_target):
        _expect_reject(
            empty_target, cccc.CodeType("n", cccc.Zero(), "x", cccc.Nat(), cccc.Nat())
        )

    def test_large_sigma_not_small(self, empty_target):
        sigma = cccc.Sigma("A", cccc.Star(), cccc.Var("A"))
        assert cccc.infer(empty_target, sigma) == cccc.Box()


class TestStructuralRejections:
    def test_unbound_variable(self, empty_target):
        _expect_reject(empty_target, cccc.Var("ghost"))

    def test_pair_needs_sigma(self, empty_target):
        _expect_reject(empty_target, cccc.Pair(cccc.Zero(), cccc.Zero(), cccc.Nat()))

    def test_fst_of_unit(self, empty_target):
        _expect_reject(empty_target, cccc.Fst(cccc.UnitVal()))

    def test_if_branches_disagree(self, empty_target):
        _expect_reject(
            empty_target,
            cccc.If(cccc.BoolLit(True), cccc.Zero(), cccc.UnitVal()),
        )

    def test_natelim_motive_not_function(self, empty_target):
        _expect_reject(
            empty_target,
            cccc.NatElim(cccc.Zero(), cccc.Zero(), cccc.Zero(), cccc.Zero()),
        )

    def test_let_annotation_mismatch(self, empty_target):
        _expect_reject(
            empty_target,
            cccc.Let("x", cccc.BoolLit(True), cccc.Nat(), cccc.Var("x")),
        )

    def test_succ_of_bool(self, empty_target):
        _expect_reject(empty_target, cccc.Succ(cccc.BoolLit(False)))


class TestMutationRejection:
    """Mutate well-typed compiled programs and confirm the kernel notices.

    A weak form of mutation testing: swapping a closure's environment for
    one of the wrong shape must not slip through.
    """

    def test_swapped_environments(self, empty_target):
        from repro import cc
        from repro.closconv import compile_term

        ctx = cc.Context.empty().extend("y", cc.Nat()).extend("b", cc.Bool())
        nat_capture = compile_term(ctx, cc.Lam("x", cc.Nat(), cc.Var("y"))).target
        bool_capture = compile_term(ctx, cc.Lam("x", cc.Nat(), cc.Var("b"))).target
        target_ctx = compile_term(ctx, cc.Lam("x", cc.Nat(), cc.Var("y"))).target_context
        mutant = cccc.Clo(nat_capture.code, bool_capture.env)
        _expect_reject(target_ctx, mutant)

    def test_truncated_environment(self, empty_target):
        from repro import cc
        from repro.closconv import compile_term

        ctx = cc.Context.empty().extend("A", cc.Star()).extend("a", cc.Var("A"))
        result = compile_term(ctx, cc.Lam("x", cc.Nat(), cc.Var("a")))
        mutant = cccc.Clo(result.target.code, cccc.UnitVal())
        _expect_reject(result.target_context, mutant)


class TestShadowingRejections:
    """CC-CC forms of ``tests/test_cc_typecheck.py``'s ``_SHADOWING_ILL_TYPED``.

    Under ``A : ⋆, x : A`` a binder (a Π assumption, a Σ assumption, a
    ``let`` definition) reuses the name ``A``, and ``x`` is then checked at
    the inner ``A``.  ``x``'s type is the outer ``A``, so each is ill-typed.
    """

    @staticmethod
    def _context(empty_target):
        return empty_target.extend("A", cccc.Star()).extend("x", cccc.Var("A"))

    @staticmethod
    def _uses_x():
        var = cccc.Var
        return cccc.Pi("P", cccc.arrow(var("A"), cccc.Star()), cccc.App(var("P"), var("x")))

    def test_pi_binder(self, empty_target):  # the λ program
        _expect_reject(self._context(empty_target), cccc.Pi("A", cccc.Star(), self._uses_x()))

    def test_sigma_binder(self, empty_target):
        _expect_reject(self._context(empty_target), cccc.Sigma("A", cccc.Star(), self._uses_x()))

    def test_let_binder(self, empty_target):
        nat_id = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "z", cccc.Nat(), cccc.Var("z")), cccc.UnitVal()
        )
        _expect_reject(
            self._context(empty_target),
            cccc.Let("A", cccc.Nat(), cccc.Star(), cccc.App(nat_id, cccc.Var("x"))),
        )
