"""Theorems 4.7 (Consistency) and 4.8 (Type Safety) of CC-CC.

Consistency cannot be *proven* by testing, but it can be stress-tested:
no compiled program, hand-written closure, or generated term may inhabit
``False ≜ Π A:⋆. A``, and the model must transport any would-be proof to
CC (where we trust consistency).  Type safety is directly observable:
every closed well-typed CC-CC term normalizes to a value.
"""

import pytest

from repro import cc, cccc
from repro.closconv import compile_term, translate
from repro.gen import TermGenerator
from repro.model import decompile
from repro.properties import (
    check_consistency_of_term,
    check_type_safety_of_target,
    is_target_value,
)
from tests.corpus import CLOSED_GROUND_PROGRAMS, CORPUS


FALSE_TARGET = cccc.Pi("A", cccc.Star(), cccc.Var("A"))


class TestConsistency:
    def test_compiled_corpus_proves_no_false(self):
        for name, ctx, term in CORPUS:
            result = compile_term(ctx, term, verify=False)
            assert check_consistency_of_term(result.target)

    def test_generated_terms_prove_no_false(self):
        for seed in range(40):
            gen = TermGenerator(seed + 4242)
            triple = gen.well_typed_term()
            if triple is None:
                continue
            ctx, term, _ = triple
            target = translate(ctx, term)
            assert check_consistency_of_term(target)

    def test_identity_is_not_a_proof_of_false(self, empty_target):
        poly_id = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "A", cccc.Star(), cccc.Clo(
                cccc.CodeLam(
                    "n2",
                    cccc.Sigma("A", cccc.Star(), cccc.Unit()),
                    "x",
                    cccc.Fst(cccc.Var("n2")),
                    cccc.Var("x"),
                ),
                cccc.Pair(cccc.Var("A"), cccc.UnitVal(), cccc.Sigma("A", cccc.Star(), cccc.Unit())),
            )),
            cccc.UnitVal(),
        )
        assert check_consistency_of_term(poly_id)
        # Its type is True (Π A:⋆. A → A), not False.
        assert not cccc.equivalent(empty_target, cccc.infer(empty_target, poly_id), FALSE_TARGET)

    def test_a_false_proof_would_be_transported(self, empty, empty_target):
        """The proof architecture: IF a closed proof of False existed in
        CC-CC, its decompilation would be a closed CC term; we verify the
        transport machinery on a (well-typed, non-False) stand-in."""
        candidate = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "A", cccc.Star(), cccc.Var("A")),
            cccc.UnitVal(),
        )
        image = decompile(candidate)
        image_type = cc.infer(empty, image)
        target_type = cccc.infer(empty_target, candidate)
        assert cc.equivalent(empty, image_type, decompile(target_type))


class TestTypeSafety:
    @pytest.mark.parametrize("name, term, expected", CLOSED_GROUND_PROGRAMS,
                             ids=[n for n, _, _ in CLOSED_GROUND_PROGRAMS])
    def test_compiled_programs_reach_values(self, empty, name, term, expected):
        compiled = compile_term(empty, term, verify=False).target
        assert check_type_safety_of_target(compiled)

    def test_closures_are_values(self, empty_target):
        clo = cccc.Clo(
            cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x")), cccc.UnitVal()
        )
        assert is_target_value(clo)

    def test_stuck_terms_are_not_values(self):
        assert not is_target_value(cccc.App(cccc.Zero(), cccc.Zero()))
        assert not is_target_value(cccc.Fst(cccc.Zero()))
        assert not is_target_value(cccc.Var("x"))

    def test_pairs_of_values(self):
        pair = cccc.Pair(cccc.Zero(), cccc.UnitVal(), cccc.Sigma("x", cccc.Nat(), cccc.Unit()))
        assert is_target_value(pair)
        stuck_inside = cccc.Pair(
            cccc.App(cccc.Zero(), cccc.Zero()), cccc.UnitVal(),
            cccc.Sigma("x", cccc.Nat(), cccc.Unit()),
        )
        assert not is_target_value(stuck_inside)

    def test_generated_compiled_terms_are_safe(self):
        checked = 0
        for seed in range(30):
            gen = TermGenerator(seed + 11)
            triple = gen.well_typed_term()
            if triple is None:
                continue
            ctx, term, _ = triple
            # Type safety is about *closed* programs: close an open one by
            # wrapping the definitions it reaches as lets, innermost first,
            # and skip it if it reaches an assumption.
            for binding in reversed(ctx.entries):
                if binding.name in cc.free_vars(term) and binding.definition is not None:
                    term = cc.Let(binding.name, binding.definition, binding.type_, term)
            if cc.free_vars(term):
                continue
            compiled = compile_term(cc.Context.empty(), term, verify=False).target
            assert check_type_safety_of_target(compiled)
            checked += 1
        assert checked >= 9  # nine of these seeds give a program that closes
