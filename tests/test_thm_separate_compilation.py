"""Theorem 5.7 (Correctness of Separate Compilation) and Corollary 5.8.

Link-then-compile agrees with compile-then-link at ground observations,
and whole closed programs produce matching values.
"""

import pytest

from repro import cc, cccc
from repro.cc import prelude
from repro.closconv import compile_term
from repro.common.errors import LinkError, TypeCheckError
from repro.linking import (
    ClosingSubstitution,
    check_substitution,
    link,
)
from repro.properties import check_separate_compilation, ground_observation
from repro.surface import parse_term
from tests.corpus import CLOSED_GROUND_PROGRAMS, closed_ground_ids


def _component(entries, term_src, gamma_map):
    ctx = cc.Context.empty()
    for name, type_ in entries:
        ctx = ctx.extend(name, type_)
    term = parse_term(term_src) if isinstance(term_src, str) else term_src
    return ctx, term, ClosingSubstitution(gamma_map)


COMPONENTS = [
    _component(
        [("y", cc.Nat())], r"succ y", {"y": cc.nat_literal(4)}
    ),
    _component(
        [("f", cc.arrow(cc.Nat(), cc.Nat()))],
        r"f 3",
        {"f": parse_term(r"\ (x : Nat). succ x")},
    ),
    _component(
        [("add", cc.Pi("m", cc.Nat(), cc.arrow(cc.Nat(), cc.Nat())))],
        r"add 2 3",
        {"add": prelude.nat_add},
    ),
    _component(
        [("id", prelude.polymorphic_identity_type)],
        r"id Nat 7",
        {"id": prelude.polymorphic_identity},
    ),
    _component(
        [("b", cc.Bool()), ("n", cc.Nat())],
        r"if b then succ n else 0",
        {"b": cc.BoolLit(True), "n": cc.nat_literal(9)},
    ),
    _component(
        [("p", cc.Sigma("x", cc.Nat(), cc.Bool()))],
        r"fst p",
        {"p": parse_term(r"<6, false> as (exists (x : Nat), Bool)")},
    ),
    # A dependent interface: the import is a positive number with proof.
    _component(
        [("pos", prelude.positive_nat())],
        r"succ (fst pos)",
        {"pos": prelude.positive_nat_value(3)},
    ),
]


class TestTheorem57:
    @pytest.mark.parametrize("index", range(len(COMPONENTS)))
    def test_linking_commutes(self, index):
        ctx, term, gamma = COMPONENTS[index]
        report = check_separate_compilation(ctx, term, gamma)
        assert report.agrees, (
            f"source {cc.pretty(report.source_value)} vs "
            f"target {cccc.pretty(report.target_value)}"
        )

    def test_source_values_match_direct_evaluation(self, empty):
        ctx, term, gamma = COMPONENTS[0]
        report = check_separate_compilation(ctx, term, gamma)
        direct = cc.normalize(empty, link(ctx, term, gamma))
        assert ground_observation(direct) == report.observation == 5


class TestCorollary58:
    @pytest.mark.parametrize(
        "name, term, expected", CLOSED_GROUND_PROGRAMS, ids=closed_ground_ids()
    )
    def test_whole_program_correctness(self, empty, empty_target, name, term, expected):
        """Corollary 5.8: e ⊲* v implies e⁺ ⊲* ≈ v⁺ (empty γ)."""
        report = check_separate_compilation(empty, term, ClosingSubstitution({}))
        assert report.agrees
        assert report.observation == expected


class TestLinkChecking:
    def test_gamma_must_cover_imports(self, empty):
        ctx = empty.extend("y", cc.Nat())
        with pytest.raises(LinkError, match="no substitution"):
            check_substitution(ctx, ClosingSubstitution({}))

    def test_gamma_values_must_be_closed(self, empty):
        ctx = empty.extend("y", cc.Nat())
        with pytest.raises(LinkError, match="not closed"):
            check_substitution(ctx, ClosingSubstitution({"y": cc.Var("z")}))

    def test_gamma_values_must_typecheck(self, empty):
        ctx = empty.extend("y", cc.Nat())
        with pytest.raises(LinkError, match="wrong type"):
            check_substitution(ctx, ClosingSubstitution({"y": cc.BoolLit(True)}))

    def test_dependent_interface_checked_in_order(self, empty):
        # Γ = A:⋆, x:A — the value for x must match the value chosen for A.
        ctx = empty.extend("A", cc.Star()).extend("x", cc.Var("A"))
        good = ClosingSubstitution({"A": cc.Nat(), "x": cc.nat_literal(3)})
        check_substitution(ctx, good)
        bad = ClosingSubstitution({"A": cc.Bool(), "x": cc.nat_literal(3)})
        with pytest.raises(LinkError):
            check_substitution(ctx, bad)

    def test_proof_carrying_interface_rejects_fakes(self, empty):
        # The introduction's scenario: a client without the proof is rejected.
        ctx = empty.extend("pos", prelude.positive_nat())
        with pytest.raises(LinkError):
            check_substitution(ctx, ClosingSubstitution({"pos": cc.nat_literal(3)}))
        fake = cc.Pair(
            cc.Zero(),
            prelude.leibniz_refl(cc.Bool(), cc.BoolLit(False)),
            prelude.positive_nat(),
        )
        with pytest.raises(LinkError):
            check_substitution(ctx, ClosingSubstitution({"pos": fake}))

    def test_definition_imports_default(self, empty):
        # A context definition needs no γ entry; its definition links in.
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        linked = link(ctx, cc.Succ(cc.Var("two")), ClosingSubstitution({}))
        assert cc.nat_value(cc.normalize(empty, linked)) == 3

    def test_definition_can_be_overridden_equivalently(self, empty):
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        gamma = ClosingSubstitution(
            {"two": parse_term(r"(\ (x : Nat). x) 2")}  # ≡ 2, different syntax
        )
        check_substitution(ctx, gamma)

    def test_definition_override_must_be_equivalent(self, empty):
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        with pytest.raises(LinkError, match="not .*equivalent|not\\s"):
            check_substitution(ctx, ClosingSubstitution({"two": cc.nat_literal(3)}))


class TestTargetLinking:
    def test_compiled_interface_rejects_ill_typed_target_client(self, empty):
        """Type-preserving compilation's payoff: the CC-CC kernel catches a
        bad client against the *compiled* interface."""
        from repro.linking import check_target_substitution

        ctx = empty.extend("pos", prelude.positive_nat())
        result = compile_term(ctx, parse_term("fst pos"))
        bad = ClosingSubstitution({"pos": cccc.nat_literal(3)})
        with pytest.raises(LinkError):
            check_target_substitution(result.target_context, bad)

    def test_compiled_good_client_accepted(self, empty):
        from repro.closconv import translate
        from repro.linking import check_target_substitution

        ctx = empty.extend("pos", prelude.positive_nat())
        result = compile_term(ctx, parse_term("fst pos"))
        good = ClosingSubstitution(
            {"pos": translate(empty, prelude.positive_nat_value(2))}
        )
        check_target_substitution(result.target_context, good)


#: Γ = y : Nat, two := 2 : Nat — one import and one defined import.
_INTERFACE = (
    cc.Context.empty().extend("y", cc.Nat()).define("two", cc.nat_literal(2), cc.Nat())
)

#: Malformed closing substitutions, built in either calculus, with the
#: ``LinkError`` text both checks must give.
_MALFORMED = {
    "missing-import": (lambda lang: {}, "no substitution for import 'y'"),
    "open-value": (
        lambda lang: {"y": lang.Var("z")},
        "substitution for 'y' is not closed: free variables ['z']",
    ),
    "wrong-type": (
        lambda lang: {"y": lang.BoolLit(True)},
        "substitution for 'y' has the wrong type: ",
    ),
    "defined-mismatch": (
        lambda lang: {"y": lang.nat_literal(4), "two": lang.nat_literal(3)},
        "substitution for defined import 'two' is not equivalent to its definition",
    ),
}


class TestLinkingParity:
    """One ``Γ ⊢ γ`` for both calculi: a malformed γ fails the same way in each."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    @pytest.mark.parametrize("lang", [cc, cccc], ids=["cc", "cccc"])
    def test_malformed_substitution_rejected_alike(self, lang, case):
        from repro.closconv import translate_context
        from repro.linking import check_target_substitution

        build, expected = _MALFORMED[case]
        if lang is cc:
            ctx, check = _INTERFACE, check_substitution
        else:
            ctx, check = translate_context(_INTERFACE), check_target_substitution
        with pytest.raises(LinkError) as caught:
            check(ctx, ClosingSubstitution(build(lang)))
        if case == "wrong-type":
            # The shared prefix, then the calculus's own type error.
            with pytest.raises(TypeCheckError) as own:
                lang.check(lang.Context.empty(), lang.BoolLit(True), lang.Nat())
            expected += str(own.value)
        assert str(caught.value) == expected
