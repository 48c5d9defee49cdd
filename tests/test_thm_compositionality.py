"""Lemma 5.1 (Compositionality): ``(e1[e2/x])⁺ ≡ e1⁺[e2⁺/x]``.

The key difficulty of the paper's type-preservation proof: substituting
before translation yields a *smaller environment* (the substituted value is
inlined), substituting after yields an environment slot holding the value.
The closure η-principle makes the two results definitionally equal.
"""

import pytest

from repro import cc
from repro.cc import prelude
from repro.gen import TermGenerator
from repro.properties import check_compositionality
from repro.surface import parse_term

#: How many seeds a test derives from its own before a generator miss fails it.
DERIVED_SEEDS = 8


def _case(prefix_entries, name, name_type, body_src, value):
    prefix = cc.Context.empty()
    for entry_name, entry_type in prefix_entries:
        prefix = prefix.extend(entry_name, entry_type)
    body = parse_term(body_src) if isinstance(body_src, str) else body_src
    return prefix, name, name_type, body, value


HAND_CASES = [
    # The paper's motivating shape: a λ whose environment gains/loses x.
    _case([("B", cc.Star()), ("b", cc.Var("B"))], "y", cc.Var("B"),
          r"\ (w : B). y", cc.Var("b")),
    # Substituting a literal into a captured position.
    _case([], "y", cc.Nat(), r"\ (w : Nat). y", cc.nat_literal(3)),
    # x occurs in the *annotation* (a type), not the body.
    _case([("b", cc.Bool())], "y", cc.Bool(),
          cc.Lam("w", cc.If(cc.Var("y"), cc.Nat(), cc.Bool()), cc.nat_literal(0)),
          cc.Var("b")),
    # x under two binders.
    _case([], "y", cc.Nat(), r"\ (u : Nat). \ (v : Nat). y", cc.nat_literal(1)),
    # x applied, not just returned.
    _case([("f", cc.arrow(cc.Nat(), cc.Nat()))], "y", cc.Nat(),
          r"\ (w : Bool). f y", cc.Zero()),
    # Substitution into a non-λ (structural cases).
    _case([], "y", cc.Nat(), cc.Succ(cc.Var("y")), cc.nat_literal(4)),
    _case([], "y", cc.Nat(),
          cc.Pair(cc.Var("y"), cc.BoolLit(True), parse_term("exists (x : Nat), Bool")),
          cc.nat_literal(2)),
    # Substituting a function value (a closure after translation).
    _case([], "g", cc.arrow(cc.Nat(), cc.Nat()),
          r"\ (w : Nat). g (g w)", parse_term(r"\ (k : Nat). succ k")),
    # Substituting a *type* for a type variable.
    _case([], "T", cc.Star(), r"\ (w : T). w", cc.Nat()),
    # let in the body.
    _case([], "y", cc.Nat(), parse_term(r"\ (w : Nat). let q = y : Nat in q"),
          cc.nat_literal(5)),
]


class TestHandCases:
    @pytest.mark.parametrize("case", HAND_CASES, ids=[f"case{i}" for i in range(len(HAND_CASES))])
    def test_compositionality(self, case):
        prefix, name, name_type, body, value = case
        # Sanity: inputs must be well-typed as the lemma assumes.
        cc.check(prefix, value, name_type)
        cc.infer(prefix.extend(name, name_type), body)
        assert check_compositionality(prefix, name, name_type, body, value)

    def test_paper_example_environment_shapes_differ(self, empty):
        """Demonstrate the proof's point: the two sides are *syntactically*
        different closures (different env arity) yet equivalent."""
        from repro import cccc
        from repro.closconv import translate

        prefix = empty.extend("b", cc.Nat())
        extended = prefix.extend("y", cc.Nat())
        body = parse_term(r"\ (w : Nat). y")

        left = translate(prefix, cc.subst1(body, "y", cc.Var("b")))
        right = cccc.subst1(translate(extended, body), "y", cccc.Var("b"))
        assert cccc.equivalent(cccc.Context.empty(), left, right)

        # With a literal, substitute-then-translate closes the λ entirely
        # (empty environment ⟨⟩), while translate-then-substitute keeps an
        # environment slot holding 3 — different closure *shapes*, equal
        # only thanks to the closure η-principle.
        left2 = translate(prefix, cc.subst1(body, "y", cc.nat_literal(3)))
        right2 = cccc.subst1(translate(extended, body), "y", cccc.nat_literal(3))
        assert cccc.tuple_values(left2.env) == []
        assert cccc.tuple_values(right2.env) == [cccc.nat_literal(3)]
        assert not cccc.alpha_equal(left2, right2)
        assert cccc.equivalent(cccc.Context.empty(), left2, right2)


class TestRandomized:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_substitution_instances(self, seed):
        """Generate Γ, x:A ⊢ e1 and Γ ⊢ e2:A, then check the lemma."""
        # A generator miss is not a counterexample: walk a fixed sequence of
        # seeds derived from this one until an instance is found, and fail
        # only if none is.
        name = f"subst_target{seed}"
        for attempt in range(DERIVED_SEEDS):
            gen = TermGenerator(seed * 7 + 1 + 10_000 * attempt)
            prefix = gen.context(2)
            name_type = gen.type_(prefix, 2)
            value = gen.term(prefix, name_type, 3)
            if value is None:
                continue
            extended = prefix.extend(name, name_type)
            body = gen.any_term(extended, 3)
            if body is not None:
                break
        else:
            pytest.fail(f"no instance found in {DERIVED_SEEDS} seeds derived from {seed}")
        # Only proceed if everything is genuinely well-typed.
        cc.check(prefix, value, name_type)
        cc.infer(extended, body)
        assert check_compositionality(prefix, name, name_type, body, value)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_lambda_bodies(self, seed):
        """Force the interesting case: e1 is a λ capturing x."""
        gen = TermGenerator(seed + 999)
        prefix = gen.context(1)
        name = "cap"
        name_type = cc.Nat()
        extended = prefix.extend(name, name_type)
        domain = gen.type_(extended, 1)
        body_inner = gen.term(extended.extend("w", domain), cc.Nat(), 2)
        if body_inner is None:
            pytest.skip("no body")
        lam = cc.Lam("w", domain, cc.make_app(prelude.nat_add, cc.Var(name), body_inner)
                     if body_inner is not None else cc.Var(name))
        cc.infer(extended, lam)
        assert check_compositionality(prefix, name, name_type, lam, cc.nat_literal(seed))
