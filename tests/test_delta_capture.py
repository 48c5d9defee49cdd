"""A binder never captures what a definition unfolds to (the paper's δ rule).

Under ``Γ = x = Nat : ⋆, T = x : ⋆``, unfolding ``T`` under a binder named
``x`` must give the context's ``x``, not the binder.  Each binder form of
both calculi — Π, λ, Σ and ``let`` in CC; Π, Σ, ``let`` and both of a
code's binders in CC-CC — binds ``x`` over the scope ``T``, and four
operations must agree with the form's α-variant, which binds ``y``:
NbE and substitution ``normalize``, ``equivalent``, and ``reducts`` (every
one-step reduct must normalize to the same normal form).  A second context,
``x : ⋆, T = x : ⋆``, makes the unfolded ``x`` a neutral, which only a
renamed binder keeps apart from the bound one.

The CLI program at the end shadows a context name the same way through
the whole pipeline: ``Session.check``, ``normalize``, ``compile`` and
``run`` must give what its α-variant gives.
"""

from __future__ import annotations

import pytest

from repro import api, cc, cccc
from repro.cc.reduce import normalize_subst as cc_normalize_subst
from repro.cccc.reduce import normalize_subst as cccc_normalize_subst

_CALCULI = {
    "cc": (cc, cc_normalize_subst),
    "cccc": (cccc, cccc_normalize_subst),
}

#: Each form as ``build(calculus, binder name, scope)``.
_FORMS = {
    "cc": {
        "pi": lambda m, name, scope: m.Pi(name, m.Nat(), scope),
        "lam": lambda m, name, scope: m.Lam(name, m.Nat(), scope),
        "sigma": lambda m, name, scope: m.Sigma(name, m.Nat(), scope),
        "let": lambda m, name, scope: m.Let(name, m.Bool(), m.Star(), scope),
    },
    "cccc": {
        "pi": lambda m, name, scope: m.Pi(name, m.Nat(), scope),
        "sigma": lambda m, name, scope: m.Sigma(name, m.Nat(), scope),
        "let": lambda m, name, scope: m.Let(name, m.Bool(), m.Star(), scope),
        "code-env": lambda m, name, scope: m.CodeLam(name, m.Unit(), "a", m.Nat(), scope),
        "code-arg": lambda m, name, scope: m.CodeLam("n", m.Unit(), name, m.Nat(), scope),
    },
}

_CASES = [(calculus, form) for calculus, forms in _FORMS.items() for form in forms]


def _context(m, link: str):
    """``x = Nat : ⋆, T = x : ⋆`` ("defined") or ``x : ⋆, T = x : ⋆`` ("assumed")."""
    ctx = m.Context.empty()
    ctx = ctx.define("x", m.Nat(), m.Star()) if link == "defined" else ctx.extend("x", m.Star())
    return ctx.define("T", m.Var("x"), m.Star())


def _pair(calculus: str, form: str, link: str):
    """``(module, Γ, term, its α-variant with T unfolded by hand)``."""
    m, _ = _CALCULI[calculus]
    build = _FORMS[calculus][form]
    unfolded = m.Nat() if link == "defined" else m.Var("x")
    return m, _context(m, link), build(m, "x", m.Var("T")), build(m, "y", unfolded)


@pytest.mark.parametrize("link", ["defined", "assumed"])
@pytest.mark.parametrize("calculus,form", _CASES)
class TestBinderForms:
    def test_nbe_normalize(self, calculus, form, link):
        m, ctx, term, variant = _pair(calculus, form, link)
        assert m.alpha_equal(m.normalize(ctx, term), m.normalize(ctx, variant))

    def test_subst_normalize(self, calculus, form, link):
        m, ctx, term, variant = _pair(calculus, form, link)
        normalize_subst = _CALCULI[calculus][1]
        assert m.alpha_equal(normalize_subst(ctx, term), normalize_subst(ctx, variant))

    def test_equivalent(self, calculus, form, link):
        m, ctx, term, variant = _pair(calculus, form, link)
        assert m.equivalent(ctx, term, variant)
        assert m.equivalent(ctx, variant, term)

    def test_reducts(self, calculus, form, link):
        m, ctx, term, variant = _pair(calculus, form, link)
        expected = m.normalize(ctx, variant)
        reducts = m.reducts(ctx, term)
        assert reducts
        for reduct in reducts:
            assert m.alpha_equal(m.normalize(ctx, reduct), expected), m.pretty(reduct)


def test_a_bound_occurrence_still_does_not_unfold():
    # The rename must leave the binder's own occurrences bound.
    ctx = _context(cc, "defined")
    term = cc.Pi("x", cc.Nat(), cc.Pi("_", cc.Var("T"), cc.Var("x")))
    normal = cc.normalize(ctx, term)
    assert cc.alpha_equal(normal, cc.Pi("y", cc.Nat(), cc.arrow(cc.Nat(), cc.Var("y"))))
    assert cc.alpha_equal(cc_normalize_subst(ctx, term), normal)
    assert cc.equivalent(ctx, term, normal)


#: Rejected with "has type Nat -> T but expected Nat -> Nat" when the
#: unfolded ``x`` was captured by the binder ``x``.
PROGRAM = r"let x = Nat : Type in let T = x : Type in \ (f : forall (x : Nat), T). (\ (g : Nat -> Nat). g) f"
VARIANT = PROGRAM.replace("forall (x : Nat)", "forall (y : Nat)")


@pytest.mark.parametrize("engine", ["nbe", "subst"])
def test_the_program_matches_its_alpha_variant(engine):
    results = {}
    for text in (PROGRAM, VARIANT):
        checked = api.Session().check(text)
        normal = api.Session().normalize(text, engine=engine)
        compiled = api.Session().compile(text)
        run = api.Session().run(text)
        results[text] = (checked.type_, normal.value, compiled.verified, run.observed)
    (type_, normal, verified, observed), (type_a, normal_a, verified_a, observed_a) = (
        results[PROGRAM], results[VARIANT])
    assert cc.alpha_equal(type_, type_a)
    assert cc.alpha_equal(type_, cc.arrow(cc.arrow(cc.Nat(), cc.Nat()), cc.arrow(cc.Nat(), cc.Nat())))
    assert cc.alpha_equal(normal, normal_a)
    assert verified and verified_a
    assert observed == observed_a
