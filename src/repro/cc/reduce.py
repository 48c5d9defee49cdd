"""Reduction and normalization for CC (paper Figure 2).

The one-step relation ``Γ ⊢ e ⊲ e′`` has five axioms:

* δ — a variable with a definition in Γ unfolds to its definition,
* ζ — ``let x = e : A in b ⊲ b[e/x]``,
* β — ``(λ x:A. b) a ⊲ b[a/x]``,
* π1/π2 — projections from a literal pair,

plus, for the ground types of Section 5.2, the ι-rules for ``if`` and
``natelim``.  ``⊲*`` is the reflexive-transitive *contextual* closure.

This module provides:

* :func:`head_reducts` / :func:`reducts` — the one-step relation, for
  metatheory properties quantifying over ``e ⊲ e′``;
* :func:`whnf` — weak-head normal form (what the type checker needs to
  expose Π/Σ/``Code`` heads);
* :func:`normalize` — full β-normal form (CC is strongly normalizing, so
  this terminates; a fuel budget guards against pathological blowup).

Both calculi share one reduction kernel (:mod:`repro.kernel.reduction`);
this module supplies CC's wiring, :data:`_NBE`, where β applies a literal
λ.  Two engines implement the same relation:

* **NbE** (:mod:`repro.kernel.nbe`) — the default behind :func:`whnf` and
  :func:`normalize`: an iterative environment machine with memoizing
  thunks, so cold normalization never pays substitution's tree rewriting.
* **Substitution** — :func:`whnf_subst`/:func:`normalize_subst`, the
  *oracle* the NbE results are differentially tested against
  (``tests/test_nbe_differential.py``) and the **counting path**:
  :func:`normalize_counting` reports its per-occurrence step semantics.
  The two engines memoize under distinct cache kinds and never share
  entries.
"""

from __future__ import annotations

from repro.cc.ast import (
    LANGUAGE,
    App,
    Bool,
    BoolLit,
    Box,
    Fst,
    If,
    Lam,
    Let,
    Nat,
    NatElim,
    Pair,
    Snd,
    Star,
    Succ,
    Term,
    Var,
    Zero,
)
from repro.cc.context import Context
from repro.kernel import reduction
from repro.kernel.budget import DEFAULT_FUEL, Budget
from repro.kernel.nbe import NbeSpec

__all__ = [
    "DEFAULT_FUEL",
    "Budget",
    "head_reducts",
    "normalize",
    "normalize_counting",
    "normalize_subst",
    "reduces_to",
    "reducts",
    "whnf",
    "whnf_subst",
]

#: CC's reduction wiring: β applies a literal λ.  ``trivial`` lists the
#: leaf classes whose normal form is always themselves (no children, no δ).
_NBE = NbeSpec(
    lang=LANGUAGE,
    kind="cc",
    var_cls=Var,
    let_cls=Let,
    app_cls=App,
    fst_cls=Fst,
    snd_cls=Snd,
    pair_cls=Pair,
    if_cls=If,
    boollit_cls=BoolLit,
    natelim_cls=NatElim,
    zero_cls=Zero,
    succ_cls=Succ,
    trivial=(Star, Box, Bool, BoolLit, Nat, Zero),
    lam_cls=Lam,
)


def whnf(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Reduce ``term`` to weak-head normal form under ``ctx`` (NbE engine).

    Only the head position is reduced; arguments, pair components, binder
    bodies, etc. are left untouched.  Results are memoized per (term
    identity, context definitions); hits replay the originally recorded
    fuel cost, so budgets behave exactly as if the reduction had re-run.
    """
    return reduction.whnf(_NBE, ctx, term, budget)


def whnf_subst(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """:func:`whnf` on the substitution engine (the differential oracle).

    Memoized under its own cache kind so the two engines never exchange
    results or recorded fuel.
    """
    return reduction.whnf_subst(_NBE, ctx, term, budget)


def normalize(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Fully normalize ``term`` under ``ctx`` (NbE engine).

    The result contains no δ/ζ/β/π/ι redexes (``let`` disappears entirely:
    normal forms are ``let``-free).  Bound variables shadow any definitions
    of the same name in ``ctx``; binder names are preserved unless re-using
    one would capture, in which case a fresh name is drawn (exactly when
    the substitution engine would α-rename).  Environment-independent
    subcomputations are memoized per (term identity, context definitions)
    with fuel replay on hits.
    """
    return reduction.normalize(_NBE, ctx, term, budget)


def normalize_subst(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """:func:`normalize` on the substitution engine (the counting oracle).

    Step accounting (one unit per contraction *per occurrence*, replayed
    on memo hits) is what :func:`normalize_counting` reports.
    """
    return reduction.normalize_subst(_NBE, ctx, term, budget)


def normalize_counting(ctx: Context, term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Normalize and also report how many reduction steps were taken.

    Benchmarks use the step count as a machine-independent cost measure when
    comparing evaluation before and after compilation (Corollary 5.8).
    """
    return reduction.normalize_counting(_NBE, ctx, term, fuel)


def head_reducts(ctx: Context, term: Term) -> list[Term]:
    """All results of applying a reduction *axiom* at the root of ``term``.

    Purely syntactic except for δ, which consults ``ctx`` for definitions.
    At most one axiom ever applies per node, so the list has length ≤ 1; a
    list keeps the signature uniform with :func:`reducts`.
    """
    return reduction.head_reducts(_NBE, ctx, term)


def reducts(ctx: Context, term: Term) -> list[Term]:
    """All one-step reducts of ``term`` (contextual closure of the axioms).

    This enumerates the full relation ``Γ ⊢ e ⊲ e′``, which the metatheory
    properties (preservation of reduction, subject reduction) quantify over.
    """
    return reduction.reducts(_NBE, ctx, term)


def reduces_to(ctx: Context, source: Term, target: Term, max_steps: int = 1000) -> bool:
    """Decide ``Γ ⊢ source ⊲* target`` by bounded breadth-first search.

    Only used in tests over small terms; real equivalence checking goes
    through :func:`repro.cc.equiv.equivalent`.
    """
    from repro.cc.subst import alpha_equal

    seen: list[Term] = [source]
    frontier = [source]
    steps = 0
    while frontier and steps < max_steps:
        new_frontier: list[Term] = []
        for candidate in frontier:
            if alpha_equal(candidate, target):
                return True
            for reduct in reducts(ctx, candidate):
                steps += 1
                if not any(alpha_equal(reduct, old) for old in seen):
                    seen.append(reduct)
                    new_frontier.append(reduct)
        frontier = new_frontier
    return any(alpha_equal(candidate, target) for candidate in frontier)
