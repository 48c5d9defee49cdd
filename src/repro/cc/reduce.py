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

whnf = _NBE.whnf
whnf_subst = _NBE.whnf_subst
normalize = _NBE.normalize
normalize_subst = _NBE.normalize_subst
normalize_counting = _NBE.normalize_counting
head_reducts = _NBE.head_reducts
reducts = _NBE.reducts


def reduces_to(ctx: Context, source: Term, target: Term, max_steps: int = 1000) -> bool:
    """Decide ``Γ ⊢ source ⊲* target`` by bounded breadth-first search.

    Only used in tests over small terms; real equivalence checking goes
    through :func:`repro.cc.equiv.equivalent`.
    """
    from repro.cc.substitution import alpha_equal

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
