"""Reduction and normalization for CC-CC (paper Figure 6).

CC-CC inherits δ, ζ, π1/π2 (and the ground-type ι-rules) from CC.  The β
rule changes: code cannot be applied directly, only through a closure::

    ⟨⟨λ (x′:A′, x:A). e1, e′⟩⟩ e  ⊲β  e1[e′/x′][e/x]

Closures themselves are values; their code position only matters when the
closure is applied.

Both calculi share one reduction kernel (:mod:`repro.kernel.reduction`);
this module supplies CC-CC's wiring, :data:`_NBE`.  Like
:mod:`repro.cc.reduce`, two engines decide the same relation: the NbE
environment machine of :mod:`repro.kernel.nbe` behind the public
:func:`whnf`/:func:`normalize`, and the substitution engine behind
:func:`whnf_subst`/:func:`normalize_subst` — the differential oracle and
the counting path of :func:`normalize_counting`.  Both bind a closure's
environment and argument in parallel.  The engines memoize under distinct
cache kinds and never share entries.
"""

from __future__ import annotations

from repro.cccc.ast import (
    LANGUAGE,
    App,
    Bool,
    BoolLit,
    Box,
    Clo,
    CodeLam,
    Fst,
    If,
    Let,
    Nat,
    NatElim,
    Pair,
    Snd,
    Star,
    Succ,
    Term,
    Unit,
    UnitVal,
    Var,
    Zero,
)
from repro.cccc.context import Context
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
    "reducts",
    "whnf",
    "whnf_subst",
]

#: CC-CC's reduction wiring: β applies a closure whose code position
#: weak-head-exposes a literal ``CodeLam``.  ``trivial`` lists the leaf
#: classes whose normal form is always themselves (no children, no δ).
_NBE = NbeSpec(
    lang=LANGUAGE,
    kind="cccc",
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
    trivial=(Star, Box, Unit, UnitVal, Bool, BoolLit, Nat, Zero),
    clo_cls=Clo,
    codelam_cls=CodeLam,
)


def whnf(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Reduce ``term`` to weak-head normal form under ``ctx`` (NbE engine).

    Results are memoized per (term identity, context definitions); hits
    replay the originally recorded fuel cost into ``budget``.
    """
    return reduction.whnf(_NBE, ctx, term, budget)


def whnf_subst(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """:func:`whnf` on the substitution engine (the differential oracle)."""
    return reduction.whnf_subst(_NBE, ctx, term, budget)


def normalize(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """Fully normalize ``term`` under ``ctx`` (NbE engine).

    Environment-independent subcomputations are memoized per (term
    identity, context definitions) with fuel replay on hits.
    """
    return reduction.normalize(_NBE, ctx, term, budget)


def normalize_subst(ctx: Context, term: Term, budget: Budget | None = None) -> Term:
    """:func:`normalize` on the substitution engine (the counting oracle)."""
    return reduction.normalize_subst(_NBE, ctx, term, budget)


def normalize_counting(ctx: Context, term: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, int]:
    """Normalize and report the number of reduction steps taken."""
    return reduction.normalize_counting(_NBE, ctx, term, fuel)


def head_reducts(ctx: Context, term: Term) -> list[Term]:
    """Results of applying a reduction axiom at the root (≤ 1 result)."""
    return reduction.head_reducts(_NBE, ctx, term)


def reducts(ctx: Context, term: Term) -> list[Term]:
    """All one-step reducts (contextual closure of the axioms)."""
    return reduction.reducts(_NBE, ctx, term)
