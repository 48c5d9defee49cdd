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
    Unit,
    UnitVal,
    Var,
    Zero,
)
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

whnf = _NBE.whnf
whnf_subst = _NBE.whnf_subst
normalize = _NBE.normalize
normalize_subst = _NBE.normalize_subst
normalize_counting = _NBE.normalize_counting
head_reducts = _NBE.head_reducts
reducts = _NBE.reducts
