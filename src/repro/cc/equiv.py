"""Definitional equivalence for CC (paper Figure 2), decided incrementally.

``Γ ⊢ e1 ≡ e2`` holds when both sides reduce (⊲*) to a common term, up to
the η-rules for functions ([≡-η1], [≡-η2]).  Like the paper's relation,
ours is *untyped*: decidability is preserved because the [Conv] typing rule
only invokes it on well-typed terms, which are strongly normalizing.

Algorithm: the shared engine of :mod:`repro.kernel.convert` weak-head
normalizes each side lazily, compares head constructors, and short-circuits
on pointer and interned-pointer equality at every recursion point, so
divergent terms fail fast and shared subterms cost O(1) — the old
normalize-both-then-α-compare procedure decided the same relation but paid
for full normal forms even when the heads already disagreed.  This module
contributes the CC-specific ingredients: λ domains and pair annotations are
computationally irrelevant, and the η-rule fires whenever exactly one side
is a λ — comparing ``λ x:A. b`` against a non-λ weak-head normal form
``f`` proceeds as ``b[x̂/x] ≡ f x̂`` for a shared fresh ``x̂``.

Results are memoized per (left identity, right identity, context
definitions) with exact fuel replay, mirroring the normalization cache.
"""

from __future__ import annotations

from functools import partial

from repro.cc.ast import LANGUAGE, App, Lam, Pair, Term, Var
from repro.cc.context import Context
from repro.cc.reduce import _NBE, Budget
from repro.cc.substitution import subst1
from repro.common.names import fresh
from repro.kernel.convert import ConversionRules, convert
from repro.kernel.reduction import whnf_value

__all__ = ["equivalent", "norm_equal_eta"]


class _CCRules(ConversionRules):
    """CC hooks: untyped function η; λ domains and pair annotations ignored."""

    lang = LANGUAGE
    kind = "cc.equiv"
    irrelevant = {Lam: ("domain",), Pair: ("annot",)}
    nbe = _NBE
    whnf = staticmethod(partial(whnf_value, _NBE))

    def eta(self, left, right, ctx_l, ctx_r, scope, budget):
        left_lam = isinstance(left, Lam)
        if left_lam == isinstance(right, Lam):
            return None  # both λ (structural) or neither (no η)
        # [≡-η1]/[≡-η2]: probe the λ body and the other side's application
        # at a shared fresh variable, free on both sides of the chain.
        probe = Var(fresh("eta"))
        if left_lam:
            return [(subst1(left.body, left.name, probe), App(right, probe), ctx_l, ctx_r, scope)]
        return [(App(left, probe), subst1(right.body, right.name, probe), ctx_l, ctx_r, scope)]


_RULES = _CCRules()
equivalent = _RULES.equivalent


def norm_equal_eta(left: Term, right: Term) -> bool:
    """α-compare two *normal forms* up to η for functions.

    Compatibility wrapper over the incremental engine: on normal forms the
    lazy whnf passes are no-ops and the walk degenerates to the old
    α-with-η comparison.
    """
    empty = Context.empty()
    return convert(_RULES, empty, empty, left, right, Budget())
