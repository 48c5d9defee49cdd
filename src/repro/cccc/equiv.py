"""Definitional equivalence for CC-CC (paper Figure 6), decided incrementally.

CC-CC drops function η (there are no first-class functions) and replaces
it with the paper's η-principle for closures:

* [≡-Clo1]  if ``e1 ⊲* ⟨⟨λ (x′:A′, x:A). b, e′⟩⟩`` then ``e1 ≡ e2`` when
  ``Γ, x:A ⊢ b[e′/x′] ≡ e2 x``;
* [≡-Clo2]  symmetrically.

Operationally: *open* the closure — inline its environment into the code
body, leave the argument free — and compare against the other side applied
to that argument.  This is what makes two closures that differ only in how
much of the environment was inlined (the compositionality problem of
Section 5.1) definitionally equal.

Algorithm: the shared engine of :mod:`repro.kernel.convert` weak-head
normalizes each side lazily with pointer/intern short-circuits at every
recursion point; this module contributes the closure rules.  The closure η
hook fires whenever either side is a closure with literal code — the
``prepare`` hook weak-head-normalizes a closure's code position first, so a
closure over a δ-defined code variable still opens.  Opened bodies are
*not* re-normalized eagerly (the old implementation normalized them fully);
the engine's lazy whnf reduces the projection redexes opening creates only
as far as the comparison actually needs.  Each opening spends reduction
budget, bounding the comparison even on adversarial inputs.

Results are memoized per (left identity, right identity, context
definitions) with exact fuel replay, mirroring the normalization cache.
"""

from __future__ import annotations

from functools import partial

from repro.cccc.ast import LANGUAGE, App, Clo, CodeLam, Pair, Term, Var
from repro.cccc.context import Context
from repro.cccc.reduce import _NBE, Budget, whnf
from repro.cccc.substitution import subst
from repro.common.names import fresh
from repro.kernel.convert import ConversionRules, convert
from repro.kernel.nbe import read_back
from repro.kernel.reduction import whnf_value

__all__ = ["equivalent", "equivalent_structural"]


def _openable(term: Term) -> bool:
    """A closure whose code is literal, so [≡-Clo1/2] can fire."""
    return isinstance(term, Clo) and isinstance(term.code, CodeLam)


def _open(term: Clo, probe: Var) -> Term:
    """``b[e′/x′][probe/x]`` — *not* normalized; the engine reduces lazily."""
    code = term.code
    assert isinstance(code, CodeLam)
    return subst(code.body, {code.env_name: term.env, code.arg_name: probe})


class _CCCCRules(ConversionRules):
    """CC-CC hooks: closure η, code exposure, pair annotations ignored."""

    lang = LANGUAGE
    kind = "cccc.equiv"
    irrelevant = {Pair: ("annot",)}
    nbe = _NBE
    whnf = staticmethod(partial(whnf_value, _NBE))

    def prepare(self, ctx, term, budget):
        # Closures are weak-head normal, but their code position may hide a
        # CodeLam behind δ/projections; expose it so the η hook can open.
        if isinstance(term, Clo):
            code = whnf(ctx, term.code, budget)
            if code is not term.code:
                return Clo(code, term.env)
        return term

    def eta(self, left, right, scope, budget):
        # [≡-Clo1] / [≡-Clo2].  When both sides are openable this
        # degenerates to comparing both opened bodies at a shared fresh
        # argument (the whnf of ``right probe`` β-fires the right closure),
        # which is the declarative closure-equivalence rule of Section 3.2.
        if _openable(left):
            budget.spend()
            probe = Var(fresh("cloeta"))
            return [(_open(left, probe), App(read_back(_NBE, right), probe), scope)]
        if _openable(right):
            budget.spend()
            probe = Var(fresh("cloeta"))
            return [(App(read_back(_NBE, left), probe), _open(right, probe), scope)]
        return None


class _NoCloEtaRules(_CCCCRules):
    """The ablation variant: [≡-Clo1/2] disabled, closures compare
    structurally.  Used by :mod:`repro.closconv.ablation` to demonstrate
    that compositionality (Lemma 5.1) *needs* the closure η-principle."""

    def eta(self, left, right, scope, budget):
        return None


_RULES = _CCCCRules()
_NO_CLO_ETA_RULES = _NoCloEtaRules()

equivalent = _RULES.equivalent


def equivalent_structural(
    ctx: Context, left: Term, right: Term, budget: Budget | None = None
) -> bool:
    """CC-CC ≡ with [≡-Clo1/2] disabled (the ablation comparator)."""
    if budget is None:
        budget = Budget()
    return convert(_NO_CLO_ETA_RULES, ctx, left, right, budget)
