"""The CC type checker (paper Figures 3 and 4).

Universe discipline (Section 2): ``⋆ : □`` and ``□`` has no type; Π is
impredicative in ``⋆`` ([Prod-⋆]) and predicative at ``□``; Σ is small
only when both components are ([Sig-⋆]), else it lands in ``□``, the
reading the paper's own environment telescopes require (DESIGN.md §3).

Every rule CC shares with CC-CC is written once in :mod:`repro.kernel.typing`;
this module is CC's :class:`~repro.kernel.typing.TypingSpec`: its
constants, its own rule [Lam], and its memo scope.  CC memoizes every
non-leaf judgment, so closure conversion reads each λ body's type back
through :func:`derived_type`, and the probes hit on hash-consed input.
"""

from __future__ import annotations

from repro.cc.ast import Bool, BoolLit, Box, Lam, Nat, Pi, Sigma, Star, Term, Zero
from repro.cc.context import Context
from repro.cc.equiv import equivalent
from repro.cc.pretty import pretty
from repro.cc.reduce import _NBE, Budget
from repro.kernel import typing
from repro.kernel.nbe import read_back

__all__ = ["check", "check_context", "derived_type", "infer", "infer_universe", "well_typed"]


def _lam(spec: typing.TypingSpec, ctx: Context, term: Lam, budget: Budget) -> Term:
    typing.universe(spec, ctx, term.domain, budget)
    body_type = typing.infer_value(spec, ctx.extend(term.name, term.domain), term.body, budget)
    return Pi(term.name, term.domain, read_back(_NBE, body_type))  # [Lam]


_STAR = Star()

_SPEC = typing.TypingSpec(
    nbe=_NBE,
    axioms={Star: Box(), Bool: _STAR, Nat: _STAR, BoolLit: Bool(), Zero: Nat()},
    rules={Lam: _lam},
    name="CC",
    memo_kinds=("cc.infer", "cc.check", "cc.universe"),
    memo_every_judgment=True,
    pi_cls=Pi, sigma_cls=Sigma,
    pretty=pretty, equivalent=equivalent,
)


infer = _SPEC.infer
check = _SPEC.check
infer_universe = _SPEC.infer_universe
well_typed = _SPEC.well_typed
check_context = _SPEC.check_context
derived_type = _SPEC.derived_type
