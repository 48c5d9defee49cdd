"""Components, closing substitutions, and linking (paper Section 5.2).

A *component* is a well-typed open term ``Γ ⊢ e : A``.  Linking is
substitution: a closing substitution ``γ`` maps every assumption of Γ to a
closed term of the right type (``Γ ⊢ γ`` in the paper), and ``γ(e)`` is
the linked program.

The paper's separate-compilation story (Theorem 5.7): compiling a
component and *then* linking with compiled imports gives the same ground
observation as linking first and compiling the whole program.  Because CC
types can mention earlier imports, checking ``Γ ⊢ γ`` must substitute γ
into later types as it walks the telescope — the same dependency ordering
closure conversion relies on.

CC and CC-CC share one check and one link, parameterized by the calculus
module (:mod:`repro.cc` or :mod:`repro.cccc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType
from typing import Any

from repro import cc, cccc
from repro.cc.context import Context as CCContext
from repro.cccc.context import Context as TargetContext
from repro.closconv.translate import translate
from repro.common.errors import LinkError, TypeCheckError
from repro.kernel.budget import Budget

__all__ = [
    "ClosingSubstitution",
    "check_substitution",
    "check_target_substitution",
    "link",
    "link_target",
    "translate_substitution",
]


@dataclass(frozen=True)
class ClosingSubstitution:
    """A closing substitution γ: name → closed term, of CC or of CC-CC."""

    mapping: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.mapping[name]

    def __contains__(self, name: str) -> bool:
        return name in self.mapping

    def items(self):
        """Iterate over (name, term) pairs."""
        return self.mapping.items()


def check_substitution(
    ctx: CCContext, gamma: ClosingSubstitution, budget: Budget | None = None
) -> None:
    """Check ``Γ ⊢ γ``: each import receives a closed term of its type.

    ``budget`` (a fresh default when omitted) is threaded through every
    per-import judgment, so callers — ``repro.api.Session.link`` in
    particular — can report the exact fuel the whole check spent.
    """
    _check(cc, ctx, gamma, budget)


def check_target_substitution(ctx: TargetContext, gamma: ClosingSubstitution) -> None:
    """Check a CC-CC closing substitution against a translated interface."""
    _check(cccc, ctx, gamma, None)  # one fresh budget for the whole check, as in CC


def link(ctx: CCContext, term: cc.Term, gamma: ClosingSubstitution) -> cc.Term:
    """``γ(e)``: close ``term`` over its imports."""
    return _link(cc, ctx, term, gamma)


def link_target(
    ctx: TargetContext, term: cccc.Term, gamma: ClosingSubstitution
) -> cccc.Term:
    """``γ(e)`` on the CC-CC side."""
    return _link(cccc, ctx, term, gamma)


def translate_substitution(gamma: ClosingSubstitution) -> ClosingSubstitution:
    """``γ⁺``: compile a closing substitution pointwise (each value is closed)."""
    empty = CCContext.empty()
    return ClosingSubstitution(
        {name: translate(empty, value) for name, value in gamma.items()}
    )


def _check(
    calculus: ModuleType, ctx, gamma: ClosingSubstitution, budget: Budget | None
) -> None:
    """``Γ ⊢ γ`` in ``calculus`` (:mod:`repro.cc` or :mod:`repro.cccc`).

    Types of later entries are instantiated with the values chosen for
    earlier entries before checking.  Definition entries must be *matched*
    by γ (mapped to a term equivalent to their instantiated definition) or
    omitted, in which case the definition itself is used at link time.
    """
    if budget is None:
        budget = Budget()
    empty = calculus.Context.empty()
    applied: dict[str, Any] = {}
    for binding in ctx:
        expected_type = calculus.subst(binding.type_, applied)
        if binding.definition is not None:
            value = calculus.subst(binding.definition, applied)
            if binding.name in gamma:
                supplied = gamma[binding.name]
                if not calculus.equivalent(empty, supplied, value, budget):
                    raise LinkError(
                        f"substitution for defined import {binding.name!r} is not "
                        f"equivalent to its definition"
                    )
                value = supplied
        else:
            if binding.name not in gamma:
                raise LinkError(f"no substitution for import {binding.name!r}")
            value = gamma[binding.name]
            stray = calculus.free_vars(value)
            if stray:
                raise LinkError(
                    f"substitution for {binding.name!r} is not closed: "
                    f"free variables {sorted(stray)}"
                )
        try:
            calculus.check(empty, value, expected_type, budget)
        except TypeCheckError as error:
            raise LinkError(
                f"substitution for {binding.name!r} has the wrong type: {error}"
            ) from error
        applied[binding.name] = value


def _link(calculus: ModuleType, ctx, term, gamma: ClosingSubstitution):
    """``γ(e)`` in ``calculus``.

    Entries are substituted in telescope order so that values chosen for
    earlier imports flow into the (possibly dependent) defaults of later
    definition entries.
    """
    applied: dict[str, Any] = {}
    for binding in ctx:
        if binding.name in gamma:
            applied[binding.name] = calculus.subst(gamma[binding.name], applied)
        elif binding.definition is not None:
            applied[binding.name] = calculus.subst(binding.definition, applied)
    return calculus.subst(term, applied)
