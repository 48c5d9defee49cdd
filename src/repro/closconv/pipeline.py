"""The user-facing compiler pipeline: check, translate, re-check.

:func:`compile_term` packages the whole Figure 9 story:

1. type check the source term in CC (rejecting ill-typed inputs),
2. closure-convert term, type, and context, on one path for every context:
   a λ keeps the captured equations its code's types need (``closconv/fv``),
3. (optionally) run the CC-CC kernel on the output — Theorem 5.6 says this
   *must* succeed, and the pipeline turns a failure into a loud
   :class:`TypePreservationViolation` rather than a silent miscompile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import cc, cccc
from repro.cc.context import Context as CCContext
from repro.cccc.context import Context as TargetContext
from repro.closconv.translate import translate, translate_context
from repro.common.errors import TypeCheckError
from repro.kernel.budget import Budget

__all__ = ["CompilationResult", "TypePreservationViolation", "compile_term"]


class TypePreservationViolation(TypeCheckError):
    """The compiled output failed to type check at the translated type.

    Theorem 5.6 proves this cannot happen; reaching this exception means a
    compiler bug (or a deliberately constructed counterexample in tests).
    """


@dataclass(frozen=True)
class CompilationResult:
    """Everything the compiler produced for one component.

    Attributes:
        source: the CC input term.
        source_type: its CC type (as inferred).
        source_context: the CC typing environment it was compiled under.
        target: the CC-CC output term ``source⁺``.
        target_type: the translated type ``source_type⁺``.
        target_context: the translated environment ``Γ⁺``.
        checked_type: the type the CC-CC kernel actually inferred for
            ``target`` (None when verification was disabled).  Theorem 5.6
            guarantees ``checked_type ≡ target_type``.
    """

    source: cc.Term
    source_type: cc.Term
    source_context: CCContext
    target: cccc.Term
    target_type: cccc.Term
    target_context: TargetContext
    checked_type: cccc.Term | None


def compile_term(
    ctx: CCContext,
    term: cc.Term,
    verify: bool = True,
    source_budget: Budget | None = None,
    verify_budget: Budget | None = None,
) -> CompilationResult:
    """Closure-convert ``term`` under ``ctx`` and verify type preservation.

    Args:
        ctx: the CC typing environment of the component.
        term: the well-typed CC term to compile.
        verify: run the CC-CC kernel on the output and compare against the
            translated type (Theorem 5.6 made executable).
        source_budget: fuel for the source type check; a fresh default
            budget when omitted.  ``repro.api`` passes one in to report the
            steps each phase spent.
        verify_budget: fuel for the CC-CC verification pass, likewise.

    Raises:
        TypeCheckError: the input is not well-typed CC.
        TypePreservationViolation: the output failed verification.
    """
    # One budget per kernel phase: the source check and the verification
    # each observe their own fuel, and judgment-cache hits replay into
    # these budgets so repeated compilations account identically.
    if source_budget is None:
        source_budget = Budget()
    source_type = cc.infer(ctx, term, source_budget)

    target = translate(ctx, term)
    target_type = translate(ctx, source_type)
    target_context = translate_context(ctx)

    checked_type: cccc.Term | None = None
    if verify:
        target_budget = verify_budget if verify_budget is not None else Budget()
        try:
            checked_type = cccc.infer(target_context, target, target_budget)
        except TypeCheckError as error:
            raise TypePreservationViolation(
                f"compiled term failed to type check in CC-CC: {error}"
            ) from error
        if not cccc.equivalent(target_context, checked_type, target_type, target_budget):
            raise TypePreservationViolation(
                "compiled term has the wrong type:\n"
                f"  inferred  {cccc.pretty(checked_type)}\n"
                f"  expected  {cccc.pretty(target_type)}"
            )

    return CompilationResult(
        source=term,
        source_type=source_type,
        source_context=ctx,
        target=target,
        target_type=target_type,
        target_context=target_context,
        checked_type=checked_type,
    )

