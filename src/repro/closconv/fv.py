"""Dependent free-variable sequences — the FV metafunction (paper Figure 10).

``FV(e, B, Γ)`` computes the sequence of free variables of a term *and its
type*, together with their types, closed under dependency: the types of
collected variables may mention further variables, whose types may mention
still others, and so on.  The result is ordered by position in Γ, which
guarantees the telescope is well-formed (each type only mentions earlier
entries) — Γ itself is a well-formed telescope and we return one of its
sub-telescopes.

This is the heart of why closure conversion for dependent types needs a
*type-directed* free-variable computation: a simply-typed FV would miss
variables that occur only in types (e.g. the type variable ``A`` in the
paper's polymorphic-identity example occurs in the inner function's type
annotation, not just its body).
"""

from __future__ import annotations

from repro.cc.ast import Term, free_vars
from repro.cc.context import Binding, Context
from repro.common.errors import TranslationError

__all__ = ["dependent_free_vars"]


def dependent_free_vars(ctx: Context, *terms: Term) -> list[Binding]:
    """``FV(terms…, Γ)``: the dependency-closed free variables of ``terms``.

    Returns the bindings (with their CC types) in Γ-telescope order.
    Raises :class:`TranslationError` if a free variable is not bound in
    ``ctx`` (the input was not well-typed under ``ctx``).

    Free-variable sets are stored on each term by the kernel, so the
    dependency walk over context types — which revisits the same type
    terms for every conversion site — costs one traversal per distinct
    term, ever, rather than one per call.
    """
    needed: set[str] = set()
    for term in terms:
        needed |= free_vars(term)

    collected: set[str] = set()
    worklist = sorted(needed)  # deterministic traversal order
    while worklist:
        name = worklist.pop()
        if name in collected:
            continue
        binding = ctx.lookup(name)
        if binding is None:
            raise TranslationError(
                f"free variable {name!r} is not bound in the context"
            )
        collected.add(name)
        for dependency in sorted(free_vars(binding.type_)):
            if dependency not in collected:
                worklist.append(dependency)

    ordered = sorted(collected, key=ctx.position)
    return [ctx.entries[ctx.position(name)] for name in ordered]
