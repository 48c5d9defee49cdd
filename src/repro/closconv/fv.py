"""Dependent free-variable sequences — the FV metafunction (paper Figure 10).

``FV(e, B, Γ)`` computes the sequence of free variables of a term *and its
type*, together with their Γ entries, closed under dependency: the types
(and captured equations) of collected variables may mention further
variables, and so on.  The result is ordered by position in Γ, which
guarantees the telescope is well-formed (each entry only mentions earlier
entries) — Γ itself is a well-formed telescope and we return one of its
sub-telescopes.  A definition ``x = e : A`` keeps its equation, so the
code sees ``x ≡ e``, when ``x`` is free in a type the code checks against:
the λ's domain, a ``let``, pair or ``natelim`` annotation in its body, or
another entry's type or kept equation.  Otherwise it is the assumption
``x : A``, its value stored once in the environment.

This is the heart of why closure conversion for dependent types needs a
*type-directed* free-variable computation: a simply-typed FV would miss
variables that occur only in types (e.g. the type variable ``A`` in the
paper's polymorphic-identity example occurs in the inner function's type
annotation, not just its body).
"""

from __future__ import annotations

from repro.cc.ast import Lam, Let, NatElim, Pair, Term, free_vars, subterms
from repro.cc.context import Binding, Context
from repro.common.errors import TranslationError

__all__ = ["dependent_free_vars"]


def dependent_free_vars(ctx: Context, *terms: Term) -> list[Binding]:
    """``FV(terms…, Γ)``: the dependency-closed free variables of ``terms``.

    Returns the bindings in Γ-telescope order, a definition as an assumption
    unless a λ's domain or annotation, a captured type or a kept equation
    names it.  Raises :class:`TranslationError` on a name ``ctx`` lacks.

    Free-variable sets are stored on each term by the kernel, so the
    dependency walk over context entries — which revisits the same type
    terms for every conversion site — costs one traversal per distinct
    term, ever, rather than one per call.
    """
    needed: set[str] = set()
    for term in terms:
        needed |= free_vars(term)

    typed: set[str] = set()  # names free in a collected type or kept equation
    annotated: set[str] | None = None
    collected: dict[str, Binding] = {}
    worklist = sorted(needed)  # deterministic traversal order
    while worklist:
        name = worklist.pop()
        known = collected.get(name)
        if known is not None and (known.definition is not None or name not in typed):
            continue
        binding = ctx.lookup(name)
        if binding is None:
            raise TranslationError(f"free variable {name!r} is not bound in the context")
        if binding.definition is not None and name not in typed:
            if annotated is None:
                annotated = set().union(*(_annotation_vars(t) for t in terms if type(t) is Lam))
            if name not in annotated:
                binding = Binding(name, binding.type_)  # the code needs only its value
        if known is not None and binding.definition is None:
            continue
        collected[name] = binding
        for part in (binding.definition,) if known else (binding.type_, binding.definition):
            if part is not None:
                typed |= free_vars(part)
                worklist.extend(sorted(free_vars(part)))

    return sorted(collected.values(), key=lambda binding: ctx.position(binding.name))


def _annotation_vars(lam: Lam) -> set[str]:
    """The free names of ``lam``'s domain and of the annotations in its body."""
    names = set(free_vars(lam.domain))
    for node in subterms(lam.body):
        if type(node) in (Let, Pair):
            names |= free_vars(node.annot)
        elif type(node) is NatElim:
            names |= free_vars(node.motive)
    return names
