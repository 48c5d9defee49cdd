"""Dependent n-tuples and pattern lets — the Section 4 environment sugar.

The paper writes environments as dependent n-tuples ``⟨e…⟩ as Σ (x:A…)``
and opens them with pattern lets ``let ⟨x…⟩ = e′ in e``.  Both are sugar:

* the telescope type ``Σ (x0:A0, …, xn:An)`` is the nested strong pairs
  ``Σ x0:A0. (… (Σ xn:An. 1))`` terminated by the unit type;
* the tuple ``⟨e0, …, en⟩`` is nested pairs ``⟨e0, ⟨…, ⟨en, ⟨⟩⟩⟩⟩`` with
  each inner annotation instantiated with the values of earlier
  components (the typing rule for pairs substitutes the first component
  into the type of the second);
* the pattern let is a chain of ``let xi = fst (snd^i e′) : Ai in …``
  projections.

This module is the single place that elaborates the sugar, used by the
closure-conversion translation (Figure 9) and by tests.
"""

from __future__ import annotations

from repro.cccc.ast import (
    Fst,
    Let,
    Pair,
    Sigma,
    Snd,
    Term,
    Unit,
    UnitVal,
    Var,
)
from repro.cccc.substitution import subst

__all__ = [
    "Telescope",
    "bind_env",
    "env_sigma",
    "env_tuple",
    "project",
    "tuple_values",
]

#: A dependent telescope: ordered (name, type) pairs; each type may mention
#: the names of *earlier* entries.
Telescope = list[tuple[str, Term]]


def env_sigma(telescope: Telescope) -> Term:
    """The environment type ``Σ (x0:A0, …, xn:An)`` as nested Σ's over 1."""
    result: Term = Unit()
    for name, type_ in reversed(telescope):
        result = Sigma(name, type_, result)
    return result


def env_tuple(telescope: Telescope, values: list[Term]) -> Term:
    """The environment tuple ``⟨v0, …, vn⟩ as Σ (x0:A0, …)``.

    ``values[i]`` is the term stored for telescope entry ``i``.  In the
    paper's [CC-Lam] the values are exactly the free variables
    ``⟨xi …⟩``; the general form (arbitrary values) is what substitution
    produces and what the compositionality property exercises.

    Each nested pair is annotated with its telescope suffix, with the
    values of earlier components substituted for their names — this is
    forced by the pair typing rule, which checks the second component at
    ``B[e1/x]``.
    """
    if len(telescope) != len(values):
        raise ValueError(
            f"telescope has {len(telescope)} entries but {len(values)} values given"
        )

    def build(index: int, instantiation: dict[str, Term]) -> Term:
        if index == len(telescope):
            return UnitVal()
        name = telescope[index][0]
        annot = subst(env_sigma(telescope[index:]), instantiation)
        rest = build(index + 1, {**instantiation, name: values[index]})
        return Pair(values[index], rest, annot)

    return build(0, {})


def project(env: Term, index: int) -> Term:
    """The ``index``-th component of an n-tuple: ``fst (snd^index env)``."""
    for _ in range(index):
        env = Snd(env)
    return Fst(env)


def bind_env(telescope: Telescope, env: Term, body: Term) -> Term:
    """The pattern let ``let ⟨x0, …, xn⟩ = env in body``.

    Elaborates to ``let x0 = fst env : A0 in … let xn = fst (snd^n env) :
    An in body``.  Later annotations ``Ai`` may mention earlier ``xj``;
    those occurrences are bound by the outer lets, whose *definitions*
    (δ-equivalence to the projections) make the chain type check.
    """
    result = body
    for index in range(len(telescope) - 1, -1, -1):
        name, type_ = telescope[index]
        result = Let(name, project(env, index), type_, result)
    return result


def tuple_values(term: Term) -> list[Term] | None:
    """Invert :func:`env_tuple`: the component list of a literal n-tuple.

    Returns ``None`` if ``term`` is not a nested-pair tuple ending in ⟨⟩.
    """
    values: list[Term] = []
    while isinstance(term, Pair):
        values.append(term.fst_val)
        term = term.snd_val
    if isinstance(term, UnitVal):
        return values
    return None
