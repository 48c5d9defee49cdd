"""Dependent n-tuples and pattern lets — the Section 4 environment sugar.

The paper writes environments as dependent n-tuples ``⟨e…⟩ as Σ (x:A…)``
and opens them with pattern lets ``let ⟨x…⟩ = e′ in e``.  Both are sugar
over a sub-telescope of Γ, in which a definition ``x = e : A`` is a ``let``:

* the telescope type ``Σ (x0:A0, …, xn:An)`` is the nested strong pairs
  ``Σ x0:A0. (… (Σ xn:An. 1))`` terminated by the unit type;
* the tuple ``⟨e0, …, en⟩`` is nested pairs ``⟨e0, ⟨…, ⟨en, ⟨⟩⟩⟩⟩``, one
  per assumption, each inner annotation instantiated with the earlier
  entries (the typing rule for pairs substitutes the first component into
  the type of the second);
* the pattern let is a chain of ``let xi = fst (snd^k e′) : Ai in …``
  projections, ``k`` counting assumptions.

This module is the single place that elaborates the sugar, used by the
closure-conversion translation (Figure 9) and by tests.
"""

from __future__ import annotations

from repro.cccc.ast import Fst, Let, Pair, Sigma, Snd, Term, Unit, UnitVal
from repro.cccc.context import Binding
from repro.cccc.substitution import subst

__all__ = [
    "Telescope",
    "bind_env",
    "env_sigma",
    "env_tuple",
    "project",
    "tuple_values",
]

#: A dependent telescope: ordered entries; each type (and definition) may
#: mention the names of *earlier* entries.
Telescope = list[Binding]


def env_sigma(telescope: Telescope) -> Term:
    """The environment type ``Σ (x0:A0, …, xn:An)`` as nested Σ's over 1."""
    result: Term = Unit()
    for entry in reversed(telescope):
        if entry.definition is None:
            result = Sigma(entry.name, entry.type_, result)
        else:
            result = Let(entry.name, entry.definition, entry.type_, result)
    return result


def env_tuple(telescope: Telescope, values: list[Term]) -> Term:
    """The environment tuple ``⟨v0, …, vn⟩ as Σ (x0:A0, …)``.

    ``values[i]`` is the term stored for the ``i``-th assumption of the
    telescope.  In the paper's [CC-Lam] the values are exactly the free
    variables ``⟨xi …⟩``; the general form (arbitrary values) is what
    substitution produces and what the compositionality property exercises.

    Each nested pair is annotated with its telescope suffix, with the
    values (or instantiated definitions) of earlier entries substituted for
    their names — this is forced by the pair typing rule, which checks the
    second component at ``B[e1/x]``.
    """
    width = sum(entry.definition is None for entry in telescope)
    if width != len(values):
        raise ValueError(f"telescope has {width} assumptions but {len(values)} values given")
    annotations: list[Term] = []
    instantiation: dict[str, Term] = {}
    stored = iter(values)
    for index, entry in enumerate(telescope):
        if entry.definition is None:
            annotations.append(subst(env_sigma(telescope[index:]), instantiation))
            instantiation[entry.name] = next(stored)
        else:
            instantiation[entry.name] = subst(entry.definition, instantiation)
    result: Term = UnitVal()
    for value, annot in zip(reversed(values), reversed(annotations)):
        result = Pair(value, result, annot)
    return result


def project(env: Term, index: int) -> Term:
    """The ``index``-th component of an n-tuple: ``fst (snd^index env)``."""
    for _ in range(index):
        env = Snd(env)
    return Fst(env)


def bind_env(telescope: Telescope, env: Term, body: Term) -> Term:
    """The pattern let ``let ⟨x0, …, xn⟩ = env in body``.

    Elaborates to ``let x0 = fst env : A0 in … let xn = fst (snd^k env) :
    An in body`` (``let x = e : A`` for a definition).  Later
    annotations ``Ai`` may mention earlier ``xj``; those occurrences are
    bound by the outer lets, whose *definitions* (δ-equivalence to the
    projections) make the chain type check.
    """
    result = body
    index = sum(entry.definition is None for entry in telescope)
    for entry in reversed(telescope):
        index -= entry.definition is None
        bound = project(env, index) if entry.definition is None else entry.definition
        result = Let(entry.name, bound, entry.type_, result)
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
