"""Dependent n-tuples and pattern lets — the Section 4 environment sugar.

The paper writes environments as dependent n-tuples ``⟨e…⟩ as Σ (x:A…)``
and opens them with pattern lets ``let ⟨x…⟩ = e′ in e``.  Both are sugar
over a sub-telescope of Γ, in which a definition ``x = e : A`` is a ``let``:

* the telescope type ``Σ (x0:A0, …, xn:An)`` is the nested strong pairs
  ``Σ x0:A0. (… (Σ xn:An. 1))`` terminated by the unit type;
* the tuple ``⟨e0, …, en⟩`` is nested pairs ``⟨e0, ⟨…, ⟨en, ⟨⟩⟩⟩⟩``, one
  per assumption, each inner annotation instantiated with the earlier
  entries (the typing rule for pairs substitutes the first component into
  the type of the second).  The annotations are the tails of *one* Σ
  object: an entry that stores its own variable (``x ↦ x``, every value
  closure conversion stores) instantiates nothing, so pair ``k``'s
  annotation is the ``k``-th tail itself, the outermost is the Σ type the
  code binds, and each inner one is its outer one's ``second``.  The
  checker's [Pair] rule skips sorting a pair annotation that *is* the
  expected type, so a closure's environment type is sorted once, with its
  code, however wide it is;
* the pattern let is a chain of ``let xi = fst (snd^k e′) : Ai in …``
  projections, ``k`` counting assumptions, with one ``let`` only for each
  entry its scope uses (directly, or through a later bound entry's type or
  definition).  The rest would be dead: leaving them out is ζ-equivalent
  to the paper's pattern let, and a code's argument type and body each
  pay only for the entries they read.

This module is the single place that elaborates the sugar, used by the
closure-conversion translation (Figure 9) and by tests.
"""

from __future__ import annotations

from repro.cccc.ast import Fst, Let, Pair, Sigma, Snd, Term, Unit, UnitVal, Var, free_vars
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


def env_tuple(telescope: Telescope, values: list[Term], env_type: Term | None = None) -> Term:
    """The environment tuple ``⟨v0, …, vn⟩ as Σ (x0:A0, …)``.

    ``values[i]`` is the term stored for the ``i``-th assumption of the
    telescope.  In the paper's [CC-Lam] the values are exactly the free
    variables ``⟨xi …⟩``; the general form (arbitrary values) is what
    substitution produces and what the compositionality property exercises.
    ``env_type`` is ``env_sigma(telescope)``, built here when not given.

    Each nested pair is annotated with the telescope suffix that starts at
    its assumption, a tail of ``env_type``, with the values (or instantiated
    definitions) of earlier entries substituted for their names — this is
    forced by the pair typing rule, which checks the second component at
    ``B[e1/x]``.  A value that is its entry's own variable substitutes
    nothing, so with no earlier value or definition to instantiate, the
    annotation is the tail object itself.
    """
    width = sum(entry.definition is None for entry in telescope)
    if width != len(values):
        raise ValueError(f"telescope has {width} assumptions but {len(values)} values given")
    tail = env_sigma(telescope) if env_type is None else env_type
    annotations: list[Term] = []
    instantiation: dict[str, Term] = {}
    stored = iter(values)
    for entry in telescope:
        name = entry.name
        if entry.definition is None:
            annotations.append(subst(tail, instantiation))
            value = next(stored)
            if type(value) is Var and value.name == name:
                instantiation.pop(name, None)  # x ↦ x binds nothing
            else:
                instantiation[name] = value
            tail = tail.second
        else:
            instantiation[name] = subst(entry.definition, instantiation)
            tail = tail.body
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
    """The pattern let ``let ⟨x0, …, xn⟩ = env in body``, pruned to ``body``.

    Elaborates to ``let xi = fst (snd^k env) : Ai in …`` (``let x = e : A``
    for a definition, ``k`` counting assumptions), one ``let`` for each
    entry that ``body`` needs: an entry free in ``body``, or free in the
    type or definition of a later entry that is itself bound.  An unneeded
    entry's ``let`` would be dead, so the chain is ζ-equivalent to the
    paper's full pattern let, and each bound entry keeps its index ``k``.
    Later annotations ``Ai`` may mention earlier ``xj``; those occurrences
    are bound by the outer lets, whose *definitions* (δ-equivalence to the
    projections) make the chain type check.  The needed set reads the free
    variables stored on the terms, so a code pays only for what it reads.
    """
    needed = set(free_vars(body))
    result = body
    index = sum(entry.definition is None for entry in telescope)
    for entry in reversed(telescope):
        index -= entry.definition is None
        if entry.name not in needed:
            continue
        needed.discard(entry.name)
        needed |= free_vars(entry.type_)
        if entry.definition is not None:
            needed |= free_vars(entry.definition)
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
