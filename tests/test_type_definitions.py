"""A generated Theorem 5.6 oracle: a λ's ground domain named by a type definition.

Each ``job_corpus`` program of seeds 1–29 that has a λ whose domain is
``Nat`` or ``Bool`` is wrapped in ``let T = Nat : Type in …`` (or
``Bool``), with ``T`` a name that occurs nowhere in the program, and the
first such λ's domain becomes ``T``.  The result is δ-equivalent to the
original.  That λ's closure captures the definition ``T``, and its code can
use its argument at the ground type only through the equation ``T ≡ Nat``.
So ``check`` must accept, ``compile`` must verify (the paper's
type-preservation theorem), and ``run`` must observe what the original
program does.

A second rewrite names the domain through two links, ``let X = Nat : Type
in let T = X : Type in …``, where ``X`` is the name of a binder that
encloses the λ (the first ground-domain λ that has one).  Inside, ``T``
unfolds to the outer ``X``, never to the enclosing binder: a kernel that
let that binder capture the unfolded name would read ``T`` as the binder's
type.  ``check`` must give the original's type, and ``compile`` and ``run``
must behave as above.
"""

from __future__ import annotations

import itertools

import pytest

from repro import api, cc
from repro.gen.jobs import job_corpus
from repro.surface import parse_term, to_surface

SEEDS = range(1, 30)
_SPEC = cc.ast.LANGUAGE.spec
_GROUND = (cc.Nat, cc.Bool)


def _ground_lambda(term: cc.Term, enclosed: bool) -> tuple | None:
    """``(path, names)`` of the first (pre-order) λ with a ground domain.

    ``path`` is its child-attribute path and ``names`` the names of the
    binders that enclose it, innermost last; with ``enclosed``, the first
    such λ that some binder encloses.
    """
    stack: list[tuple[cc.Term, tuple, tuple]] = [(term, (), ())]
    while stack:
        node, path, names = stack.pop()
        if type(node) is cc.Lam and type(node.domain) in _GROUND and (names or not enclosed):
            return path, names
        for child in reversed(_SPEC(node).children):
            bound = tuple(getattr(node, attr) for attr in child.binders)
            inner = names + tuple(name for name in bound if name != "_")
            stack.append((getattr(node, child.attr), path + (child.attr,), inner))
    return None


def _at(term: cc.Term, path: tuple) -> cc.Term:
    """The subterm of ``term`` at ``path``."""
    for attr in path:
        term = getattr(term, attr)
    return term


def _replaced(term: cc.Term, path: tuple, new: cc.Term) -> cc.Term:
    """``term`` with the subterm at ``path`` replaced by ``new``."""
    if not path:
        return new
    spec = _SPEC(term)
    fields = {attr: getattr(term, attr) for attr in spec.field_order}
    fields[path[0]] = _replaced(fields[path[0]], path[1:], new)
    return type(term)(*(fields[attr] for attr in spec.field_order))


def _unused_name(term: cc.Term) -> str:
    """A name that ``term`` neither binds nor mentions."""
    names = set()
    for node in cc.subterms(term):
        names.update(getattr(node, attr) for attr in _SPEC(node).binder_attrs)
        if type(node) is cc.Var:
            names.add(node.name)
    return next(name for name in itertools.chain(["T"], (f"T{i}" for i in itertools.count()))
                if name not in names)


def _defined_programs(shadowed: bool) -> list[tuple[int, str, str]]:
    """``(seed, original, rewritten)`` for every program with a ground-domain λ.

    ``shadowed`` picks the second rewrite, through an enclosing binder's name.
    """
    cases = []
    for seed in SEEDS:
        for spec in job_corpus(seed):
            term = parse_term(spec["program"])
            found = _ground_lambda(term, shadowed)
            if found is None:
                continue
            path, enclosing = found
            lam = _at(term, path)
            name = _unused_name(term)
            named = _replaced(term, path, cc.Lam(lam.name, cc.Var(name), lam.body))
            if shadowed:
                outer = enclosing[-1]
                named = cc.Let(name, cc.Var(outer), cc.Star(), named)
                wrapped = cc.Let(outer, lam.domain, cc.Star(), named)
            else:
                wrapped = cc.Let(name, lam.domain, cc.Star(), named)
            cases.append((seed, spec["program"], to_surface(wrapped)))
    return cases


_CASES = _defined_programs(shadowed=False)
_SHADOWED_CASES = _defined_programs(shadowed=True)


def test_every_seed_has_a_case():
    assert {seed for seed, *_ in _CASES} == set(SEEDS)
    assert {seed for seed, *_ in _SHADOWED_CASES} == set(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_type_definition_preserves_types_and_observations(seed):
    for _, original, rewritten in [case for case in _CASES if case[0] == seed]:
        api.Session().check(rewritten)
        assert api.Session().compile(rewritten).verified, rewritten
        assert api.Session().run(rewritten).observed == api.Session().run(original).observed


@pytest.mark.parametrize("seed", SEEDS)
def test_shadowed_type_definition_preserves_types_and_observations(seed):
    for _, original, rewritten in [case for case in _SHADOWED_CASES if case[0] == seed]:
        type_ = api.Session().check(rewritten).type_
        assert cc.alpha_equal(type_, api.Session().check(original).type_), rewritten
        assert api.Session().compile(rewritten).verified, rewritten
        assert api.Session().run(rewritten).observed == api.Session().run(original).observed
