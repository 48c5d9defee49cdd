"""A generated shadowing oracle: reusing an enclosing binder's name changes nothing.

Each ``job_corpus`` program of seeds 1–29 gets one binder renamed to the
name of an enclosing binder that does not occur free in the renamed
binder's scope.  The result is α-equivalent to the original, so ``check``
must give an α-equal type and ``run`` the same observation.  A rename is
*capture-prone* when a type stored in scope at that point mentions the
reused name: a checker that resolved context variables by name would read
that type at the new binder.  The test counts those renames and requires
some, so it exercises capture on every run.
"""

from __future__ import annotations

import pytest

from repro import api, cc
from repro.gen.jobs import job_corpus
from repro.surface import parse_term

SEEDS = range(1, 30)
_SPEC = cc.ast.LANGUAGE.spec


def _stored(node: cc.Term) -> list[cc.Term]:
    """What a binder node's context entry keeps: its type (and definition)."""
    if type(node) is cc.Let:
        return [node.annot, node.bound]
    return [node.first if type(node) is cc.Sigma else node.domain]


def _renames(term: cc.Term) -> list[tuple[tuple, str, bool]]:
    """``(path, name, capture_prone)`` for every admissible rename in ``term``.

    ``path`` is the child-attribute path to a binder node; ``name`` is an
    enclosing binder's name, free nowhere in that node's scope.
    """
    found = []
    # (node, path, enclosing [(name, stored terms)] in scope order)
    stack: list[tuple[cc.Term, tuple, list]] = [(term, (), [])]
    while stack:
        node, path, scope = stack.pop()
        spec = _SPEC(node)
        for child in spec.children:
            inner = scope
            if child.binders:
                inner = scope + [(getattr(node, child.binders[0]), _stored(node))]
            stack.append((getattr(node, child.attr), path + (child.attr,), inner))
        if not spec.binder_attrs:
            continue
        own = getattr(node, spec.binder_attrs[0])
        body = [getattr(node, child.attr) for child in spec.children if child.binders]
        for index, (name, _) in enumerate(scope):
            if name in (own, "_") or any(name in cc.free_vars(part) for part in body):
                continue
            later = [term for _, stored in scope[index + 1:] for term in stored]
            mentioned = any(name in cc.free_vars(term) for term in later + _stored(node))
            found.append((path, name, mentioned))
    return found


def _renamed(term: cc.Term, path: tuple, name: str) -> cc.Term:
    """``term`` with the binder at ``path`` renamed to ``name`` (α-equivalent)."""
    if not path:
        spec = _SPEC(term)
        binder = spec.binder_attrs[0]
        old = getattr(term, binder)
        fields = {attr: getattr(term, attr) for attr in spec.field_order}
        fields[binder] = name
        for child in spec.children:
            if child.binders:
                fields[child.attr] = cc.subst1(fields[child.attr], old, cc.Var(name))
        return type(term)(*(fields[attr] for attr in spec.field_order))
    spec = _SPEC(term)
    fields = {attr: getattr(term, attr) for attr in spec.field_order}
    fields[path[0]] = _renamed(fields[path[0]], path[1:], name)
    return type(term)(*(fields[attr] for attr in spec.field_order))


def _shadowed_programs() -> list[tuple[int, str, cc.Term, bool]]:
    """One rename per program that admits one, capture-prone ones first."""
    cases = []
    for seed in SEEDS:
        for spec in job_corpus(seed):
            term = parse_term(spec["program"])
            renames = sorted(_renames(term), key=lambda rename: not rename[2])
            if renames:
                path, name, mentioned = renames[0]
                cases.append((seed, spec["program"], _renamed(term, path, name), mentioned))
    return cases


_CASES = _shadowed_programs()


def test_some_renames_are_capture_prone():
    assert sum(mentioned for *_, mentioned in _CASES) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_reusing_an_enclosing_name_changes_nothing(seed):
    cases = [case for case in _CASES if case[0] == seed]
    for _, text, renamed, _ in cases:
        original = parse_term(text)
        assert cc.alpha_equal(original, renamed)
        expected = api.Session().check(original).type_
        assert cc.alpha_equal(api.Session().check(renamed).type_, expected), text
        assert api.Session().run(renamed).observed == api.Session().run(original).observed
