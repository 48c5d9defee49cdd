"""Free-variable sets, stored on the terms they describe.

The free variables of a node depend only on the node itself: for each child
``c`` under binders ``b…``, the contribution is ``fv(c) − {b…}``.  That
makes the set a pure, position-independent fact of the node, so it lives on
the node: both calculi's ``Term`` base class declares an ``_fv`` slot, which
only this module reads or fills.  One call to :func:`free_vars` fills the
slot for the *entire* subterm DAG with a single iterative post-order pass
(no recursion, so 10k-deep application spines are fine); thereafter every
lookup — in particular the per-call scan ``subst`` used to pay — is an
attribute read returning a shared frozenset.

Both ``Term`` bases set the slot to None at construction, so probing a
node no walk has reached is a plain slot read.  A filled slot is never
cleared, and every session and thread sees it.  Two threads walking one
DAG at once compute equal sets and each slot write is atomic, so either
writer's set is correct and a walk always finds a child's set once the
child has been visited.  Hash-consing
(:mod:`repro.kernel.intern`) fills the slot eagerly at construction time.

:func:`known_free_vars` is the probe-only reader, for the sites that must
stay O(1) and never walk: NbE's memo-relevance test, ``intern``'s walk memo
and ``subst``'s per-node relevance scan.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.nodespec import Language

__all__ = ["free_vars", "known_free_vars"]

_EMPTY: frozenset[str] = frozenset()
# Frozen dataclasses refuse ``setattr``; the slot is written underneath it.
_fill = object.__setattr__


def known_free_vars(term: Any) -> frozenset[str] | None:
    """``term``'s free variables if some walk has computed them, else None."""
    return getattr(term, "_fv", None)


def free_vars(lang: Language, term: Any) -> frozenset[str]:
    """The free variable names of ``term``, as a shared frozenset."""
    found = getattr(term, "_fv", None)
    if found is not None:
        return found

    var_cls = lang.var_cls
    # Iterative post-order: a frame is (term, expanded?).  Children are
    # pushed on first visit; the node's set is assembled on the second,
    # when every child's slot is filled.
    stack: list[tuple[Any, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            if node._fv is not None:  # a shared node, filled since it was pushed
                continue
            if isinstance(node, var_cls):
                _fill(node, "_fv", frozenset((node.name,)))
                continue
            spec = lang.spec(node)
            if not spec.children:
                _fill(node, "_fv", _EMPTY)
                continue
            stack.append((node, True))
            for child in spec.children:
                sub = getattr(node, child.attr)
                if sub._fv is None:
                    stack.append((sub, False))
        else:
            spec = lang.specs[type(node)]
            parts: list[frozenset[str]] = []
            for child in spec.children:
                sub = getattr(node, child.attr)._fv
                if child.binders and sub:
                    bound = {getattr(node, b) for b in child.binders}
                    if not bound.isdisjoint(sub):
                        sub = sub.difference(bound)
                if sub:
                    parts.append(sub)
            if not parts:
                result = _EMPTY
            elif len(parts) == 1:
                result = parts[0]
            else:
                result = parts[0].union(*parts[1:])
            _fill(node, "_fv", result)
    return term._fv
