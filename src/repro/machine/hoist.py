"""Code hoisting: lift closed code to a top-level, statically allocated table.

Closure conversion's purpose (paper Section 3) is that code becomes
*closed* and can therefore be "lifted to the top-level and statically
allocated".  This pass performs that lift for CC-CC programs: every
:class:`repro.cccc.ast.CodeLam` is replaced by a reference to a label in a
program-wide code table.  Because the [Code] typing rule already
guarantees closedness, hoisting cannot capture anything — which the pass
re-checks defensively.

A hoisted program means its unhoisting, so its check is ``infer`` of
that (see :func:`check_program`): one pass that types ``main`` and every
block it reaches.  Identical code bodies are deduplicated by α-invariant
structure, through an exact α-canonical key, so hoisting is linear in the
program's size.

The walk is **iterative** (an explicit work stack driven by the CC-CC node
specs, like every other kernel traversal), so closure-converted programs
with ~10k-node spines hoist without touching the Python recursion limit —
the printers and the machine they feed were already stack-safe, and this
pass was the last recursive tree walk in front of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro import cccc
from repro.cccc.ast import LANGUAGE
from repro.cccc.context import Context
from repro.common.errors import TranslationError

__all__ = ["Program", "check_program", "hoist"]


@dataclass(frozen=True)
class Program:
    """A hoisted CC-CC program: static code table + main expression."""

    code_table: dict[str, cccc.CodeLam]
    main: cccc.Term

    @property
    def code_count(self) -> int:
        """Number of statically allocated code blocks."""
        return len(self.code_table)

    @cached_property
    def size(self) -> int:
        """Node count of ``main`` plus every code block, computed once."""
        return cccc.term_size(self.main) + sum(
            cccc.term_size(code) for code in self.code_table.values()
        )

    def __str__(self) -> str:
        lines = []
        for label, code in self.code_table.items():
            lines.append(f"{label} = {cccc.pretty(code)}")
        lines.append(f"main = {cccc.pretty(self.main)}")
        return "\n".join(lines)


@dataclass
class _Hoister:
    table: dict[str, cccc.CodeLam] = field(default_factory=dict)
    labels: dict[tuple, str] = field(default_factory=dict)  # α-key -> label

    def add(self, code: cccc.CodeLam) -> str:
        # Deduplicate α-equivalent code blocks (compiled code differs only
        # in machine-generated environment names).
        key = _alpha_key(code)
        label = self.labels.get(key)
        if label is None:
            label = self.labels[key] = f"code${len(self.table)}"
            self.table[label] = code
        return label


def _alpha_key(term: cccc.Term) -> tuple:
    """A key equal for two terms exactly when they are α-equivalent.

    One iterative pre-order walk over the node specs emits each node's
    class and data; a variable emits the de Bruijn level of its binder (an
    ``int``: the number of binders above that binder on the path from the
    root) or, when free, its name (a ``str``).  Every class has a fixed
    arity, so the token sequence reads back as one tree.
    """
    specs = LANGUAGE.specs
    tokens: list = []
    stack: list[tuple[cccc.Term, dict[str, int], int]] = [(term, {}, 0)]
    while stack:
        node, levels, depth = stack.pop()
        if type(node) is cccc.Var:
            level = levels.get(node.name)
            tokens.append(node.name if level is None else level)
            continue
        spec = specs[type(node)]
        tokens.append(spec.cls)
        for attr in spec.data_attrs:
            tokens.append(getattr(node, attr))
        bound, scope = 0, levels
        pending = []
        for child in spec.children:
            while bound < len(child.binders):
                scope = {**scope, getattr(node, spec.binder_attrs[bound]): depth + bound}
                bound += 1
            pending.append((getattr(node, child.attr), scope, depth + bound))
        stack.extend(reversed(pending))
    return tuple(tokens)


def hoist(term: cccc.Term) -> Program:
    """Lift every code literal in ``term`` into a top-level table."""
    hoister = _Hoister()
    main = _hoist(term, hoister)
    if __debug__:
        _check_earlier_labels(hoister.table)
    return Program(hoister.table, main)


def _check_earlier_labels(table: dict[str, cccc.CodeLam]) -> None:
    """Cheap debug guard on the earlier-labels invariant.

    Every table consumer replays under it (``unhoist`` and so
    ``check_program``, the machine's lazy code lookup, the backend's
    staging pass): code blocks are closed before hoisting, so a hoisted
    entry's free variables are exactly the labels it references — and
    innermost-first hoisting means those labels were all allocated
    *before* its own.
    """
    earlier: set[str] = set()
    for label, code in table.items():
        stray = cccc.free_vars(code) - earlier
        if stray:
            raise AssertionError(
                f"hoist invariant broken: block {label!r} references "
                f"non-earlier label(s) {sorted(stray)}"
            )
        earlier.add(label)


def _hoist(root: cccc.Term, hoister: _Hoister) -> cccc.Term:
    """Rebuild ``root`` with every (closed) ``CodeLam`` replaced by a label.

    Iterative post-order over the node specs: a frame is ``(term,
    expanded?)``.  First visit checks code closedness (the [Code] rule's
    guarantee, re-checked defensively) and pushes the children; second
    visit pops their results and rebuilds — sharing the original node when
    no child changed — then swaps a rebuilt ``CodeLam`` for a table label.
    Nested code is hoisted innermost-first, so a hoisted body only ever
    references *earlier* labels — the invariant ``unhoist`` (and so
    ``check_program``) replays the table under.  (Children are visited in
    field order; the old recursion visited a ``CodeLam``'s body before its
    type annotations, so label *numbering* can differ from pre-iterative
    releases when code sits in a type position — the invariant, not the
    numbering, is the contract.)  A node the term shares (closure
    conversion emits one object per closed subterm) is rebuilt once; each
    later occurrence reuses that result, which is what a second walk would
    rebuild, since its code blocks are already in the table.
    """
    specs = LANGUAGE.specs
    results: list[cccc.Term] = []
    done: dict[int, cccc.Term] = {}  # id(node) -> its result; ``root`` pins the nodes
    stack: list[tuple[cccc.Term, bool]] = [(root, False)]
    while stack:
        term, expanded = stack.pop()
        spec = specs.get(type(term))
        if spec is None:
            raise TranslationError(f"not a CC-CC term: {term!r}")
        if not expanded:
            found = done.get(id(term))
            if found is not None:
                results.append(found)
                continue
            if isinstance(term, cccc.CodeLam):
                stray = cccc.free_vars(term)
                if stray:
                    raise TranslationError(
                        f"cannot hoist open code (free variables {sorted(stray)})"
                    )
            if not spec.children:
                results.append(term)
                continue
            stack.append((term, True))
            for child in reversed(spec.children):
                stack.append((getattr(term, child.attr), False))
        else:
            count = len(spec.children)
            values = results[-count:]
            del results[-count:]
            child_iter = iter(values)
            args: list = []
            changed = False
            for attr in spec.field_order:
                if attr in spec.child_attrs:
                    value = next(child_iter)
                    changed = changed or value is not getattr(term, attr)
                    args.append(value)
                else:
                    args.append(getattr(term, attr))
            rebuilt = type(term)(*args) if changed else term
            if isinstance(rebuilt, cccc.CodeLam):
                rebuilt = cccc.Var(hoister.add(rebuilt))
            done[id(term)] = rebuilt
            results.append(rebuilt)
    return results[-1]


def unhoist(program: Program) -> cccc.Term:
    """Invert :func:`hoist`: substitute code blocks back for their labels.

    Hoisted code bodies may reference *earlier* labels (nested code is
    hoisted innermost-first), so reconstitution walks the table in order,
    closing each entry over the already-reconstituted ones.
    """
    closed: dict[str, cccc.Term] = {}
    for label, code in program.code_table.items():
        closed[label] = cccc.subst(code, closed)
    return cccc.subst(program.main, closed)


def check_program(program: Program) -> cccc.Term:
    """The type of ``program.main`` with every label replaced by its block.

    A hoisted program means its unhoisting, so its check is ``infer`` of
    that: a block naming a later or unknown label leaves a free variable.
    """
    return cccc.infer(Context.empty(), unhoist(program))
