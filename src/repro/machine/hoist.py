"""Code hoisting: lift closed code to a top-level, statically allocated table.

Closure conversion's purpose (paper Section 3) is that code becomes
*closed* and can therefore be "lifted to the top-level and statically
allocated".  This pass performs that lift for CC-CC programs: every
:class:`repro.cccc.ast.CodeLam` is replaced by a reference to a label in a
program-wide code table.  Because the [Code] typing rule already
guarantees closedness, hoisting cannot capture anything — which the pass
re-checks defensively.

The hoisted program is still a well-typed CC-CC artifact: the code table
becomes a telescope of *definitions* ``ℓ = λ(x′,x).e : Code …``, and the
main expression type checks under it (see :func:`program_context`).
Identical code bodies are deduplicated by α-invariant structure.

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

__all__ = ["Program", "hoist", "program_context"]


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
    counter: int = 0

    def add(self, code: cccc.CodeLam) -> str:
        # Deduplicate α-equivalent code blocks (compiled code differs only
        # in machine-generated environment names).
        for label, existing in self.table.items():
            if cccc.alpha_equal(existing, code):
                return label
        label = f"code${self.counter}"
        self.counter += 1
        self.table[label] = code
        return label


def hoist(term: cccc.Term) -> Program:
    """Lift every code literal in ``term`` into a top-level table."""
    hoister = _Hoister()
    main = _hoist(term, hoister)
    if __debug__:
        _check_earlier_labels(hoister.table)
    return Program(hoister.table, main)


def _check_earlier_labels(table: dict[str, cccc.CodeLam]) -> None:
    """Cheap debug guard on the earlier-labels invariant.

    Every table consumer replays under it (``unhoist``, ``program_context``,
    the machine's lazy code lookup, the backend's staging pass): code
    blocks are closed before hoisting, so a hoisted entry's free variables
    are exactly the labels it references — and innermost-first hoisting
    means those labels were all allocated *before* its own.
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
    references *earlier* labels — the invariant ``unhoist`` and
    ``program_context`` replay the table under.  (Children are visited in
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


def program_context(program: Program) -> Context:
    """The typing context of a hoisted program: each label *defined* as its code.

    Labels in hoisted bodies are references into the static code segment;
    the kernel's [Code] rule demands literal closedness, so each table
    entry is first reconstituted into a fully closed code literal
    (:func:`unhoist` style) and then bound as a *definition*.  Typing
    ``program.main`` under this context re-verifies the whole program
    after hoisting: labels δ-reduce to their code blocks, so the CC-CC
    kernel sees exactly the pre-hoist term.
    """
    ctx = Context.empty()
    closed: dict[str, cccc.Term] = {}
    for label, code in program.code_table.items():
        literal = cccc.subst(code, closed)
        closed[label] = literal
        code_type = cccc.infer(ctx, literal)
        ctx = ctx.define(label, literal, code_type)
    return ctx
