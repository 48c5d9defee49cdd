"""Print CC terms back into parseable surface syntax.

``parse_term(to_surface(e))`` is α-equal to ``e`` for any CC term whose
variable names are lexable identifiers; machine-generated names (which
contain ``$``) are sanitized first.  The round-trip property is tested in
``tests/test_surface_printer.py`` and used by the CLI to emit readable
output.

Both passes are **iterative**: the printer shared with CC and CC-CC
(:mod:`repro.common.render`) streams string fragments off a work stack,
and the binder sanitizer is a spec-driven post-order rebuild, so
~10k-node-deep terms print without approaching the Python recursion limit.
"""

from __future__ import annotations

from repro import cc
from repro.cc.ast import LANGUAGE
from repro.common.names import base_name, is_machine_name
from repro.common.render import _SURFACE, render

__all__ = ["sanitize_names", "to_surface"]


def to_surface(term: cc.Term) -> str:
    """Render ``term`` as parseable surface syntax."""
    return render(sanitize_names(term), _SURFACE, cc.free_vars)


def sanitize_names(term: cc.Term) -> cc.Term:
    """Rewrite machine names (``x$7``) into lexable ones (``x_7``)."""
    mapping: dict[str, cc.Term] = {}
    for name in cc.free_vars(term):
        if is_machine_name(name):
            mapping[name] = cc.Var(_sanitize(name))
    term = cc.subst(term, mapping)
    return _sanitize_binders(term)


def _sanitize(name: str) -> str:
    stem = base_name(name)
    suffix = name.split("$", 1)[1] if "$" in name else ""
    return f"{stem}_{suffix}" if suffix else stem


def _sanitize_binders(term: cc.Term) -> cc.Term:
    """Rename machine-named binders via capture-avoiding substitution.

    Iterative post-order rebuild driven by the kernel node specs; subtrees
    without machine names are shared with the input unchanged.
    """
    out: list = [None]
    # Tasks: ("visit", term, dest, idx) | ("build", node, spec, parts, dest, idx)
    tasks: list = [("visit", term, out, 0)]
    while tasks:
        task = tasks.pop()
        if task[0] == "visit":
            _, node, dest, idx = task
            spec = LANGUAGE.spec(node)
            if not spec.children:
                dest[idx] = node
                continue
            parts: list = [None] * len(spec.children)
            tasks.append(("build", node, spec, parts, dest, idx))
            for position, child in enumerate(spec.children):
                tasks.append(("visit", getattr(node, child.attr), parts, position))
        else:
            _, node, spec, parts, dest, idx = task
            rebuilt = dict(zip((child.attr for child in spec.children), parts))
            names = {attr: getattr(node, attr) for attr in spec.binder_attrs}
            for attr, name in names.items():
                if not is_machine_name(name):
                    continue
                scoped = [
                    child.attr for child in spec.children if attr in child.binders
                ]
                fresh_name = _unused(
                    _sanitize(name), *(rebuilt[child_attr] for child_attr in scoped)
                )
                for child_attr in scoped:
                    rebuilt[child_attr] = cc.subst1(
                        rebuilt[child_attr], name, cc.Var(fresh_name)
                    )
                names[attr] = fresh_name
            if all(value is getattr(node, attr) for attr, value in rebuilt.items()) and all(
                name is getattr(node, attr) for attr, name in names.items()
            ):
                dest[idx] = node
                continue
            args = []
            for attr in spec.field_order:
                if attr in names:
                    args.append(names[attr])
                elif attr in rebuilt:
                    args.append(rebuilt[attr])
                else:
                    args.append(getattr(node, attr))
            dest[idx] = type(node)(*args)
    return out[0]


def _all_names(term: cc.Term) -> set[str]:
    """Every variable name occurring in ``term`` — free, bound, or binder."""
    names: set[str] = set()
    for sub in cc.subterms(term):
        if isinstance(sub, cc.Var):
            names.add(sub.name)
        name = getattr(sub, "name", None)
        if isinstance(name, str):
            names.add(name)
    return names


def _unused(base: str, *bodies: cc.Term) -> str:
    # Avoid *any* occurring name, not just free ones: colliding with a bound
    # name would make the capture-avoiding substitution rename that binder
    # with a fresh (machine, unlexable) name, defeating the sanitizer.
    used: set[str] = set()
    for body in bodies:
        used |= _all_names(body)
    candidate = base
    counter = 0
    while candidate in used:
        counter += 1
        candidate = f"{base}_{counter}"
    return candidate
