"""Declarative binding-structure descriptors for AST node classes.

A :class:`Language` records, for each node class of a calculus, a
:class:`NodeSpec`: which dataclass fields are binder *names*, which are
subterms (*children*), which are plain data (e.g. ``BoolLit.value``), and —
the load-bearing part — which binders scope over which children.  Every
generic engine in the kernel (free variables, substitution, α-equivalence,
traversal, hash-consing) is driven by these specs, so adding a node to a
calculus means adding one ``Language.node`` call, not five traversal cases.

Scoping is *telescopic*: a node's binders are ordered, and each child is in
scope of some prefix of them.  Both calculi satisfy this (e.g. CC-CC's
``CodeLam(env_name, env_type, arg_name, arg_type, body)`` has ``env_type``
under no binder, ``arg_type`` under ``env_name``, and ``body`` under both),
and registration enforces it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.kernel.state import current_state, register_language

__all__ = ["ChildSpec", "Language", "NodeSpec"]


@dataclass(frozen=True, slots=True)
class ChildSpec:
    """A term-valued field and the binder fields (a prefix) it sits under."""

    attr: str
    binders: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """The binding structure of one AST node class."""

    cls: type
    binder_attrs: tuple[str, ...]
    data_attrs: tuple[str, ...]
    children: tuple[ChildSpec, ...]
    field_order: tuple[str, ...]
    #: ``{child.attr for child in children}`` — membership tests on the
    #: rebuild hot paths (substitution, hoisting, interning) must not
    #: rescan ``children`` per field.
    child_attrs: frozenset[str] = frozenset()
    #: The position of each child in ``field_order``, for positional
    #: rebuilds that replace children in place (the reduction oracle).
    child_slots: tuple[int, ...] = ()


class Language:
    """A calculus, as seen by the kernel: its node specs and its cache views.

    The node specs are immutable, process-wide facts about the calculus and
    live on the instance.  The identity-keyed caches the generic engines
    use (free variables, interned representatives, the hash-consing table
    of :mod:`repro.kernel.intern`) are *session state*: the properties
    below resolve them through the active :class:`~repro.kernel.state.KernelState`,
    so two sessions interning the same calculus never share a table.  The
    two concrete instances live at ``repro.cc.ast.LANGUAGE`` and
    ``repro.cccc.ast.LANGUAGE``.
    """

    __slots__ = ("name", "term_base", "var_cls", "specs")

    def __init__(self, name: str, term_base: type, var_cls: type) -> None:
        self.name = name
        self.term_base = term_base
        self.var_cls = var_cls
        self.specs: dict[type, NodeSpec] = {}
        register_language(self)

    @property
    def fv_cache(self) -> Any:
        """The active session's free-variable cache for this calculus."""
        return current_state().store(self).fv_cache

    @property
    def intern_cache(self) -> Any:
        """The active session's ``id(term) -> representative`` intern memo."""
        return current_state().store(self).intern_cache

    @property
    def hashcons(self) -> dict[tuple, Any]:
        """The active session's hash-consing table for this calculus."""
        return current_state().store(self).hashcons

    @property
    def hash_cache(self) -> Any:
        """The active session's ``id(term) -> content hash`` cache (weak)."""
        return current_state().store(self).hash_cache

    @property
    def by_hash(self) -> dict[bytes, Any]:
        """The active session's ``content hash -> node`` adoption index."""
        return current_state().store(self).by_hash

    def store(self) -> Any:
        """The active session's whole :class:`~repro.kernel.state.LanguageStore`.

        For walks that touch several caches (the wire codec): resolve the
        contextvar once instead of once per property access.
        """
        return current_state().store(self)

    def node(
        self,
        cls: type,
        *,
        binders: tuple[str, ...] = (),
        data: tuple[str, ...] = (),
        scopes: dict[str, int] | None = None,
    ) -> NodeSpec:
        """Register ``cls`` with binder fields ``binders`` and payload ``data``.

        Every other dataclass field is a child; ``scopes`` maps a child
        field to the number of leading binders in scope for it (default 0).
        """
        field_order = tuple(f.name for f in dataclasses.fields(cls))
        scopes = scopes or {}
        children = tuple(
            ChildSpec(name, binders[: scopes.get(name, 0)])
            for name in field_order
            if name not in binders and name not in data
        )
        depth = 0
        for child in children:
            if len(child.binders) < depth:
                raise ValueError(
                    f"{cls.__name__}: child binder depths must be nondecreasing "
                    "in field order (telescopic scoping)"
                )
            depth = len(child.binders)
        if depth > len(binders):
            raise ValueError(f"{cls.__name__}: scope depth exceeds declared binders")
        spec = NodeSpec(
            cls,
            tuple(binders),
            tuple(data),
            children,
            field_order,
            frozenset(child.attr for child in children),
            tuple(field_order.index(child.attr) for child in children),
        )
        self.specs[cls] = spec
        return spec

    def spec(self, term: Any) -> NodeSpec:
        """The spec for ``term``'s class; TypeError for foreign objects."""
        spec = self.specs.get(type(term))
        if spec is None:
            raise TypeError(f"not a {self.name.upper()} term: {term!r}")
        return spec
