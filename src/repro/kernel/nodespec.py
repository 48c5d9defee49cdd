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

The term operations of a calculus (free variables, interning, traversal,
substitution, α-equivalence and the construction helpers) are methods of
its :class:`Language`, defined once here; ``repro.cc.ast`` and
``repro.cccc.ast`` bind them (``free_vars = LANGUAGE.free_vars``).
Of the facts these operations derive, only the interning state is per
session (resolved through the ``Language`` properties); a node's free
variables and content hash are stored on the node itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator

from repro.kernel.state import current_state, register_language

__all__ = ["ChildSpec", "Language", "NodeSpec"]

#: The binder name of a non-dependent Π (``A → B``), which binds nothing.
_UNUSED = "_"


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
    #: rebuild hot paths (substitution, hoisting, the wire codec) must not
    #: rescan ``children`` per field.
    child_attrs: frozenset[str] = frozenset()
    #: The position of each child in ``field_order``, for positional
    #: rebuilds that replace children in place (the reduction oracle) and
    #: for the hash-consing key, which keys each child by identity.
    child_slots: tuple[int, ...] = ()


class Language:
    """A calculus, as seen by the kernel: its node specs and its cache views.

    The node specs are immutable, process-wide facts about the calculus and
    live on the instance.  The interning caches (the intern memo, the
    hash-consing table of :mod:`repro.kernel.intern` and the wire decoder's
    ``by_hash`` index) are *session state*: the properties below resolve
    them through the active :class:`~repro.kernel.state.KernelState`, so two
    sessions interning the same calculus never share a table.  A term's
    free variables and content hash are pure facts of the term and live on
    it instead (:mod:`repro.kernel.fv`, :mod:`repro.wire.codec`).  The
    two concrete instances live at ``repro.cc.ast.LANGUAGE`` and
    ``repro.cccc.ast.LANGUAGE``.

    ``by_name`` maps each registered class's name to the class.  The
    construction helpers find ``Pi``, ``App``, ``Zero`` and ``Succ`` there,
    as the wire decoder finds every class: both calculi use those names.
    """

    __slots__ = ("name", "term_base", "var_cls", "specs", "by_name")

    def __init__(self, name: str, term_base: type, var_cls: type) -> None:
        self.name = name
        self.term_base = term_base
        self.var_cls = var_cls
        self.specs: dict[type, NodeSpec] = {}
        self.by_name: dict[str, type] = {}
        register_language(self)

    @property
    def intern_cache(self) -> Any:
        """The active session's ``id(term) -> representative`` intern memo."""
        return current_state().store(self).intern_cache

    @property
    def hashcons(self) -> dict[tuple, Any]:
        """The active session's hash-consing table for this calculus."""
        return current_state().store(self).hashcons

    @property
    def by_hash(self) -> dict[bytes, Any]:
        """The active session's ``content hash -> node`` adoption index."""
        return current_state().store(self).by_hash

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
        self.by_name[cls.__name__] = cls
        return spec

    def spec(self, term: Any) -> NodeSpec:
        """The spec for ``term``'s class; TypeError for foreign objects."""
        spec = self.specs.get(type(term))
        if spec is None:
            raise TypeError(f"not a {self.name.upper()} term: {term!r}")
        return spec

    # ----------------------------------------------------------------------
    # Term operations: the entry points both calculus modules bind.
    # ----------------------------------------------------------------------

    def free_vars(self, term: Any) -> frozenset[str]:
        """The free variable names of ``term``: computed once per node and
        stored on it, so every caller shares one immutable set."""
        return _fv.free_vars(self, term)

    def intern(self, term: Any) -> Any:
        """The canonical (hash-consed) representative of ``term``'s α-class.

        ``intern(a) is intern(b)`` exactly when ``a`` and ``b`` are α-equivalent.
        """
        return _intern.intern(self, term)

    def build(self, cls: type, *args: Any) -> Any:
        """Hash-consing constructor: ``cls(*args)`` interned by structure.

        The calculus modules bind it as ``hashcons``; the property of that
        name is the active session's table.
        """
        return _intern._build(self, self.hashcons, cls, args)

    def subterms(self, term: Any) -> Iterator[Any]:
        """Pre-order iterator over ``term`` and all of its subterms (iterative)."""
        return _traverse.subterms(self, term)

    def term_size(self, term: Any) -> int:
        """Number of AST nodes in ``term`` (a proxy for program size)."""
        return _traverse.term_size(self, term)

    def subst(self, term: Any, mapping: dict[str, Any]) -> Any:
        """Apply the parallel substitution ``mapping`` to ``term``.

        Names not in ``mapping`` are untouched.  The result shares unmodified
        subterms with the input where possible.
        """
        return _substitution.subst(self, term, mapping)

    def subst1(self, term: Any, name: str, replacement: Any) -> Any:
        """Substitute ``replacement`` for free occurrences of ``name`` in ``term``.

        This is the paper's ``e[e'/x]``.
        """
        return _substitution.subst(self, term, {name: replacement})

    def rename(self, term: Any, old: str, new: str) -> Any:
        """Rename free occurrences of ``old`` to ``new`` (capture-avoiding)."""
        return _substitution.subst(self, term, {old: self.var_cls(new)})

    def alpha_equal(self, left: Any, right: Any) -> bool:
        """Structural equality of ``left`` and ``right`` up to bound names."""
        return _alpha.alpha_equal(self, left, right)

    def arrow(self, domain: Any, codomain: Any) -> Any:
        """Non-dependent function type ``domain → codomain`` (sugar, Section 2).

        In CC-CC a ``Pi`` classifies closures, so there it is a closure type.
        """
        return self.by_name["Pi"](_UNUSED, domain, codomain)

    def make_app(self, fn: Any, *args: Any) -> Any:
        """Left-nested application ``fn arg0 arg1 …``."""
        app = self.by_name["App"]
        for arg in args:
            fn = app(fn, arg)
        return fn

    def app_spine(self, term: Any) -> tuple[Any, list[Any]]:
        """Decompose left-nested applications into ``(head, [args…])``."""
        app = self.by_name["App"]
        args: list[Any] = []
        while isinstance(term, app):
            args.append(term.arg)
            term = term.fn
        args.reverse()
        return term, args

    def nat_literal(self, value: int) -> Any:
        """Build the numeral ``succ^value zero``."""
        if value < 0:
            raise ValueError(f"nat_literal of negative value {value}")
        succ = self.by_name["Succ"]
        result = self.by_name["Zero"]()
        for _ in range(value):
            result = succ(result)
        return result

    def nat_value(self, term: Any) -> int | None:
        """Inverse of :meth:`nat_literal`; ``None`` if ``term`` is not a numeral."""
        succ = self.by_name["Succ"]
        count = 0
        while isinstance(term, succ):
            count += 1
            term = term.pred
        if isinstance(term, self.by_name["Zero"]):
            return count
        return None


# The engines behind the term operations import this module for
# ``Language``, so they are bound here, after it is defined.
from repro.kernel import alpha as _alpha  # noqa: E402
from repro.kernel import fv as _fv  # noqa: E402
from repro.kernel import intern as _intern  # noqa: E402
from repro.kernel import substitution as _substitution  # noqa: E402
from repro.kernel import traverse as _traverse  # noqa: E402
