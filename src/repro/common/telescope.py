"""Ordered typing environments (telescopes), shared by both calculi.

An environment is an ordered sequence of entries

* *assumptions*  ``x : A`` and
* *definitions*  ``x = e : A``

where each entry's type (and definition) may mention earlier entries.  The
order is load-bearing: closure conversion's FV metafunction (paper
Figure 10) relies on it to produce well-formed environment telescopes.

The implementation never inspects the terms it stores, so one class serves
both CC and CC-CC; each language re-exports it from its ``context`` module.
Contexts are immutable — ``extend``/``define`` return new contexts — and
lookup is O(1) via an internal index, with later entries shadowing earlier
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Binding", "Context"]


@dataclass(frozen=True, slots=True)
class Binding:
    """One context entry: ``name : type_`` or ``name = definition : type_``."""

    name: str
    type_: Any
    definition: Any | None = None

    @property
    def is_definition(self) -> bool:
        """True for ``x = e : A`` entries (δ-reducible variables)."""
        return self.definition is not None


@dataclass(frozen=True)
class Context:
    """An ordered typing environment Γ."""

    entries: tuple[Binding, ...] = ()
    _index: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self._index and self.entries:
            object.__setattr__(
                self, "_index", {b.name: i for i, b in enumerate(self.entries)}
            )

    @staticmethod
    def empty() -> "Context":
        """The empty environment ``·``."""
        return Context()

    def extend(self, name: str, type_: Any) -> "Context":
        """Return ``Γ, name : type_``."""
        return self._push(Binding(name, type_))

    def define(self, name: str, definition: Any, type_: Any) -> "Context":
        """Return ``Γ, name = definition : type_``."""
        return self._push(Binding(name, type_, definition))

    def _push(self, binding: Binding) -> "Context":
        new_index = dict(self._index)
        new_index[binding.name] = len(self.entries)
        child = Context(self.entries + (binding,), new_index)
        # Parent link for the kernel's incremental context fingerprinting
        # (repro.kernel.memo.context_token): lets a one-entry extension
        # derive its visible-definitions map from this context in O(1)
        # instead of rescanning all entries.  The typing memo's path keys
        # (repro.kernel.judgment) follow the same link.
        object.__setattr__(child, "_kernel_parent", (self, binding))
        return child

    def lookup(self, name: str) -> Binding | None:
        """The entry binding ``name`` (innermost on shadowing), or None."""
        index = self._index.get(name)
        if index is None:
            return None
        return self.entries[index]

    def position(self, name: str) -> int:
        """Zero-based telescope position of ``name``; raises if absent."""
        index = self._index.get(name)
        if index is None:
            raise KeyError(f"unbound variable {name!r}")
        return index

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        """All bound names, in telescope order."""
        return [b.name for b in self.entries]

    def prefix(self, name: str) -> "Context":
        """The strict prefix of the context before ``name``'s entry."""
        return Context(self.entries[: self.position(name)])

    def __str__(self) -> str:
        parts = []
        for binding in self.entries:
            if binding.is_definition:
                parts.append(f"{binding.name} = {binding.definition} : {binding.type_}")
            else:
                parts.append(f"{binding.name} : {binding.type_}")
        return ", ".join(parts) if parts else "·"
