"""Fresh names: the session-drawn supply and a local deterministic one.

:func:`fresh` and its helpers live in :mod:`repro.kernel.names` (the
kernel must not import this package) and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.names import base_name, fresh, is_machine_name
from repro.kernel.state import current_state

__all__ = ["NameSupply", "base_name", "fresh", "is_machine_name", "reset_fresh_counter"]


def reset_fresh_counter() -> None:
    """Reset the active session's counter.  Only for runs needing determinism.

    Also clears every cache of the active session (hash-consing tables,
    intern memos, memoized normal forms): cached results may
    embed fresh names issued before the reset, and keeping them would make
    runs depend on execution history — exactly what resetting is meant to
    avoid.  Sibling sessions are untouched and keep their caches warm.
    """
    current_state().reset()


@dataclass
class NameSupply:
    """A local, deterministic name supply.

    The global :func:`fresh` is convenient but makes output depend on
    execution history.  Components that must produce *reproducible* names
    (the pretty printer, the hoisting pass) use a ``NameSupply`` seeded at a
    known point instead.
    """

    prefix: str = "v"
    _next: int = 0
    _used: set[str] = field(default_factory=set)

    def fresh(self, base: str | None = None) -> str:
        """Return a name unused by this supply, derived from ``base``."""
        stem = base_name(base) if base else self.prefix
        if not stem:
            stem = self.prefix
        candidate = stem
        while candidate in self._used:
            self._next += 1
            candidate = f"{stem}{self._next}"
        self._used.add(candidate)
        return candidate

    def reserve(self, name: str) -> None:
        """Mark ``name`` as taken so :meth:`fresh` never returns it."""
        self._used.add(name)
