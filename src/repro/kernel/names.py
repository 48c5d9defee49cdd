"""Fresh variable names, drawn from the active session's counter.

Both calculi use a *named* term representation (matching the paper's
presentation), so capture-avoiding substitution must be able to rename a
binder to a name that cannot collide with anything the user wrote or any
name produced earlier.  We achieve this with a monotone counter owned by
the active :class:`~repro.kernel.state.KernelState` (one per session, so
isolated sessions draw deterministic, reproducible sequences) and a ``$``
separator, a character the surface lexer rejects in identifiers.

``x`` freshened once becomes ``x$1``; freshened again it becomes ``x$2`` (the
old suffix is stripped first so names do not grow without bound).

It depends on :mod:`repro.kernel.state` alone, so the kernel's engines
draw names without importing :mod:`repro.common` (which re-exports it).
"""

from __future__ import annotations

from repro.kernel.state import current_state

__all__ = ["base_name", "fresh", "is_machine_name"]

_SEPARATOR = "$"

# The counter lives on the active kernel state (one per session): two
# sessions interleaving draw exactly the numbers each would draw alone,
# which is what makes interleaved runs byte-identical to solo runs.
# Thread safety: ``KernelState.fresh_index`` is a ``next()`` on an
# ``itertools.count``, atomic under the GIL (the iterator advances in a
# single C-level call with no Python-level re-entry), so concurrent
# ``fresh`` calls against one state can never observe or issue the same
# number.  A ``fresh`` call racing a reset of the same state may draw from
# either counter — acceptable, since resets exist for single-threaded
# determinism, not concurrent use of one session.


def fresh(base: str = "x") -> str:
    """Return a name fresh for the active session, derived from ``base``.

    The result never collides with a surface-syntax identifier (those cannot
    contain ``$``) nor with any name previously issued by the same session.
    Safe to call from multiple threads.
    """
    stem = base_name(base)
    if not stem:
        stem = "x"
    return f"{stem}{_SEPARATOR}{current_state().fresh_index()}"


def base_name(name: str) -> str:
    """Strip a fresh suffix, recovering the human-readable stem of a name."""
    index = name.find(_SEPARATOR)
    if index == -1:
        return name
    return name[:index]


def is_machine_name(name: str) -> bool:
    """Return True if ``name`` was produced by :func:`fresh`."""
    return _SEPARATOR in name
