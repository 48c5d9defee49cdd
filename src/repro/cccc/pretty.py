"""Pretty printer for CC-CC terms (paper notation: ⟨⟨e, e′⟩⟩, Code, 1, ⟨⟩).

The printer is the one shared with CC and the surface syntax, in
:mod:`repro.common.render`.
"""

from __future__ import annotations

from repro.cccc.ast import Term, free_vars
from repro.common.render import _PAPER, render

__all__ = ["pretty"]


def pretty(term: Term) -> str:
    """Render ``term`` as human-readable concrete syntax."""
    return render(term, _PAPER, free_vars)
