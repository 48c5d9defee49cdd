"""Pretty printer for CC terms.

The output mirrors the paper's notation (``Π x:A. B``, ``λ x:A. e``,
``⟨e1, e2⟩``, ``⋆``, ``□``) and round-trips through the surface parser for
the ASCII forms.  Used pervasively in error messages.  The printer itself
is the one shared with CC-CC and the surface syntax, in
:mod:`repro.common.render`.
"""

from __future__ import annotations

from repro.cc.ast import Term, free_vars
from repro.common.render import _PAPER, render

__all__ = ["pretty"]


def pretty(term: Term) -> str:
    """Render ``term`` as human-readable concrete syntax."""
    return render(term, _PAPER, free_vars)
