"""Typed closure conversion CC → CC-CC (paper Section 5).

* :mod:`repro.closconv.fv` — the dependent free-variable metafunction
  (Figure 10),
* :mod:`repro.closconv.translate` — the translation itself (Figure 9),
* :mod:`repro.closconv.pipeline` — the checked end-to-end compiler.
"""

from repro.closconv.fv import dependent_free_vars
from repro.closconv.pipeline import (
    CompilationResult,
    TypePreservationViolation,
    compile_term,
)
from repro.closconv.translate import translate, translate_context

__all__ = [
    "CompilationResult",
    "TypePreservationViolation",
    "compile_term",
    "dependent_free_vars",
    "translate",
    "translate_context",
]
