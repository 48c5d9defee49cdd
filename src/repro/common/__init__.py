"""Shared infrastructure: fresh-name supply, error hierarchy, pretty-printing.

These utilities are deliberately language-agnostic: both the source calculus
(:mod:`repro.cc`) and the target calculus (:mod:`repro.cccc`) build on them.
"""

from repro.common.errors import (
    LinkError,
    NormalizationDepthExceeded,
    ParseError,
    ReproError,
    TranslationError,
    TypeCheckError,
)
from repro.common.names import NameSupply, base_name, fresh, is_machine_name, reset_fresh_counter

__all__ = [
    "LinkError",
    "NameSupply",
    "NormalizationDepthExceeded",
    "ParseError",
    "ReproError",
    "TranslationError",
    "TypeCheckError",
    "base_name",
    "fresh",
    "is_machine_name",
    "reset_fresh_counter",
]
