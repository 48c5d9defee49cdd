"""Linking by closing substitutions (paper Section 5.2, Theorem 5.7)."""

from repro.linking.link import (
    ClosingSubstitution,
    check_substitution,
    check_target_substitution,
    link,
    link_target,
    translate_substitution,
)

__all__ = [
    "ClosingSubstitution",
    "check_substitution",
    "check_target_substitution",
    "link",
    "link_target",
    "translate_substitution",
]
