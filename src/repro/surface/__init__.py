"""A Coq-flavoured surface syntax for CC (lexer + parser).

The paper's formal syntax is austere; examples and tests are far more
readable written as, e.g.::

    parse_term(r"\\ (A : Type) (x : A). x")
    parse_term("forall (A : Type), A -> A")
    parse_term("exists (x : Nat), P x")
"""

from repro.surface.lexer import Token, tokenize
from repro.surface.parser import parse_term, source_size
from repro.surface.printer import to_surface

__all__ = ["Token", "parse_term", "source_size", "to_surface", "tokenize"]
