"""Lexer for the CC surface syntax.

The concrete syntax is ASCII and Coq-flavoured::

    \\ (A : Type) (x : A). x            -- λ (multi-binder sugar)
    forall (A : Type), A -> A           -- Π
    exists (x : Nat), Positive x        -- Σ
    let y = succ 0 : Nat in y
    <3, p> as (exists (x : Nat), P x)   -- dependent pair
    fst e   snd e   succ e
    if b then e1 else e2
    natelim(P, z, s, n)
    Type  Kind  Bool  Nat  true  false  0  42

Identifiers may contain letters, digits, underscores and primes, and must
not start with a digit.  The ``$`` character is reserved for machine
names and rejected here, which is what keeps :func:`repro.common.names.
fresh` collision-free.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.common.errors import ParseError

__all__ = ["KEYWORDS", "Token", "tokenize"]

KEYWORDS = {
    "fun",
    "forall",
    "exists",
    "let",
    "in",
    "if",
    "then",
    "else",
    "fst",
    "snd",
    "succ",
    "natelim",
    "as",
    "Type",
    "Kind",
    "Bool",
    "Nat",
    "true",
    "false",
}

#: One match per lexeme, with the blanks before it.  ``--`` comments come
#: before symbols and the two-character symbols before the one-character
#: ones, so ``->`` and ``=>`` win over ``-`` and ``=``.  ``\d`` is
#: ``str.isdecimal`` and ``\w`` is ``str.isalnum`` or ``_``; a word must also
#: start with a letter or ``_`` (checked in :func:`tokenize`).  Any other
#: character is ``bad``; ``end`` takes the blanks before the end of input.
_LEXEME = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>--[^\n]*)|(?P<symbol>->|=>|[\\():.,<>=])"
    r"|(?P<number>\d+)|(?P<word>\w[\w']*)|(?P<bad>.)|(?P<end>\Z))"
)


class Token(NamedTuple):
    """One lexeme with its source location (1-based line/column)."""

    kind: str  # 'ident' | 'number' | 'keyword' | 'symbol' | 'eof'
    text: str
    line: int
    column: int


#: ``Token``'s constructor minus its Python-level ``__new__``, which would
#: cost more than the scan itself.
_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; ``--`` starts a comment to end of line."""
    tokens: list[Token] = []
    line = 1
    line_start = 0  # source index of the current line's first character
    end = len(source)  # where the end-of-input token sits
    for found in _LEXEME.finditer(source):
        kind = found.lastgroup
        start = found.start(kind)
        if kind == "newline":
            line += 1
            line_start = start + 1
            end = len(source)
            continue
        if kind == "comment":
            end = start  # a trailing comment is skipped, not counted
            continue
        if kind == "end":
            continue
        text = found[kind]
        if kind == "word":
            if not text[0].isalpha() and text[0] != "_":
                kind, text = "bad", text[0]  # e.g. ``²``: alphanumeric, but no word starts with it
            else:
                kind = "keyword" if text in KEYWORDS else "ident"
        if kind == "bad":
            column = start - line_start + 1
            if text == "$":
                raise ParseError("'$' is reserved for machine-generated names", line, column)
            raise ParseError(f"unexpected character {text!r}", line, column)
        tokens.append(_token(Token, (kind, text, line, start - line_start + 1)))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens
