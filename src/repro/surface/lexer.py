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

#: Every symbol is one or two characters; the lexer tries the two-character
#: prefix first, so ``->`` and ``=>`` win over ``-`` and ``=``.
_SYMBOLS = frozenset(["->", "=>", "\\", "(", ")", ":", ".", ",", "<", ">", "="])


class Token(NamedTuple):
    """One lexeme with its source location (1-based line/column)."""

    kind: str  # 'ident' | 'number' | 'keyword' | 'symbol' | 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; ``--`` starts a comment to end of line."""
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("--", index):
            while index < length and source[index] != "\n":
                index += 1
            continue

        symbol = source[index : index + 2]
        if symbol not in _SYMBOLS:
            symbol = char
        if symbol in _SYMBOLS:
            tokens.append(Token("symbol", symbol, line, column))
            index += len(symbol)
            column += len(symbol)
            continue

        if char.isdecimal():
            start = index
            while index < length and source[index].isdecimal():
                index += 1
            text = source[start:index]
            tokens.append(Token("number", text, line, column))
            column += len(text)
            continue

        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] in "_'"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue

        if char == "$":
            raise ParseError("'$' is reserved for machine-generated names", line, column)
        raise ParseError(f"unexpected character {char!r}", line, column)

    tokens.append(Token("eof", "", line, column))
    return tokens
