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

:func:`scan` is the parser's lexer: one ``findall`` of :data:`_LEXEME`
gives the token texts, and a dict built once per distinct text gives each
its *key* (a keyword's or symbol's own text, or ``ident`` or ``number``),
so a scan costs one C-level regex pass plus a list lookup per token.  No
token carries a position: :func:`position` finds a token's line and column
by scanning the source again up to it, which only an error needs.
:func:`tokenize` is the same scan, with every position, as
:class:`Token` records.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NamedTuple

from repro.common.errors import ParseError

__all__ = ["KEYWORDS", "Token", "position", "scan", "tokenize"]

KEYWORDS = {
    "fun", "forall", "exists", "let", "in", "if", "then", "else", "fst", "snd", "succ",
    "natelim", "as", "Type", "Kind", "Bool", "Nat", "true", "false",
}

_SYMBOLS = ("->", "=>", "\\", "(", ")", ":", ".", ",", "<", ">", "=")

#: The key of every keyword and symbol: its own text.
_KEYS = {text: text for text in (*KEYWORDS, *_SYMBOLS)}

#: The :class:`Token` kind of each key that is not a kind itself.
_KINDS = {**dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys(_SYMBOLS, "symbol")}

#: One match per lexeme; a token is group 1, a ``--`` comment matches with
#: an empty group, and blanks (space, tab, carriage return and newline)
#: are skipped.  Comments come before symbols and the two-character
#: symbols before the one-character ones, so ``->`` and ``=>`` win over
#: ``-`` and ``=``.  ``\d`` is ``str.isdecimal`` and ``\w`` is
#: ``str.isalnum`` or ``_``; a word must also start with a letter or ``_``
#: (checked in :func:`_key`).  Any other character is a token of its own,
#: keyed ``bad``.
_LEXEME = re.compile(r"--[^\n]*|(->|=>|[\\():.,<>=]|\d+|\w[\w']*|[^ \t\r\n])")


class Token(NamedTuple):
    """One lexeme with its source location (1-based line/column)."""

    kind: str  # 'ident' | 'number' | 'keyword' | 'symbol' | 'eof'
    text: str
    line: int
    column: int


def _key(text: str) -> str:
    key = _KEYS.get(text)
    if key is not None:
        return key
    first = text[0]
    if first.isdecimal():
        return "number"
    if first.isalpha() or first == "_":
        return "ident"
    return "bad"  # e.g. ``$``, ``-`` or ``²``: alphanumeric, but no word starts with it


def scan(source: str) -> tuple[list[str], list[str]]:
    """The token texts of ``source`` and their keys, both ending in ``eof``.

    The end-of-input token has the text ``""`` and the key ``"eof"``.  A
    character that starts no token is a :class:`ParseError`.
    """
    texts = _LEXEME.findall(source)
    if "--" in source:
        texts = [text for text in texts if text]  # drop the comments
    keyed = {text: _key(text) for text in set(texts)}
    keys = list(map(keyed.__getitem__, texts))
    if "bad" in keyed.values():
        index = keys.index("bad")
        char = texts[index][0]
        if char == "$":
            message = "'$' is reserved for machine-generated names"
        else:
            message = f"unexpected character {char!r}"
        raise ParseError(message, *position(source, index))
    texts.append("")
    keys.append("eof")
    return texts, keys


def _offsets(source: str) -> Iterator[int]:
    """The source index of each token, then of the end-of-input token.

    The end of input sits after the last character, or at the start of a
    comment that runs to it.
    """
    end = len(source)
    for found in _LEXEME.finditer(source):
        if found.lastindex:
            yield found.start()
        elif found.end() == len(source):
            end = found.start()
    yield end


def position(source: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of the ``index``-th token of ``source``."""
    offset = next(islice(_offsets(source), index, None))
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; ``--`` starts a comment to end of line."""
    texts, keys = scan(source)
    tokens = []
    line, counted = 1, 0
    for text, key, offset in zip(texts, keys, _offsets(source)):
        line += source.count("\n", counted, offset)
        counted = offset
        column = offset - source.rfind("\n", 0, offset)
        tokens.append(Token(_KINDS.get(key, key), text, line, column))
    return tokens
