"""Recursive-descent parser from the surface syntax to CC terms.

Grammar (binders right-associate; application is left-associative and
binds tighter than ``->``, which is right-associative)::

    term    ::= lambda | forall | exists | let | if | arrow
    lambda  ::= ('\\' | 'fun') binder+ '.' term
    forall  ::= 'forall' binder+ ',' term
    exists  ::= 'exists' binder+ ',' term
    let     ::= 'let' IDENT '=' term ':' term 'in' term
    if      ::= 'if' term 'then' term 'else' term
    arrow   ::= app ('->' term)?
    app     ::= prefix prefix*
    prefix  ::= ('fst' | 'snd' | 'succ') prefix | atom
    atom    ::= IDENT | NUMBER | 'Type' | 'Kind' | 'Bool' | 'Nat'
              | 'true' | 'false'
              | 'natelim' '(' term ',' term ',' term ',' term ')'
              | '<' term ',' term '>' 'as' prefix
              | '(' term ')'
    binder  ::= '(' IDENT+ ':' term ')'

The parser walks the parallel text and key lists of
:func:`repro.surface.lexer.scan`, comparing keys inline.  Two methods
carry the grammar: :meth:`_Parser.term` parses the binding forms
(``let`` included), ``if`` and the ``arrow`` and ``app`` rules, and
:meth:`_Parser.prefix` a prefix chain and its atom, so a nesting level
costs at most two Python frames.  A
:class:`ParseError` finds its line and column by scanning the source
again up to the failing token.

Every node, the ``A -> B`` Π and the numerals' ``succ`` chains included,
is hash-consed in the active session: it is built through
:func:`repro.kernel.intern._build` against the session's ``hashcons``
table, the table and key that :func:`repro.wire.codec.decode_term` uses.
The same text parsed twice in one session, and one term arriving as text
and on the binary wire, therefore yield the same object, so the kernel's
identity-keyed caches (judgments, intern memo, free variables) hit on
text.  Binder names are kept as written (no α-canonicalization, which is
:func:`repro.cc.intern`'s job), so printed terms and error messages read
as the source does.  Another session never sees these nodes, and
``Session.reset()`` empties the table along with the rest of the
session's caches.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from repro import cc
from repro.cc.ast import _UNUSED, LANGUAGE
from repro.common.deep import check_size
from repro.common.errors import ParseError
from repro.kernel.intern import _build
from repro.surface.lexer import position, scan

__all__ = ["parse_term", "source_size"]

#: The keys that start a ``prefix``, and so an application argument.
_PREFIX_START = frozenset(
    ["ident", "number", "(", "<", "fst", "snd", "succ", "natelim",
     "Type", "Kind", "Bool", "Nat", "true", "false"]
)

#: The prefix operators.
_UNARY = {"fst": cc.Fst, "snd": cc.Snd, "succ": cc.Succ}

#: The atoms without parts: each one's node class and data.
_CONSTANTS = {
    "Type": (cc.Star, ()),
    "Kind": (cc.Box, ()),
    "Bool": (cc.Bool, ()),
    "Nat": (cc.Nat, ()),
    "true": (cc.BoolLit, (True,)),
    "false": (cc.BoolLit, (False,)),
}

_LAMBDA = (cc.Lam, ".", "λ requires at least one '(x : A)' binder")
_QUANTIFIER = "quantifier requires at least one '(x : A)' binder"

#: The binding forms: node class, the key between binders and body, and
#: the error when no binder follows.
_BINDING = {
    "\\": _LAMBDA,
    "fun": _LAMBDA,
    "forall": (cc.Pi, ",", _QUANTIFIER),
    "exists": (cc.Sigma, ",", _QUANTIFIER),
}


def parse_term(source: str) -> cc.Term:
    """Parse ``source`` into a CC term; raises :class:`ParseError`.

    The term is hash-consed in the active session (see the module notes).
    Text whose :func:`source_size` is above the deep-stack runner's cap is
    a :class:`~repro.common.errors.DepthLimit`, raised before any node is
    built.
    """
    check_size(len(source))  # before the scan: a long text is rejected in O(1)
    texts, keys = scan(source)
    check_size(_size(source, texts, keys))
    parser = _Parser(source, texts, keys)
    term = parser.term()
    if keys[parser.pos] != "eof":
        raise parser.error(f"unexpected trailing input {texts[parser.pos]!r}")
    return term


def source_size(source: str) -> int:
    """The size of surface text: its characters plus its numerals' values.

    A numeral ``n`` parses to ``n`` nested ``succ`` nodes, so this bounds
    the depth of the parsed term.
    """
    return _size(source, *scan(source))


def _size(source: str, texts: list[str], keys: list[str]) -> int:
    size = len(source)
    if "number" in keys:
        counts = Counter(texts)
        size += sum(int(text) * counts[text] for text in counts if text[:1].isdecimal())
    return size


class _Parser:
    __slots__ = ("source", "texts", "keys", "pos", "build")

    def __init__(self, source: str, texts: list[str], keys: list[str]):
        self.source = source
        self.texts = texts
        self.keys = keys
        self.pos = 0
        #: ``build(cls, args)``: ``cls(*args)`` through the session's table.
        self.build = partial(_build, LANGUAGE, LANGUAGE.hashcons)

    def error(self, message: str) -> ParseError:
        return ParseError(message, *position(self.source, self.pos))

    def expect(self, key: str) -> str:
        """Step over a token keyed ``key`` and return its text."""
        pos = self.pos
        if self.keys[pos] != key:
            raise self.error(f"expected {key!r} but found {self.texts[pos] or 'eof'!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def term(self) -> cc.Term:
        keys = self.keys
        build = self.build
        key = keys[self.pos]
        binding = _BINDING.get(key)
        if binding is not None:
            cls, separator, missing = binding
            self.pos += 1
            entries = self.binders()
            if not entries:
                raise self.error(missing)
            self.expect(separator)
            body = self.term()
            for name, annotation in reversed(entries):
                body = build(cls, (name, annotation, body))
            return body
        if key == "let":
            self.pos += 1
            name = self.expect("ident")
            self.expect("=")
            bound = self.term()
            self.expect(":")
            annotation = self.term()
            self.expect("in")
            return build(cc.Let, (name, bound, annotation, self.term()))
        if key == "if":
            self.pos += 1
            cond = self.term()
            self.expect("then")
            then_branch = self.term()
            self.expect("else")
            return build(cc.If, (cond, then_branch, self.term()))
        head = self.prefix()
        while keys[self.pos] in _PREFIX_START:
            head = build(cc.App, (head, self.prefix()))
        if keys[self.pos] == "->":
            self.pos += 1
            return build(cc.Pi, (_UNUSED, head, self.term()))  # cc.arrow
        return head

    def binders(self) -> list[tuple[str, cc.Term]]:
        """One or more ``(x y : A)`` groups, flattened."""
        keys = self.keys
        entries: list[tuple[str, cc.Term]] = []
        while keys[self.pos] == "(":
            start = end = self.pos + 1
            while keys[end] == "ident":
                end += 1
            if end == start or keys[end] != ":":
                break  # not a binder group: the body may start with '('
            self.pos = end + 1
            annotation = self.term()
            self.expect(")")
            for name in self.texts[start:end]:
                entries.append((name, annotation))
        return entries

    def prefix(self) -> cc.Term:
        keys = self.keys
        build = self.build
        pos = self.pos
        key = keys[pos]
        if key == "ident":
            self.pos = pos + 1
            return build(cc.Var, (self.texts[pos],))
        unary = []
        while key in _UNARY:
            unary.append(_UNARY[key])
            pos += 1
            key = keys[pos]
        self.pos = pos + 1  # past the atom's first token
        if key == "ident":
            node = build(cc.Var, (self.texts[pos],))
        elif key == "(":
            node = self.term()
            self.expect(")")
        elif key == "number":
            node = build(cc.Zero, ())
            for _ in range(int(self.texts[pos])):  # cc.nat_literal
                node = build(cc.Succ, (node,))
        elif key in _CONSTANTS:
            node = build(*_CONSTANTS[key])
        elif key == "<":
            first = self.term()
            self.expect(",")
            second = self.term()
            self.expect(">")
            self.expect("as")
            node = build(cc.Pair, (first, second, self.prefix()))
        elif key == "natelim":
            self.expect("(")
            motive = self.term()
            self.expect(",")
            base = self.term()
            self.expect(",")
            step = self.term()
            self.expect(",")
            target = self.term()
            self.expect(")")
            node = build(cc.NatElim, (motive, base, step, target))
        else:
            self.pos = pos
            raise self.error(f"unexpected {self.texts[pos] or 'eof'!r}")
        for cls in reversed(unary):
            node = build(cls, (node,))
        return node
