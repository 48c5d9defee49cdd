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

from typing import Any

from repro import cc
from repro.cc.ast import _UNUSED, LANGUAGE
from repro.common.errors import ParseError
from repro.kernel.intern import _build
from repro.surface.lexer import Token, tokenize

__all__ = ["parse_term"]

#: Keywords that start a ``prefix``, and so an application argument.
_PREFIX_KEYWORDS = frozenset(
    ["fst", "snd", "succ", "natelim", "Type", "Kind", "Bool", "Nat", "true", "false"]
)


def parse_term(source: str) -> cc.Term:
    """Parse ``source`` into a CC term; raises :class:`ParseError`.

    The term is hash-consed in the active session (see the module notes).
    """
    parser = _Parser(tokenize(source), LANGUAGE.hashcons)
    term = parser.term()
    parser.expect_eof()
    return term


class _Parser:
    def __init__(self, tokens: list[Token], table: dict[tuple, Any]):
        self.tokens = tokens
        self.position = 0
        self.table = table

    def node(self, cls: type, *args: Any) -> Any:
        """``cls(*args)`` through the session's hash-consing table."""
        return _build(LANGUAGE, self.table, cls, args)

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.tokens[self.position]
        return token.kind == kind and (text is None or token.text == text)

    def eat(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r} but found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_eof(self) -> None:
        token = self.peek()
        if token.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {token.text!r}", token.line, token.column
            )

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    # -- grammar ---------------------------------------------------------------

    def term(self) -> cc.Term:
        token = self.peek()
        match token.kind, token.text:
            case ("symbol", "\\") | ("keyword", "fun"):
                return self.lambda_()
            case ("keyword", "forall"):
                return self.quantifier(cc.Pi)
            case ("keyword", "exists"):
                return self.quantifier(cc.Sigma)
            case ("keyword", "let"):
                return self.let_()
            case ("keyword", "if"):
                return self.if_()
        return self.arrow()

    def binders(self) -> list[tuple[str, cc.Term]]:
        """One or more ``(x y : A)`` groups, flattened."""
        entries: list[tuple[str, cc.Term]] = []
        while self.at("symbol", "("):
            save = self.position
            self.advance()
            names: list[str] = []
            while self.at("ident"):
                names.append(self.advance().text)
            if not names or not self.at("symbol", ":"):
                # Not a binder group after all (e.g. a parenthesized term
                # in 'fun (f) ...' is illegal anyway, but binders may stop
                # before the body's opening paren).
                self.position = save
                break
            self.advance()  # ':'
            annotation = self.term()
            self.expect("symbol", ")")
            entries.extend((name, annotation) for name in names)
        return entries

    def lambda_(self) -> cc.Term:
        self.advance()  # '\' or 'fun'
        entries = self.binders()
        if not entries:
            raise self.fail("λ requires at least one '(x : A)' binder")
        self.expect("symbol", ".")
        body = self.term()
        for name, annotation in reversed(entries):
            body = self.node(cc.Lam, name, annotation, body)
        return body

    def quantifier(self, cls: type) -> cc.Term:
        self.advance()  # 'forall' / 'exists'
        entries = self.binders()
        if not entries:
            raise self.fail("quantifier requires at least one '(x : A)' binder")
        self.expect("symbol", ",")
        body = self.term()
        for name, annotation in reversed(entries):
            body = self.node(cls, name, annotation, body)
        return body

    def let_(self) -> cc.Term:
        self.advance()  # 'let'
        name = self.expect("ident").text
        self.expect("symbol", "=")
        bound = self.term()
        self.expect("symbol", ":")
        annotation = self.term()
        self.expect("keyword", "in")
        body = self.term()
        return self.node(cc.Let, name, bound, annotation, body)

    def if_(self) -> cc.Term:
        self.advance()  # 'if'
        cond = self.term()
        self.expect("keyword", "then")
        then_branch = self.term()
        self.expect("keyword", "else")
        else_branch = self.term()
        return self.node(cc.If, cond, then_branch, else_branch)

    def arrow(self) -> cc.Term:
        left = self.app()
        if self.eat("symbol", "->"):
            right = self.term()
            return self.node(cc.Pi, _UNUSED, left, right)  # cc.arrow
        return left

    def app(self) -> cc.Term:
        head = self.prefix()
        while self._starts_atom():
            head = self.node(cc.App, head, self.prefix())
        return head

    def _starts_atom(self) -> bool:
        token = self.peek()
        if token.kind in ("ident", "number"):
            return True
        if token.kind == "symbol":
            return token.text in ("(", "<")
        return token.kind == "keyword" and token.text in _PREFIX_KEYWORDS

    def prefix(self) -> cc.Term:
        if self.eat("keyword", "fst"):
            return self.node(cc.Fst, self.prefix())
        if self.eat("keyword", "snd"):
            return self.node(cc.Snd, self.prefix())
        if self.eat("keyword", "succ"):
            return self.node(cc.Succ, self.prefix())
        return self.atom()

    def atom(self) -> cc.Term:
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            return self.node(cc.Var, token.text)
        if token.kind == "number":
            self.advance()
            numeral = self.node(cc.Zero)
            for _ in range(int(token.text)):  # cc.nat_literal
                numeral = self.node(cc.Succ, numeral)
            return numeral
        if token.kind == "keyword":
            match token.text:
                case "Type":
                    self.advance()
                    return self.node(cc.Star)
                case "Kind":
                    self.advance()
                    return self.node(cc.Box)
                case "Bool":
                    self.advance()
                    return self.node(cc.Bool)
                case "Nat":
                    self.advance()
                    return self.node(cc.Nat)
                case "true":
                    self.advance()
                    return self.node(cc.BoolLit, True)
                case "false":
                    self.advance()
                    return self.node(cc.BoolLit, False)
                case "natelim":
                    return self.natelim()
        if self.eat("symbol", "<"):
            first = self.term()
            self.expect("symbol", ",")
            second = self.term()
            self.expect("symbol", ">")
            self.expect("keyword", "as")
            annotation = self.prefix()
            return self.node(cc.Pair, first, second, annotation)
        if self.eat("symbol", "("):
            inner = self.term()
            self.expect("symbol", ")")
            return inner
        raise self.fail(f"unexpected {token.text or token.kind!r}")

    def natelim(self) -> cc.Term:
        self.expect("keyword", "natelim")
        self.expect("symbol", "(")
        motive = self.term()
        self.expect("symbol", ",")
        base = self.term()
        self.expect("symbol", ",")
        step = self.term()
        self.expect("symbol", ",")
        target = self.term()
        self.expect("symbol", ")")
        return self.node(cc.NatElim, motive, base, step, target)
