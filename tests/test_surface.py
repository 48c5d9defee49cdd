"""Tests for the surface lexer and parser."""

import sys

import pytest

from repro import api, cc
from repro.common.errors import ParseError
from repro.surface import parse_term, parser, to_surface, tokenize
from repro.wire.codec import term_from_b64, term_to_b64
from tests.corpus import CORPUS, corpus_ids

LANG = cc.ast.LANGUAGE


class TestLexer:
    def test_simple_tokens(self):
        kinds = [t.kind for t in tokenize(r"\ (x : Nat). x")]
        assert kinds == ["symbol", "symbol", "ident", "symbol", "keyword", "symbol", "symbol", "ident", "eof"]

    def test_comments_skipped(self):
        tokens = tokenize("x -- a comment\ny")
        assert [t.text for t in tokens[:-1]] == ["x", "y"]

    def test_numbers(self):
        [number, _eof] = tokenize("42")
        assert number.kind == "number" and number.text == "42"

    def test_primes_in_identifiers(self):
        [ident, _eof] = tokenize("x'")
        assert ident.text == "x'"

    def test_positions(self):
        tokens = tokenize("x\n  y")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_arrow_vs_parts(self):
        tokens = tokenize("a -> b")
        assert tokens[1].text == "->"

    def test_dollar_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            tokenize("x$1")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("x # y")

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                r"-> => \ ( ) : . , < > =",
                [("symbol", "->", 1, 1), ("symbol", "=>", 1, 4), ("symbol", "\\", 1, 7),
                 ("symbol", "(", 1, 9), ("symbol", ")", 1, 11), ("symbol", ":", 1, 13),
                 ("symbol", ".", 1, 15), ("symbol", ",", 1, 17), ("symbol", "<", 1, 19),
                 ("symbol", ">", 1, 21), ("symbol", "=", 1, 23), ("eof", "", 1, 24)],
            ),
            (
                "a->b=>c = d",
                [("ident", "a", 1, 1), ("symbol", "->", 1, 2), ("ident", "b", 1, 4),
                 ("symbol", "=>", 1, 5), ("ident", "c", 1, 7), ("symbol", "=", 1, 9),
                 ("ident", "d", 1, 11), ("eof", "", 1, 12)],
            ),
            (
                "=>=->",
                [("symbol", "=>", 1, 1), ("symbol", "=", 1, 3), ("symbol", "->", 1, 4),
                 ("eof", "", 1, 6)],
            ),
            (
                "x -- a -> comment = here\n  y",
                [("ident", "x", 1, 1), ("ident", "y", 2, 3), ("eof", "", 2, 4)],
            ),
            ("-- only a comment", [("eof", "", 1, 1)]),
            (
                "a\n\n  b -- tail",
                [("ident", "a", 1, 1), ("ident", "b", 3, 3), ("eof", "", 3, 5)],
            ),
            (
                "f (x : Nat)\n\t=> <0, 1>\r\n  .",
                [("ident", "f", 1, 1), ("symbol", "(", 1, 3), ("ident", "x", 1, 4),
                 ("symbol", ":", 1, 6), ("keyword", "Nat", 1, 8), ("symbol", ")", 1, 11),
                 ("symbol", "=>", 2, 2), ("symbol", "<", 2, 5), ("number", "0", 2, 6),
                 ("symbol", ",", 2, 7), ("number", "1", 2, 9), ("symbol", ">", 2, 10),
                 ("symbol", ".", 3, 3), ("eof", "", 3, 4)],
            ),
            ("x² ٣", [("ident", "x²", 1, 1), ("number", "٣", 1, 4), ("eof", "", 1, 5)]),
        ],
    )
    def test_tokens_pinned(self, source, expected):
        tokens = [(t.kind, t.text, t.line, t.column) for t in tokenize(source)]
        assert tokens == expected

    @pytest.mark.parametrize(
        "source, message",
        [
            ("x$1", "parse error at 1:2: '$' is reserved for machine-generated names"),
            ("a -b", "parse error at 1:3: unexpected character '-'"),
            ("a\n -", "parse error at 2:2: unexpected character '-'"),
            ("x = -1", "parse error at 1:5: unexpected character '-'"),
            ("a >- b", "parse error at 1:4: unexpected character '-'"),
        ],
    )
    def test_errors_pinned(self, source, message):
        with pytest.raises(ParseError) as raised:
            tokenize(source)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "source, message",
        [
            ("²", "parse error at 1:1: unexpected character '²'"),
            ("1²", "parse error at 1:2: unexpected character '²'"),
            ("x ²", "parse error at 1:3: unexpected character '²'"),
        ],
    )
    def test_non_decimal_digit_is_a_parse_error(self, source, message):
        with pytest.raises(ParseError) as raised:
            parse_term(source)
        assert str(raised.value) == message
        report = api.execute_jobs([{"id": "d", "kind": "check", "program": source}], workers=0)
        (result,) = report.results
        assert result.error == {"type": "ParseError", "message": message}

    def test_unicode_decimal_digit_is_a_number(self):
        assert parse_term("٣") is parse_term("3")
        assert cc.nat_value(parse_term("٣")) == 3


class TestParserPositive:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("x", cc.Var("x")),
            ("Type", cc.Star()),
            ("Kind", cc.Box()),
            ("Nat", cc.Nat()),
            ("Bool", cc.Bool()),
            ("true", cc.BoolLit(True)),
            ("false", cc.BoolLit(False)),
            ("0", cc.Zero()),
            ("3", cc.nat_literal(3)),
            ("succ 0", cc.Succ(cc.Zero())),
            ("f x", cc.App(cc.Var("f"), cc.Var("x"))),
            ("f x y", cc.App(cc.App(cc.Var("f"), cc.Var("x")), cc.Var("y"))),
            ("fst p", cc.Fst(cc.Var("p"))),
            ("snd p", cc.Snd(cc.Var("p"))),
            (r"\ (x : Nat). x", cc.Lam("x", cc.Nat(), cc.Var("x"))),
            ("fun (x : Nat). x", cc.Lam("x", cc.Nat(), cc.Var("x"))),
            ("forall (x : Nat), Bool", cc.Pi("x", cc.Nat(), cc.Bool())),
            ("exists (x : Nat), Bool", cc.Sigma("x", cc.Nat(), cc.Bool())),
            ("Nat -> Bool", cc.arrow(cc.Nat(), cc.Bool())),
            (
                "let x = 0 : Nat in x",
                cc.Let("x", cc.Zero(), cc.Nat(), cc.Var("x")),
            ),
            (
                "if b then 0 else 1",
                cc.If(cc.Var("b"), cc.Zero(), cc.nat_literal(1)),
            ),
        ],
    )
    def test_forms(self, source, expected):
        assert parse_term(source) == expected

    def test_multi_binder_lambda(self):
        term = parse_term(r"\ (A : Type) (x : A). x")
        assert term == cc.Lam("A", cc.Star(), cc.Lam("x", cc.Var("A"), cc.Var("x")))

    def test_grouped_binder(self):
        term = parse_term(r"\ (x y : Nat). x")
        assert term == cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x")))

    def test_multi_binder_forall(self):
        term = parse_term("forall (A : Type) (x : A), A")
        assert term == cc.Pi("A", cc.Star(), cc.Pi("x", cc.Var("A"), cc.Var("A")))

    def test_arrow_right_associative(self):
        assert parse_term("Nat -> Nat -> Nat") == cc.arrow(
            cc.Nat(), cc.arrow(cc.Nat(), cc.Nat())
        )

    def test_app_binds_tighter_than_arrow(self):
        term = parse_term("F Nat -> Bool")
        assert term == cc.arrow(cc.App(cc.Var("F"), cc.Nat()), cc.Bool())

    def test_application_left_associative(self):
        head, args = cc.app_spine(parse_term("f a b c"))
        assert head == cc.Var("f") and len(args) == 3

    def test_pair_syntax(self):
        term = parse_term("<1, true> as (exists (x : Nat), Bool)")
        assert isinstance(term, cc.Pair)
        assert cc.nat_value(term.fst_val) == 1

    def test_natelim_syntax(self):
        term = parse_term(r"natelim(\ (k : Nat). Nat, 0, s, n)")
        assert isinstance(term, cc.NatElim)

    def test_prefix_chains(self):
        assert parse_term("fst snd p") == cc.Fst(cc.Snd(cc.Var("p")))
        assert parse_term("succ succ 0") == cc.nat_literal(2)

    def test_parens_override(self):
        term = parse_term("(Nat -> Nat) -> Nat")
        assert term == cc.arrow(cc.arrow(cc.Nat(), cc.Nat()), cc.Nat())

    def test_nested_everything(self):
        source = r"""
        let pos = <2, true> as (exists (x : Nat), Bool) : exists (x : Nat), Bool in
          if snd pos then fst pos else 0
        """
        term = parse_term(source)
        assert isinstance(term, cc.Let)

    def test_whitespace_insensitive(self):
        compact = parse_term(r"\ (x:Nat). x")
        spaced = parse_term(" \\  ( x  :  Nat ) .  x ")
        assert compact == spaced


#: Each rejected source and its exact error document.
REJECTED = {
    "": "parse error at 1:1: unexpected 'eof'",
    "(": "parse error at 1:2: unexpected 'eof'",
    "f )": "parse error at 1:3: unexpected trailing input ')'",
    r"\ x . x": "parse error at 1:3: λ requires at least one '(x : A)' binder",
    r"\ (x : Nat) x": "parse error at 1:13: expected '.' but found 'x'",
    "forall (x : Nat) Bool": "parse error at 1:18: expected ',' but found 'Bool'",
    "let x = 0 in x": "parse error at 1:11: expected ':' but found 'in'",
    "<1, 2>": "parse error at 1:7: expected 'as' but found 'eof'",
    "if b then 1": "parse error at 1:12: expected 'else' but found 'eof'",
    "natelim(a, b, c)": "parse error at 1:16: expected ',' but found ')'",
    "x y )": "parse error at 1:5: unexpected trailing input ')'",
    "<1, 2": "parse error at 1:6: expected '>' but found 'eof'",
    "let x = 0 : Nat": "parse error at 1:16: expected 'in' but found 'eof'",
    "natelim(a, b, c, d": "parse error at 1:19: expected ')' but found 'eof'",
    r"\ (x y : ). x": "parse error at 1:10: unexpected ')'",
    "f\n  x\n )": "parse error at 3:2: unexpected trailing input ')'",
}


class TestParserNegative:
    @pytest.mark.parametrize("source", list(REJECTED))
    def test_rejected(self, source):
        with pytest.raises(ParseError) as excinfo:
            parse_term(source)
        assert str(excinfo.value) == REJECTED[source]

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_term("f\n  )")
        assert "2:" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)


def _parse_depth(source: str) -> int:
    """The most parser frames on the stack at once while parsing ``source``."""
    deepest = 0

    def probe(frame, event, _arg):
        nonlocal deepest
        if event == "call":
            depth = 0
            while frame is not None:
                depth += frame.f_code.co_filename == parser.__file__
                frame = frame.f_back
            deepest = max(deepest, depth)

    sys.setprofile(probe)
    try:
        parse_term(source)
    finally:
        sys.setprofile(None)
    return deepest


class TestParserDepth:
    """The Python frames one nesting level costs the parser."""

    @pytest.mark.parametrize(
        "nest, frames",
        [
            (lambda n: "(" * n + "x" + ")" * n, 2),
            (lambda n: "f (" * n + "x" + ")" * n, 2),
            (lambda n: "<1, " * n + "0" + "> as Nat" * n, 2),
            (lambda n: "forall (a : " * n + "Nat" + "), Nat" * n, 2),
            (lambda n: "".join(f"\\ (x{i} : Nat). " for i in range(n)) + "x0", 1),
            (lambda n: "let y = 0 : Nat in " * n + "y", 1),
            (lambda n: "Nat -> " * n + "Nat", 1),
            (lambda n: "succ " * n + "0", 0),
        ],
        ids=["parens", "arguments", "pairs", "annotations", "lambdas", "lets", "arrows", "succs"],
    )
    def test_frames_per_level(self, nest, frames):
        assert _parse_depth(nest(60)) - _parse_depth(nest(30)) == 30 * frames


class TestRoundTrips:
    def test_parse_typecheck_corpus(self):
        """Every parsed surface program in the corpus is well-typed."""
        from tests.corpus import CORPUS

        for name, ctx, term in CORPUS:
            cc.infer(ctx, term)


class TestHashConsing:
    """Parsed nodes come from the active session's hash-consing table."""

    @pytest.mark.parametrize("name, ctx, term", CORPUS, ids=corpus_ids())
    def test_text_and_binary_ingest_give_one_node(self, name, ctx, term):
        text = to_surface(term)
        with api.Session().activate():
            assert parse_term(text) is term_from_b64(LANG, term_to_b64(LANG, parse_term(text)))

    def test_names_are_kept(self):
        with api.Session().activate():
            term = parse_term(r"\ (A : Type) (x : A). x -> A")
            assert (term.name, term.body.name, term.body.body.name) == ("A", "x", "_")
            assert term.body.domain is term.body.body.codomain

    def test_warm_reparse_hits_and_sessions_stay_isolated(self):
        text = r"(\ (A : Type) (x : A). x) Nat 3"
        session = api.Session()
        first = session.check(text)
        second = session.check(text)
        assert second.term is first.term
        assert second.steps == first.steps
        assert second.cache_hits["kernel.judgments"] >= 1
        other = api.Session().check(text)
        assert other.term is not first.term
        assert other.steps == first.steps
        session.reset()
        with session.activate():
            assert len(LANG.hashcons) == 0
