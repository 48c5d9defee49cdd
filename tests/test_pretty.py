"""Tests for both pretty printers (paper-notation rendering)."""

import pytest

from repro import api, cc, cccc
from repro.surface import parse_term, to_surface
from tests.corpus import CORPUS


class TestCCPretty:
    @pytest.mark.parametrize(
        "term, expected",
        [
            (cc.Star(), "⋆"),
            (cc.Box(), "□"),
            (cc.Var("x"), "x"),
            (cc.nat_literal(3), "3"),
            (cc.BoolLit(True), "true"),
            (cc.arrow(cc.Nat(), cc.Bool()), "Nat -> Bool"),
            (cc.Lam("x", cc.Nat(), cc.Var("x")), "λ (x : Nat). x"),
            (cc.Pi("A", cc.Star(), cc.Var("A")), "Π (A : ⋆). A"),
            (cc.Sigma("x", cc.Nat(), cc.Bool()), "Σ (x : Nat). Bool"),
            (cc.Fst(cc.Var("p")), "fst p"),
            (cc.App(cc.Var("f"), cc.Var("x")), "f x"),
        ],
    )
    def test_forms(self, term, expected):
        assert cc.pretty(term) == expected

    def test_application_grouping(self):
        # f (g x) needs parens; (f g) x does not.
        inner = cc.App(cc.Var("f"), cc.App(cc.Var("g"), cc.Var("x")))
        assert cc.pretty(inner) == "f (g x)"
        outer = cc.App(cc.App(cc.Var("f"), cc.Var("g")), cc.Var("x"))
        assert cc.pretty(outer) == "f g x"

    def test_arrow_grouping(self):
        left_nested = cc.arrow(cc.arrow(cc.Nat(), cc.Nat()), cc.Nat())
        assert cc.pretty(left_nested) == "(Nat -> Nat) -> Nat"
        right_nested = cc.arrow(cc.Nat(), cc.arrow(cc.Nat(), cc.Nat()))
        assert cc.pretty(right_nested) == "Nat -> Nat -> Nat"

    def test_dependent_pi_not_arrow(self):
        dependent = cc.Pi("x", cc.Nat(), cc.App(cc.Var("P"), cc.Var("x")))
        assert "Π" in cc.pretty(dependent)

    def test_succ_non_literal(self):
        assert cc.pretty(cc.Succ(cc.Var("n"))) == "succ n"

    def test_numerals_collapse(self):
        assert cc.pretty(cc.Succ(cc.Succ(cc.Zero()))) == "2"

    def test_pretty_matches_str(self):
        term = parse_term(r"\ (x : Nat). succ x")
        assert str(term) == cc.pretty(term)


class TestCCCCPretty:
    def test_unit_forms(self):
        assert cccc.pretty(cccc.Unit()) == "1"
        assert cccc.pretty(cccc.UnitVal()) == "⟨⟩"

    def test_closure_brackets(self):
        clo = cccc.Clo(cccc.Var("c"), cccc.Var("e"))
        assert cccc.pretty(clo) == "⟨⟨c, e⟩⟩"

    def test_code_lam(self):
        code = cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        assert cccc.pretty(code) == "λ (n : 1, x : Nat). x"

    def test_code_type(self):
        code_type = cccc.CodeType("n", cccc.Unit(), "x", cccc.Nat(), cccc.Nat())
        assert cccc.pretty(code_type) == "Code (n : 1, x : Nat). Nat"

    def test_nested_render_parses_visually(self):
        from repro.closconv import compile_term

        result = compile_term(cc.Context.empty(), parse_term(r"\ (x : Nat). x"))
        text = cccc.pretty(result.target)
        assert text.startswith("⟨⟨λ (")
        assert text.endswith("⟨⟩⟩⟩")

    def test_pair_annotation_shown(self):
        pair = cccc.Pair(cccc.Zero(), cccc.UnitVal(), cccc.Sigma("x", cccc.Nat(), cccc.Unit()))
        assert " as " in cccc.pretty(pair)


def _printed(ctx, term):
    """Every printer over one corpus entry, in a cold session.

    ``cc.pretty`` and ``to_surface`` of the term, ``cc.pretty`` of its
    interned form, and ``cccc.pretty`` of the target and target type that
    ``Session.compile(verify=False)`` returns.
    """
    session = api.Session()
    with session.activate():
        compiled = session.compile(term, ctx, verify=False)
        return (
            cc.pretty(term),
            to_surface(term),
            cc.pretty(cc.intern(term)),
            cccc.pretty(compiled.target),
            cccc.pretty(compiled.target_type),
        )


#: The exact text of every printer over every corpus entry, in the order
#: :func:`_printed` returns it.
_PINNED_PRINTS = {
    'poly-id': (
        'λ (A : ⋆). λ (x : A). x',
        '\\ (A : Type). \\ (x : A). x',
        'λ ($cv0 : ⋆). λ ($cv1 : $cv0). $cv1',
        '⟨⟨λ (n$1 : 1, A : ⋆). ⟨⟨λ (n$2 : Σ (A : ⋆). 1, x : let A = fst n$2 : ⋆ in A). let A = fst n$2 : ⋆ in x, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩⟩, ⟨⟩⟩⟩',
        'Π (A : ⋆). A -> A',
    ),
    'mono-id': (
        'λ (x : Nat). x',
        '\\ (x : Nat). x',
        'λ ($cv0 : Nat). $cv0',
        '⟨⟨λ (n$1 : 1, x : Nat). x, ⟨⟩⟩⟩',
        'Nat -> Nat',
    ),
    'const': (
        'λ (x : Nat). λ (y : Bool). x',
        '\\ (x : Nat). \\ (y : Bool). x',
        'λ ($cv0 : Nat). λ ($cv1 : Bool). $cv0',
        '⟨⟨λ (n$1 : 1, x : Nat). ⟨⟨λ (n$2 : Σ (x : Nat). 1, y : let x = fst n$2 : Nat in Bool). let x = fst n$2 : Nat in x, ⟨x, ⟨⟩⟩ as (Σ (x : Nat). 1)⟩⟩, ⟨⟩⟩⟩',
        'Nat -> Bool -> Nat',
    ),
    'compose': (
        'λ (f : Nat -> Bool). λ (g : Nat -> Nat). λ (x : Nat). f (g x)',
        '\\ (f : Nat -> Bool). \\ (g : Nat -> Nat). \\ (x : Nat). f (g x)',
        'λ ($cv0 : Nat -> Bool). λ ($cv1 : Nat -> Nat). λ ($cv2 : Nat). $cv0 ($cv1 $cv2)',
        '⟨⟨λ (n$1 : 1, f : Nat -> Bool). ⟨⟨λ (n$2 : Σ (f : Nat -> Bool). 1, g : let f = fst n$2 : Nat -> Bool in Nat -> Nat). let f = fst n$2 : Nat -> Bool in ⟨⟨λ (n$3 : Σ (f : Nat -> Bool). Σ (g : Nat -> Nat). 1, x : let f = fst n$3 : Nat -> Bool in let g = fst (snd n$3) : Nat -> Nat in Nat). let f = fst n$3 : Nat -> Bool in let g = fst (snd n$3) : Nat -> Nat in f (g x), ⟨f, ⟨g, ⟨⟩⟩ as (Σ (g : Nat -> Nat). 1)⟩ as (Σ (f : Nat -> Bool). Σ (g : Nat -> Nat). 1)⟩⟩, ⟨f, ⟨⟩⟩ as (Σ (f : Nat -> Bool). 1)⟩⟩, ⟨⟩⟩⟩',
        '(Nat -> Bool) -> (Nat -> Nat) -> Nat -> Bool',
    ),
    'twice': (
        'λ (f : Nat -> Nat). λ (x : Nat). f (f x)',
        '\\ (f : Nat -> Nat). \\ (x : Nat). f (f x)',
        'λ ($cv0 : Nat -> Nat). λ ($cv1 : Nat). $cv0 ($cv0 $cv1)',
        '⟨⟨λ (n$1 : 1, f : Nat -> Nat). ⟨⟨λ (n$2 : Σ (f : Nat -> Nat). 1, x : let f = fst n$2 : Nat -> Nat in Nat). let f = fst n$2 : Nat -> Nat in f (f x), ⟨f, ⟨⟩⟩ as (Σ (f : Nat -> Nat). 1)⟩⟩, ⟨⟩⟩⟩',
        '(Nat -> Nat) -> Nat -> Nat',
    ),
    'open-capture-term': (
        'λ (x : A). f x',
        '\\ (x : A). f x',
        'λ ($cv0 : A). f $cv0',
        '⟨⟨λ (n$1 : Σ (A : ⋆). Σ (f : A -> A). 1, x : let A = fst n$1 : ⋆ in let f = fst (snd n$1) : A -> A in A). let A = fst n$1 : ⋆ in let f = fst (snd n$1) : A -> A in f x, ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩',
        'A -> A',
    ),
    'open-capture-type': (
        'λ (x : A). x',
        '\\ (x : A). x',
        'λ ($cv0 : A). $cv0',
        '⟨⟨λ (n$1 : Σ (A : ⋆). 1, x : let A = fst n$1 : ⋆ in A). let A = fst n$1 : ⋆ in x, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩⟩',
        'A -> A',
    ),
    'nested-capture': (
        'λ (x : A). λ (y : A). f x',
        '\\ (x : A). \\ (y : A). f x',
        'λ ($cv0 : A). λ ($cv1 : A). f $cv0',
        '⟨⟨λ (n$1 : Σ (A : ⋆). Σ (f : A -> A). 1, x : let A = fst n$1 : ⋆ in let f = fst (snd n$1) : A -> A in A). let A = fst n$1 : ⋆ in let f = fst (snd n$1) : A -> A in ⟨⟨λ (n$2 : Σ (A : ⋆). Σ (f : A -> A). Σ (x : A). 1, y : let A = fst n$2 : ⋆ in let f = fst (snd n$2) : A -> A in let x = fst (snd (snd n$2)) : A in A). let A = fst n$2 : ⋆ in let f = fst (snd n$2) : A -> A in let x = fst (snd (snd n$2)) : A in f x, ⟨A, ⟨f, ⟨x, ⟨⟩⟩ as (Σ (x : A). 1)⟩ as (Σ (f : A -> A). Σ (x : A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). Σ (x : A). 1)⟩⟩, ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩',
        'A -> A -> A',
    ),
    'triple-nest': (
        'λ (x : Nat). λ (y : Nat). λ (z : Nat). x',
        '\\ (x : Nat). \\ (y : Nat). \\ (z : Nat). x',
        'λ ($cv0 : Nat). λ ($cv1 : Nat). λ ($cv2 : Nat). $cv0',
        '⟨⟨λ (n$1 : 1, x : Nat). ⟨⟨λ (n$2 : Σ (x : Nat). 1, y : let x = fst n$2 : Nat in Nat). let x = fst n$2 : Nat in ⟨⟨λ (n$3 : Σ (x : Nat). 1, z : let x = fst n$3 : Nat in Nat). let x = fst n$3 : Nat in x, ⟨x, ⟨⟩⟩ as (Σ (x : Nat). 1)⟩⟩, ⟨x, ⟨⟩⟩ as (Σ (x : Nat). 1)⟩⟩, ⟨⟩⟩⟩',
        'Nat -> Nat -> Nat -> Nat',
    ),
    'shadow': (
        'λ (x : Nat). (λ (x : Bool). x) true',
        '\\ (x : Nat). (\\ (x : Bool). x) true',
        'λ ($cv0 : Nat). (λ ($cv1 : Bool). $cv1) true',
        '⟨⟨λ (n$1 : 1, x : Nat). ⟨⟨λ (n$2 : 1, x : Bool). x, ⟨⟩⟩⟩ true, ⟨⟩⟩⟩',
        'Nat -> Bool',
    ),
    'beta-redex': (
        '(λ (x : Nat). succ x) 4',
        '(\\ (x : Nat). succ x) 4',
        '(λ ($cv0 : Nat). succ $cv0) 4',
        '⟨⟨λ (n$1 : 1, x : Nat). succ x, ⟨⟩⟩⟩ 4',
        'Nat',
    ),
    'id-Nat-3': (
        '(λ (A : ⋆). λ (x : A). x) Nat 3',
        '(\\ (A : Type). \\ (x : A). x) Nat 3',
        '(λ ($cv0 : ⋆). λ ($cv1 : $cv0). $cv1) Nat 3',
        '⟨⟨λ (n$1 : 1, A : ⋆). ⟨⟨λ (n$2 : Σ (A : ⋆). 1, x : let A = fst n$2 : ⋆ in A). let A = fst n$2 : ⋆ in x, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩⟩, ⟨⟩⟩⟩ Nat 3',
        'Nat',
    ),
    'partial-app': (
        '(λ (m : Nat). λ (n : Nat). natelim(λ (_ : Nat). Nat, n, λ (k : Nat). λ (ih : Nat). succ ih, m)) 2',
        '(\\ (m : Nat). \\ (n : Nat). natelim(\\ (_ : Nat). Nat, n, \\ (k : Nat). \\ (ih : Nat). succ ih, m)) 2',
        '(λ ($cv0 : Nat). λ ($cv1 : Nat). natelim(λ ($cv2 : Nat). Nat, $cv1, λ ($cv2 : Nat). λ ($cv3 : Nat). succ $cv3, $cv0)) 2',
        '⟨⟨λ (n$3 : 1, m : Nat). ⟨⟨λ (n$4 : Σ (m : Nat). 1, n : let m = fst n$4 : Nat in Nat). let m = fst n$4 : Nat in natelim(⟨⟨λ (n$5 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$6 : 1, k : Nat). ⟨⟨λ (n$7 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ 2',
        'Nat -> ⟨⟨λ (n$5 : 1, _ : Nat). Nat, ⟨⟩⟩⟩ 2',
    ),
    'higher-order': (
        '(λ (f : Nat -> Nat). λ (x : Nat). f (f x)) (λ (y : Nat). succ y) 5',
        '(\\ (f : Nat -> Nat). \\ (x : Nat). f (f x)) (\\ (y : Nat). succ y) 5',
        '(λ ($cv0 : Nat -> Nat). λ ($cv1 : Nat). $cv0 ($cv0 $cv1)) (λ ($cv0 : Nat). succ $cv0) 5',
        '⟨⟨λ (n$1 : 1, f : Nat -> Nat). ⟨⟨λ (n$2 : Σ (f : Nat -> Nat). 1, x : let f = fst n$2 : Nat -> Nat in Nat). let f = fst n$2 : Nat -> Nat in f (f x), ⟨f, ⟨⟩⟩ as (Σ (f : Nat -> Nat). 1)⟩⟩, ⟨⟩⟩⟩ ⟨⟨λ (n$3 : 1, y : Nat). succ y, ⟨⟩⟩⟩ 5',
        'Nat',
    ),
    'apply-open': (
        '(λ (x : A). f x) a',
        '(\\ (x : A). f x) a',
        '(λ ($cv0 : A). f $cv0) a',
        '⟨⟨λ (n$1 : Σ (A : ⋆). Σ (f : A -> A). 1, x : let A = fst n$1 : ⋆ in let f = fst (snd n$1) : A -> A in A). let A = fst n$1 : ⋆ in let f = fst (snd n$1) : A -> A in f x, ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩ a',
        'A',
    ),
    'let-zeta': (
        'let y = 1 : Nat in succ y',
        'let y = 1 : Nat in succ y',
        'let $cv0 = 1 : Nat in succ $cv0',
        'let y = 1 : Nat in succ y',
        'Nat',
    ),
    'let-under-lam': (
        'λ (x : Nat). let y = succ x : Nat in y',
        '\\ (x : Nat). let y = succ x : Nat in y',
        'λ ($cv0 : Nat). let $cv1 = succ $cv0 : Nat in $cv1',
        '⟨⟨λ (n$1 : 1, x : Nat). let y = succ x : Nat in y, ⟨⟩⟩⟩',
        'Nat -> Nat',
    ),
    'let-type': (
        'let T = Nat : ⋆ in λ (x : T). x',
        'let T = Nat : Type in \\ (x : T). x',
        'let $cv0 = Nat : ⋆ in λ ($cv1 : $cv0). $cv1',
        'let T = Nat : ⋆ in ⟨⟨λ (n$1 : Σ (T : ⋆). 1, x : let T = fst n$1 : ⋆ in T). let T = fst n$1 : ⋆ in x, ⟨T, ⟨⟩⟩ as (Σ (T : ⋆). 1)⟩⟩',
        'Nat -> Nat',
    ),
    'delta-def': (
        'natelim(λ (k : Nat). Nat, two, λ (k : Nat). λ (ih : Nat). succ ih, m)',
        'natelim(\\ (k : Nat). Nat, two, \\ (k : Nat). \\ (ih : Nat). succ ih, m)',
        'natelim(λ ($cv0 : Nat). Nat, two, λ ($cv0 : Nat). λ ($cv1 : Nat). succ $cv1, m)',
        'natelim(⟨⟨λ (n$3 : 1, k : Nat). Nat, ⟨⟩⟩⟩, two, ⟨⟨λ (n$4 : 1, k : Nat). ⟨⟨λ (n$5 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m)',
        '⟨⟨λ (n$3 : 1, k : Nat). Nat, ⟨⟩⟩⟩ m',
    ),
    'pair-ground': (
        '⟨3, true⟩ as (Σ (x : Nat). Bool)',
        '<3, true> as (exists (x : Nat), Bool)',
        '⟨3, true⟩ as (Σ ($cv0 : Nat). Bool)',
        '⟨3, true⟩ as (Σ (x : Nat). Bool)',
        'Σ (x : Nat). Bool',
    ),
    'pair-dependent': (
        '⟨2, λ (P : Bool -> ⋆). λ (p : P false). p⟩ as (Σ (x : Nat). Π (P : Bool -> ⋆). P ((λ (m : Nat). natelim(λ (_ : Nat). Bool, true, λ (k : Nat). λ (ih : Bool). false, m)) x) -> P false)',
        '<2, \\ (P : Bool -> Type). \\ (p : P false). p> as (exists (x : Nat), forall (P : Bool -> Type), P ((\\ (m : Nat). natelim(\\ (_ : Nat). Bool, true, \\ (k : Nat). \\ (ih : Bool). false, m)) x) -> P false)',
        '⟨2, λ ($cv0 : Bool -> ⋆). λ ($cv1 : $cv0 false). $cv1⟩ as (Σ ($cv0 : Nat). Π ($cv1 : Bool -> ⋆). $cv1 ((λ ($cv2 : Nat). natelim(λ ($cv3 : Nat). Bool, true, λ ($cv3 : Nat). λ ($cv4 : Bool). false, $cv2)) $cv0) -> $cv1 false)',
        '⟨2, ⟨⟨λ (n$4 : 1, P : Bool -> ⋆). ⟨⟨λ (n$5 : Σ (P : Bool -> ⋆). 1, p : let P = fst n$5 : Bool -> ⋆ in P false). let P = fst n$5 : Bool -> ⋆ in p, ⟨P, ⟨⟩⟩ as (Σ (P : Bool -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩⟩ as (Σ (x : Nat). Π (P : Bool -> ⋆). P (⟨⟨λ (n$6 : 1, m : Nat). natelim(⟨⟨λ (n$7 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$8 : 1, k : Nat). ⟨⟨λ (n$9 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ x) -> P false)',
        'Σ (x : Nat). Π (P : Bool -> ⋆). P (⟨⟨λ (n$6 : 1, m : Nat). natelim(⟨⟨λ (n$7 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$8 : 1, k : Nat). ⟨⟨λ (n$9 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ x) -> P false',
    ),
    'fst-proj': (
        'fst ⟨3, true⟩ as (Σ (x : Nat). Bool)',
        'fst <3, true> as (exists (x : Nat), Bool)',
        'fst ⟨3, true⟩ as (Σ ($cv0 : Nat). Bool)',
        'fst ⟨3, true⟩ as (Σ (x : Nat). Bool)',
        'Nat',
    ),
    'snd-proj': (
        'snd ⟨3, true⟩ as (Σ (x : Nat). Bool)',
        'snd <3, true> as (exists (x : Nat), Bool)',
        'snd ⟨3, true⟩ as (Σ ($cv0 : Nat). Bool)',
        'snd ⟨3, true⟩ as (Σ (x : Nat). Bool)',
        'Bool',
    ),
    'sigma-in-lam': (
        'λ (p : Σ (x : Nat). Bool). fst p',
        '\\ (p : exists (x : Nat), Bool). fst p',
        'λ ($cv0 : Σ ($cv0 : Nat). Bool). fst $cv0',
        '⟨⟨λ (n$1 : 1, p : Σ (x : Nat). Bool). fst p, ⟨⟩⟩⟩',
        '(Σ (x : Nat). Bool) -> Nat',
    ),
    'snd-dependent': (
        'snd ⟨3, λ (P : Bool -> ⋆). λ (p : P false). p⟩ as (Σ (x : Nat). Π (P : Bool -> ⋆). P ((λ (m : Nat). natelim(λ (_ : Nat). Bool, true, λ (k : Nat). λ (ih : Bool). false, m)) x) -> P false)',
        'snd <3, \\ (P : Bool -> Type). \\ (p : P false). p> as (exists (x : Nat), forall (P : Bool -> Type), P ((\\ (m : Nat). natelim(\\ (_ : Nat). Bool, true, \\ (k : Nat). \\ (ih : Bool). false, m)) x) -> P false)',
        'snd ⟨3, λ ($cv0 : Bool -> ⋆). λ ($cv1 : $cv0 false). $cv1⟩ as (Σ ($cv0 : Nat). Π ($cv1 : Bool -> ⋆). $cv1 ((λ ($cv2 : Nat). natelim(λ ($cv3 : Nat). Bool, true, λ ($cv3 : Nat). λ ($cv4 : Bool). false, $cv2)) $cv0) -> $cv1 false)',
        'snd ⟨3, ⟨⟨λ (n$4 : 1, P : Bool -> ⋆). ⟨⟨λ (n$5 : Σ (P : Bool -> ⋆). 1, p : let P = fst n$5 : Bool -> ⋆ in P false). let P = fst n$5 : Bool -> ⋆ in p, ⟨P, ⟨⟩⟩ as (Σ (P : Bool -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩⟩ as (Σ (x : Nat). Π (P : Bool -> ⋆). P (⟨⟨λ (n$6 : 1, m : Nat). natelim(⟨⟨λ (n$7 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$8 : 1, k : Nat). ⟨⟨λ (n$9 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ x) -> P false)',
        'Π (P : Bool -> ⋆). P (⟨⟨λ (n$6 : 1, m : Nat). natelim(⟨⟨λ (n$7 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$8 : 1, k : Nat). ⟨⟨λ (n$9 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ (fst ⟨3, ⟨⟨λ (n$4 : 1, P : Bool -> ⋆). ⟨⟨λ (n$5 : Σ (P : Bool -> ⋆). 1, p : let P = fst n$5 : Bool -> ⋆ in P false). let P = fst n$5 : Bool -> ⋆ in p, ⟨P, ⟨⟩⟩ as (Σ (P : Bool -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩⟩ as (Σ (x : Nat). Π (P : Bool -> ⋆). P (⟨⟨λ (n$6 : 1, m : Nat). natelim(⟨⟨λ (n$7 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$8 : 1, k : Nat). ⟨⟨λ (n$9 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ x) -> P false))) -> P false',
    ),
    'if-ground': (
        'if true then 1 else 0',
        'if true then 1 else 0',
        'if true then 1 else 0',
        'if true then 1 else 0',
        'Nat',
    ),
    'if-neutral': (
        'if b then 1 else 0',
        'if b then 1 else 0',
        'if b then 1 else 0',
        'if b then 1 else 0',
        'Nat',
    ),
    'natelim-add': (
        '(λ (m : Nat). λ (n : Nat). natelim(λ (_ : Nat). Nat, n, λ (k : Nat). λ (ih : Nat). succ ih, m)) 3 4',
        '(\\ (m : Nat). \\ (n : Nat). natelim(\\ (_ : Nat). Nat, n, \\ (k : Nat). \\ (ih : Nat). succ ih, m)) 3 4',
        '(λ ($cv0 : Nat). λ ($cv1 : Nat). natelim(λ ($cv2 : Nat). Nat, $cv1, λ ($cv2 : Nat). λ ($cv3 : Nat). succ $cv3, $cv0)) 3 4',
        '⟨⟨λ (n$3 : 1, m : Nat). ⟨⟨λ (n$4 : Σ (m : Nat). 1, n : let m = fst n$4 : Nat in Nat). let m = fst n$4 : Nat in natelim(⟨⟨λ (n$5 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$6 : 1, k : Nat). ⟨⟨λ (n$7 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ 3 4',
        '⟨⟨λ (n$5 : 1, _ : Nat). Nat, ⟨⟩⟩⟩ 3',
    ),
    'is-zero': (
        '(λ (m : Nat). natelim(λ (_ : Nat). Bool, true, λ (k : Nat). λ (ih : Bool). false, m)) 0',
        '(\\ (m : Nat). natelim(\\ (_ : Nat). Bool, true, \\ (k : Nat). \\ (ih : Bool). false, m)) 0',
        '(λ ($cv0 : Nat). natelim(λ ($cv1 : Nat). Bool, true, λ ($cv1 : Nat). λ ($cv2 : Bool). false, $cv0)) 0',
        '⟨⟨λ (n$3 : 1, m : Nat). natelim(⟨⟨λ (n$4 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$5 : 1, k : Nat). ⟨⟨λ (n$6 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ 0',
        '⟨⟨λ (n$4 : 1, _ : Nat). Bool, ⟨⟩⟩⟩ 0',
    ),
    'pred': (
        '(λ (m : Nat). natelim(λ (_ : Nat). Nat, 0, λ (k : Nat). λ (ih : Nat). k, m)) 5',
        '(\\ (m : Nat). natelim(\\ (_ : Nat). Nat, 0, \\ (k : Nat). \\ (ih : Nat). k, m)) 5',
        '(λ ($cv0 : Nat). natelim(λ ($cv1 : Nat). Nat, 0, λ ($cv1 : Nat). λ ($cv2 : Nat). $cv1, $cv0)) 5',
        '⟨⟨λ (n$3 : 1, m : Nat). natelim(⟨⟨λ (n$4 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, 0, ⟨⟨λ (n$5 : 1, k : Nat). ⟨⟨λ (n$6 : Σ (k : Nat). 1, ih : let k = fst n$6 : Nat in Nat). let k = fst n$6 : Nat in k, ⟨k, ⟨⟩⟩ as (Σ (k : Nat). 1)⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ 5',
        '⟨⟨λ (n$4 : 1, _ : Nat). Nat, ⟨⟩⟩⟩ 5',
    ),
    'dependent-if-annot': (
        'λ (x : if b then Nat else Bool). x',
        '\\ (x : if b then Nat else Bool). x',
        'λ ($cv0 : if b then Nat else Bool). $cv0',
        '⟨⟨λ (n$1 : Σ (b : Bool). 1, x : let b = fst n$1 : Bool in if b then Nat else Bool). let b = fst n$1 : Bool in x, ⟨b, ⟨⟩⟩ as (Σ (b : Bool). 1)⟩⟩',
        '(if b then Nat else Bool) -> (if b then Nat else Bool)',
    ),
    'leibniz-refl': (
        'λ (P : Nat -> ⋆). λ (p : P 1). p',
        '\\ (P : Nat -> Type). \\ (p : P 1). p',
        'λ ($cv0 : Nat -> ⋆). λ ($cv1 : $cv0 1). $cv1',
        '⟨⟨λ (n$1 : 1, P : Nat -> ⋆). ⟨⟨λ (n$2 : Σ (P : Nat -> ⋆). 1, p : let P = fst n$2 : Nat -> ⋆ in P 1). let P = fst n$2 : Nat -> ⋆ in p, ⟨P, ⟨⟩⟩ as (Σ (P : Nat -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩',
        'Π (P : Nat -> ⋆). P 1 -> P 1',
    ),
    'type-operator': (
        'λ (F : ⋆ -> ⋆). λ (A : ⋆). λ (x : F A). x',
        '\\ (F : Type -> Type). \\ (A : Type). \\ (x : F A). x',
        'λ ($cv0 : ⋆ -> ⋆). λ ($cv1 : ⋆). λ ($cv2 : $cv0 $cv1). $cv2',
        '⟨⟨λ (n$1 : 1, F : ⋆ -> ⋆). ⟨⟨λ (n$2 : Σ (F : ⋆ -> ⋆). 1, A : let F = fst n$2 : ⋆ -> ⋆ in ⋆). let F = fst n$2 : ⋆ -> ⋆ in ⟨⟨λ (n$3 : Σ (F : ⋆ -> ⋆). Σ (A : ⋆). 1, x : let F = fst n$3 : ⋆ -> ⋆ in let A = fst (snd n$3) : ⋆ in F A). let F = fst n$3 : ⋆ -> ⋆ in let A = fst (snd n$3) : ⋆ in x, ⟨F, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩ as (Σ (F : ⋆ -> ⋆). Σ (A : ⋆). 1)⟩⟩, ⟨F, ⟨⟩⟩ as (Σ (F : ⋆ -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩',
        'Π (F : ⋆ -> ⋆). Π (A : ⋆). F A -> F A',
    ),
    'impredicative': (
        'λ (f : Π (A : ⋆). A -> A). f (Π (A : ⋆). A -> A) f',
        '\\ (f : forall (A : Type), A -> A). f (forall (A : Type), A -> A) f',
        'λ ($cv0 : Π ($cv0 : ⋆). $cv0 -> $cv0). $cv0 (Π ($cv1 : ⋆). $cv1 -> $cv1) $cv0',
        '⟨⟨λ (n$1 : 1, f : Π (A : ⋆). A -> A). f (Π (A : ⋆). A -> A) f, ⟨⟩⟩⟩',
        '(Π (A : ⋆). A -> A) -> (Π (A : ⋆). A -> A)',
    ),
    'type-only-capture': (
        'λ (x : Nat). f x',
        '\\ (x : Nat). f x',
        'λ ($cv0 : Nat). f $cv0',
        '⟨⟨λ (n$1 : Σ (C : ⋆). Σ (f : Nat -> C). 1, x : let C = fst n$1 : ⋆ in let f = fst (snd n$1) : Nat -> C in Nat). let C = fst n$1 : ⋆ in let f = fst (snd n$1) : Nat -> C in f x, ⟨C, ⟨f, ⟨⟩⟩ as (Σ (f : Nat -> C). 1)⟩ as (Σ (C : ⋆). Σ (f : Nat -> C). 1)⟩⟩',
        'Nat -> C',
    ),
    'sigma-dep-capture': (
        'λ (w : Nat). fst p',
        '\\ (w : Nat). fst p',
        'λ ($cv0 : Nat). fst p',
        '⟨⟨λ (n$1 : Σ (A : ⋆). Σ (p : Σ (x : A). Nat). 1, w : let A = fst n$1 : ⋆ in let p = fst (snd n$1) : Σ (x : A). Nat in Nat). let A = fst n$1 : ⋆ in let p = fst (snd n$1) : Σ (x : A). Nat in fst p, ⟨A, ⟨p, ⟨⟩⟩ as (Σ (p : Σ (x : A). Nat). 1)⟩ as (Σ (A : ⋆). Σ (p : Σ (x : A). Nat). 1)⟩⟩',
        'Nat -> A',
    ),
    'chain-capture': (
        'λ (w : Nat). h',
        '\\ (w : Nat). h',
        'λ ($cv0 : Nat). h',
        '⟨⟨λ (n$1 : Σ (A : ⋆). Σ (P : A -> ⋆). Σ (x : A). Σ (h : P x). 1, w : let A = fst n$1 : ⋆ in let P = fst (snd n$1) : A -> ⋆ in let x = fst (snd (snd n$1)) : A in let h = fst (snd (snd (snd n$1))) : P x in Nat). let A = fst n$1 : ⋆ in let P = fst (snd n$1) : A -> ⋆ in let x = fst (snd (snd n$1)) : A in let h = fst (snd (snd (snd n$1))) : P x in h, ⟨A, ⟨P, ⟨x, ⟨h, ⟨⟩⟩ as (Σ (h : P x). 1)⟩ as (Σ (x : A). Σ (h : P x). 1)⟩ as (Σ (P : A -> ⋆). Σ (x : A). Σ (h : P x). 1)⟩ as (Σ (A : ⋆). Σ (P : A -> ⋆). Σ (x : A). Σ (h : P x). 1)⟩⟩',
        'Nat -> P x',
    ),
    'add-zero-proof': (
        'λ (m : Nat). natelim(λ (n : Nat). Π (P : Nat -> ⋆). P ((λ (m : Nat). λ (n : Nat). natelim(λ (_ : Nat). Nat, n, λ (k : Nat). λ (ih : Nat). succ ih, m)) n 0) -> P n, λ (P : Nat -> ⋆). λ (p : P 0). p, λ (k : Nat). λ (ih : Π (P : Nat -> ⋆). P ((λ (m : Nat). λ (n : Nat). natelim(λ (_ : Nat). Nat, n, λ (k : Nat). λ (ih : Nat). succ ih, m)) k 0) -> P k). λ (P : Nat -> ⋆). λ (p : P ((λ (m : Nat). λ (n : Nat). natelim(λ (_ : Nat). Nat, n, λ (k : Nat). λ (ih : Nat). succ ih, m)) (succ k) 0)). ih (λ (m : Nat). P (succ m)) p, m)',
        '\\ (m : Nat). natelim(\\ (n : Nat). forall (P : Nat -> Type), P ((\\ (m : Nat). \\ (n : Nat). natelim(\\ (_ : Nat). Nat, n, \\ (k : Nat). \\ (ih : Nat). succ ih, m)) n 0) -> P n, \\ (P : Nat -> Type). \\ (p : P 0). p, \\ (k : Nat). \\ (ih : forall (P : Nat -> Type), P ((\\ (m : Nat). \\ (n : Nat). natelim(\\ (_ : Nat). Nat, n, \\ (k : Nat). \\ (ih : Nat). succ ih, m)) k 0) -> P k). \\ (P : Nat -> Type). \\ (p : P ((\\ (m : Nat). \\ (n : Nat). natelim(\\ (_ : Nat). Nat, n, \\ (k : Nat). \\ (ih : Nat). succ ih, m)) (succ k) 0)). ih (\\ (m : Nat). P (succ m)) p, m)',
        'λ ($cv0 : Nat). natelim(λ ($cv1 : Nat). Π ($cv2 : Nat -> ⋆). $cv2 ((λ ($cv3 : Nat). λ ($cv4 : Nat). natelim(λ ($cv5 : Nat). Nat, $cv4, λ ($cv5 : Nat). λ ($cv6 : Nat). succ $cv6, $cv3)) $cv1 0) -> $cv2 $cv1, λ ($cv1 : Nat -> ⋆). λ ($cv2 : $cv1 0). $cv2, λ ($cv1 : Nat). λ ($cv2 : Π ($cv2 : Nat -> ⋆). $cv2 ((λ ($cv3 : Nat). λ ($cv4 : Nat). natelim(λ ($cv5 : Nat). Nat, $cv4, λ ($cv5 : Nat). λ ($cv6 : Nat). succ $cv6, $cv3)) $cv1 0) -> $cv2 $cv1). λ ($cv3 : Nat -> ⋆). λ ($cv4 : $cv3 ((λ ($cv4 : Nat). λ ($cv5 : Nat). natelim(λ ($cv6 : Nat). Nat, $cv5, λ ($cv6 : Nat). λ ($cv7 : Nat). succ $cv7, $cv4)) (succ $cv1) 0)). $cv2 (λ ($cv5 : Nat). $cv3 (succ $cv5)) $cv4, $cv0)',
        '⟨⟨λ (n$7 : 1, m : Nat). natelim(⟨⟨λ (n$8 : 1, n : Nat). Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ n 0) -> P n, ⟨⟩⟩⟩, ⟨⟨λ (n$14 : 1, P : Nat -> ⋆). ⟨⟨λ (n$15 : Σ (P : Nat -> ⋆). 1, p : let P = fst n$15 : Nat -> ⋆ in P 0). let P = fst n$15 : Nat -> ⋆ in p, ⟨P, ⟨⟩⟩ as (Σ (P : Nat -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟨λ (n$16 : 1, k : Nat). ⟨⟨λ (n$17 : Σ (k : Nat). 1, ih : let k = fst n$17 : Nat in Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). let k = fst n$17 : Nat in ⟨⟨λ (n$18 : Σ (k : Nat). Σ (ih : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). 1, P : let k = fst n$18 : Nat in let ih = fst (snd n$18) : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k in Nat -> ⋆). let k = fst n$18 : Nat in let ih = fst (snd n$18) : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k in ⟨⟨λ (n$19 : Σ (k : Nat). Σ (ih : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). Σ (P : Nat -> ⋆). 1, p : let k = fst n$19 : Nat in let ih = fst (snd n$19) : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k in let P = fst (snd (snd n$19)) : Nat -> ⋆ in P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ (succ k) 0)). let k = fst n$19 : Nat in let ih = fst (snd n$19) : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k in let P = fst (snd (snd n$19)) : Nat -> ⋆ in ih ⟨⟨λ (n$20 : Σ (P : Nat -> ⋆). 1, m : let P = fst n$20 : Nat -> ⋆ in Nat). let P = fst n$20 : Nat -> ⋆ in P (succ m), ⟨P, ⟨⟩⟩ as (Σ (P : Nat -> ⋆). 1)⟩⟩ p, ⟨k, ⟨ih, ⟨P, ⟨⟩⟩ as (Σ (P : Nat -> ⋆). 1)⟩ as (Σ (ih : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). Σ (P : Nat -> ⋆). 1)⟩ as (Σ (k : Nat). Σ (ih : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). Σ (P : Nat -> ⋆). 1)⟩⟩, ⟨k, ⟨ih, ⟨⟩⟩ as (Σ (ih : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). 1)⟩ as (Σ (k : Nat). Σ (ih : Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ k 0) -> P k). 1)⟩⟩, ⟨k, ⟨⟩⟩ as (Σ (k : Nat). 1)⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩',
        'Π (m : Nat). ⟨⟨λ (n$8 : 1, n : Nat). Π (P : Nat -> ⋆). P (⟨⟨λ (n$9 : 1, m : Nat). ⟨⟨λ (n$10 : Σ (m : Nat). 1, n : let m = fst n$10 : Nat in Nat). let m = fst n$10 : Nat in natelim(⟨⟨λ (n$11 : 1, _ : Nat). Nat, ⟨⟩⟩⟩, n, ⟨⟨λ (n$12 : 1, k : Nat). ⟨⟨λ (n$13 : 1, ih : Nat). succ ih, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨m, ⟨⟩⟩ as (Σ (m : Nat). 1)⟩⟩, ⟨⟩⟩⟩ n 0) -> P n, ⟨⟩⟩⟩ m',
    ),
    'church-2': (
        'λ (A : ⋆). λ (f : A -> A). λ (x : A). f (f x)',
        '\\ (A : Type). \\ (f : A -> A). \\ (x : A). f (f x)',
        'λ ($cv0 : ⋆). λ ($cv1 : $cv0 -> $cv0). λ ($cv2 : $cv0). $cv1 ($cv1 $cv2)',
        '⟨⟨λ (n$1 : 1, A : ⋆). ⟨⟨λ (n$2 : Σ (A : ⋆). 1, f : let A = fst n$2 : ⋆ in A -> A). let A = fst n$2 : ⋆ in ⟨⟨λ (n$3 : Σ (A : ⋆). Σ (f : A -> A). 1, x : let A = fst n$3 : ⋆ in let f = fst (snd n$3) : A -> A in A). let A = fst n$3 : ⋆ in let f = fst (snd n$3) : A -> A in f (f x), ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩⟩, ⟨⟩⟩⟩',
        'Π (A : ⋆). (A -> A) -> A -> A',
    ),
    'church-add-2-3': (
        '(λ (m : Π (A : ⋆). (A -> A) -> A -> A). λ (n : Π (A : ⋆). (A -> A) -> A -> A). λ (A : ⋆). λ (f : A -> A). λ (x : A). m A f (n A f x)) (λ (A : ⋆). λ (f : A -> A). λ (x : A). f (f x)) (λ (A : ⋆). λ (f : A -> A). λ (x : A). f (f (f x)))',
        '(\\ (m : forall (A : Type), (A -> A) -> A -> A). \\ (n : forall (A : Type), (A -> A) -> A -> A). \\ (A : Type). \\ (f : A -> A). \\ (x : A). m A f (n A f x)) (\\ (A : Type). \\ (f : A -> A). \\ (x : A). f (f x)) (\\ (A : Type). \\ (f : A -> A). \\ (x : A). f (f (f x)))',
        '(λ ($cv0 : Π ($cv0 : ⋆). ($cv0 -> $cv0) -> $cv0 -> $cv0). λ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). λ ($cv2 : ⋆). λ ($cv3 : $cv2 -> $cv2). λ ($cv4 : $cv2). $cv0 $cv2 $cv3 ($cv1 $cv2 $cv3 $cv4)) (λ ($cv0 : ⋆). λ ($cv1 : $cv0 -> $cv0). λ ($cv2 : $cv0). $cv1 ($cv1 $cv2)) (λ ($cv0 : ⋆). λ ($cv1 : $cv0 -> $cv0). λ ($cv2 : $cv0). $cv1 ($cv1 ($cv1 $cv2)))',
        '⟨⟨λ (n$1 : 1, m : Π (A : ⋆). (A -> A) -> A -> A). ⟨⟨λ (n$2 : Σ (m : Π (A : ⋆). (A -> A) -> A -> A). 1, n : let m = fst n$2 : Π (A : ⋆). (A -> A) -> A -> A in Π (A : ⋆). (A -> A) -> A -> A). let m = fst n$2 : Π (A : ⋆). (A -> A) -> A -> A in ⟨⟨λ (n$3 : Σ (m : Π (A : ⋆). (A -> A) -> A -> A). Σ (n : Π (A : ⋆). (A -> A) -> A -> A). 1, A : let m = fst n$3 : Π (A : ⋆). (A -> A) -> A -> A in let n = fst (snd n$3) : Π (A : ⋆). (A -> A) -> A -> A in ⋆). let m = fst n$3 : Π (A : ⋆). (A -> A) -> A -> A in let n = fst (snd n$3) : Π (A : ⋆). (A -> A) -> A -> A in ⟨⟨λ (n$4 : Σ (m : Π (A : ⋆). (A -> A) -> A -> A). Σ (n : Π (A : ⋆). (A -> A) -> A -> A). Σ (A : ⋆). 1, f : let m = fst n$4 : Π (A : ⋆). (A -> A) -> A -> A in let n = fst (snd n$4) : Π (A : ⋆). (A -> A) -> A -> A in let A = fst (snd (snd n$4)) : ⋆ in A -> A). let m = fst n$4 : Π (A : ⋆). (A -> A) -> A -> A in let n = fst (snd n$4) : Π (A : ⋆). (A -> A) -> A -> A in let A = fst (snd (snd n$4)) : ⋆ in ⟨⟨λ (n$5 : Σ (m : Π (A : ⋆). (A -> A) -> A -> A). Σ (n : Π (A : ⋆). (A -> A) -> A -> A). Σ (A : ⋆). Σ (f : A -> A). 1, x : let m = fst n$5 : Π (A : ⋆). (A -> A) -> A -> A in let n = fst (snd n$5) : Π (A : ⋆). (A -> A) -> A -> A in let A = fst (snd (snd n$5)) : ⋆ in let f = fst (snd (snd (snd n$5))) : A -> A in A). let m = fst n$5 : Π (A : ⋆). (A -> A) -> A -> A in let n = fst (snd n$5) : Π (A : ⋆). (A -> A) -> A -> A in let A = fst (snd (snd n$5)) : ⋆ in let f = fst (snd (snd (snd n$5))) : A -> A in m A f (n A f x), ⟨m, ⟨n, ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩ as (Σ (n : Π (A : ⋆). (A -> A) -> A -> A). Σ (A : ⋆). Σ (f : A -> A). 1)⟩ as (Σ (m : Π (A : ⋆). (A -> A) -> A -> A). Σ (n : Π (A : ⋆). (A -> A) -> A -> A). Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩, ⟨m, ⟨n, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩ as (Σ (n : Π (A : ⋆). (A -> A) -> A -> A). Σ (A : ⋆). 1)⟩ as (Σ (m : Π (A : ⋆). (A -> A) -> A -> A). Σ (n : Π (A : ⋆). (A -> A) -> A -> A). Σ (A : ⋆). 1)⟩⟩, ⟨m, ⟨n, ⟨⟩⟩ as (Σ (n : Π (A : ⋆). (A -> A) -> A -> A). 1)⟩ as (Σ (m : Π (A : ⋆). (A -> A) -> A -> A). Σ (n : Π (A : ⋆). (A -> A) -> A -> A). 1)⟩⟩, ⟨m, ⟨⟩⟩ as (Σ (m : Π (A : ⋆). (A -> A) -> A -> A). 1)⟩⟩, ⟨⟩⟩⟩ ⟨⟨λ (n$6 : 1, A : ⋆). ⟨⟨λ (n$7 : Σ (A : ⋆). 1, f : let A = fst n$7 : ⋆ in A -> A). let A = fst n$7 : ⋆ in ⟨⟨λ (n$8 : Σ (A : ⋆). Σ (f : A -> A). 1, x : let A = fst n$8 : ⋆ in let f = fst (snd n$8) : A -> A in A). let A = fst n$8 : ⋆ in let f = fst (snd n$8) : A -> A in f (f x), ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩⟩, ⟨⟩⟩⟩ ⟨⟨λ (n$9 : 1, A : ⋆). ⟨⟨λ (n$10 : Σ (A : ⋆). 1, f : let A = fst n$10 : ⋆ in A -> A). let A = fst n$10 : ⋆ in ⟨⟨λ (n$11 : Σ (A : ⋆). Σ (f : A -> A). 1, x : let A = fst n$11 : ⋆ in let f = fst (snd n$11) : A -> A in A). let A = fst n$11 : ⋆ in let f = fst (snd n$11) : A -> A in f (f (f x)), ⟨A, ⟨f, ⟨⟩⟩ as (Σ (f : A -> A). 1)⟩ as (Σ (A : ⋆). Σ (f : A -> A). 1)⟩⟩, ⟨A, ⟨⟩⟩ as (Σ (A : ⋆). 1)⟩⟩, ⟨⟩⟩⟩',
        'Π (A : ⋆). (A -> A) -> A -> A',
    ),
    'type-term': (
        'Nat -> Bool',
        'Nat -> Bool',
        'Nat -> Bool',
        'Nat -> Bool',
        '⋆',
    ),
    'pi-type-term': (
        'Π (A : ⋆). A -> A',
        'forall (A : Type), A -> A',
        'Π ($cv0 : ⋆). $cv0 -> $cv0',
        'Π (A : ⋆). A -> A',
        '⋆',
    ),
    'sigma-type-term': (
        'Σ (x : Nat). Π (P : Bool -> ⋆). P ((λ (m : Nat). natelim(λ (_ : Nat). Bool, true, λ (k : Nat). λ (ih : Bool). false, m)) x) -> P false',
        'exists (x : Nat), forall (P : Bool -> Type), P ((\\ (m : Nat). natelim(\\ (_ : Nat). Bool, true, \\ (k : Nat). \\ (ih : Bool). false, m)) x) -> P false',
        'Σ ($cv0 : Nat). Π ($cv1 : Bool -> ⋆). $cv1 ((λ ($cv2 : Nat). natelim(λ ($cv3 : Nat). Bool, true, λ ($cv3 : Nat). λ ($cv4 : Bool). false, $cv2)) $cv0) -> $cv1 false',
        'Σ (x : Nat). Π (P : Bool -> ⋆). P (⟨⟨λ (n$3 : 1, m : Nat). natelim(⟨⟨λ (n$4 : 1, _ : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ (n$5 : 1, k : Nat). ⟨⟨λ (n$6 : 1, ih : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, m), ⟨⟩⟩⟩ x) -> P false',
        '⋆',
    ),
    'shared-dag-tower': (
        '⟨⟨⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat), ⟨1, ⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat), ⟨2, ⟨⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat), ⟨1, ⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)',
        '<<<<3, 4> as (exists (_ : Nat), Nat), <0, <3, 4> as (exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), <1, <<3, 4> as (exists (_ : Nat), Nat), <0, <3, 4> as (exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), <2, <<<3, 4> as (exists (_ : Nat), Nat), <0, <3, 4> as (exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), <1, <<3, 4> as (exists (_ : Nat), Nat), <0, <3, 4> as (exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : Nat), exists (_ : exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)> as (exists (_ : exists (_ : exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : exists (_ : Nat), Nat), exists (_ : Nat), exists (_ : Nat), Nat)',
        '⟨⟨⟨⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat), ⟨1, ⟨⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Σ ($cv1 : Nat). Nat). Σ ($cv2 : Nat). Σ ($cv3 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat), ⟨2, ⟨⟨⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat), ⟨1, ⟨⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ ($cv0 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Σ ($cv1 : Nat). Nat). Σ ($cv2 : Nat). Σ ($cv3 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat)⟩ as (Σ ($cv0 : Nat). Σ ($cv1 : Σ ($cv1 : Σ ($cv1 : Nat). Nat). Σ ($cv2 : Nat). Σ ($cv3 : Nat). Nat). Σ ($cv2 : Nat). Σ ($cv3 : Σ ($cv3 : Nat). Nat). Σ ($cv4 : Nat). Σ ($cv5 : Nat). Nat)⟩ as (Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Σ ($cv4 : Nat). Nat). Σ ($cv5 : Nat). Σ ($cv6 : Nat). Nat)',
        '⟨⟨⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat), ⟨1, ⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat), ⟨2, ⟨⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat), ⟨1, ⟨⟨3, 4⟩ as (Σ (_ : Nat). Nat), ⟨0, ⟨3, 4⟩ as (Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Nat). Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)⟩ as (Σ (_ : Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat)',
        'Σ (_ : Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Σ (_ : Nat). Nat). Σ (_ : Nat). Σ (_ : Nat). Nat',
    ),
}


@pytest.mark.parametrize("name, ctx, term", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_printers_are_pinned(name, ctx, term):
    assert _printed(ctx, term) == _PINNED_PRINTS[name]
