"""A shared corpus of well-typed CC programs used across the theorem tests.

Each entry is ``(name, context, term)`` with ``context ⊢ term`` valid.
The corpus is built to cover every syntactic form and every interesting
closure-conversion situation:

* closed and open functions, nested functions, captured term variables,
  captured *type* variables (the paper's Section 3 example),
* dependent pairs, projections, refinement-style Σ's,
* let with definitions, δ/ζ/β/π/ι redexes,
* binders that shadow a name an earlier binding's type mentions,
* ground-type computation (Bool, Nat) for observation tests,
* impredicative polymorphism (Church encodings).
"""

from __future__ import annotations

from repro import cc
from repro.cc import prelude
from repro.cc.context import Context
from repro.gen.dag import shared_dag_tower
from repro.surface import parse_term

__all__ = ["CORPUS", "CLOSED_GROUND_PROGRAMS", "corpus_ids", "closed_ground_ids"]


def _ctx(*entries: tuple[str, cc.Term]) -> Context:
    ctx = Context.empty()
    for name, type_ in entries:
        ctx = ctx.extend(name, type_)
    return ctx


_EMPTY = Context.empty()
_A_STAR = _ctx(("A", cc.Star()))
_ARITH = _ctx(("A", cc.Star()), ("f", cc.arrow(cc.Var("A"), cc.Var("A"))), ("a", cc.Var("A")))
_BOOL = _ctx(("b", cc.Bool()))
_DEFS = Context.empty().define("two", cc.nat_literal(2), cc.Nat()).extend("m", cc.Nat())
_TYPE_ONLY = _ctx(("C", cc.Star()), ("f", cc.arrow(cc.Nat(), cc.Var("C"))))
_SIGMA_DEP = _ctx(("A", cc.Star()), ("p", cc.Sigma("x", cc.Var("A"), cc.Nat())))
_CHAIN = _ctx(
    ("A", cc.Star()),
    ("P", cc.arrow(cc.Var("A"), cc.Star())),
    ("x", cc.Var("A")),
    ("h", cc.App(cc.Var("P"), cc.Var("x"))),
)

#: (name, context, term) — all well-typed.
CORPUS: list[tuple[str, Context, cc.Term]] = [
    # -- functions and closures ------------------------------------------
    ("poly-id", _EMPTY, prelude.polymorphic_identity),
    ("mono-id", _EMPTY, prelude.identity_at(cc.Nat())),
    ("const", _EMPTY, prelude.const_fn(cc.Nat(), cc.Bool())),
    ("compose", _EMPTY, prelude.compose(cc.Nat(), cc.Nat(), cc.Bool())),
    ("twice", _EMPTY, prelude.twice(cc.Nat())),
    ("open-capture-term", _ARITH, parse_term(r"\ (x : A). f x")),
    ("open-capture-type", _A_STAR, parse_term(r"\ (x : A). x")),
    ("nested-capture", _ARITH, parse_term(r"\ (x : A). \ (y : A). f x")),
    ("triple-nest", _EMPTY, parse_term(r"\ (x : Nat). \ (y : Nat). \ (z : Nat). x")),
    ("shadow", _EMPTY, parse_term(r"\ (x : Nat). (\ (x : Bool). x) true")),
    # a binder that reuses a name some stored type mentions must not capture it
    ("shadow-let", _EMPTY, parse_term(r"\ (A : Type) (x : A). let A = Nat : Type in x")),
    ("shadow-capture", _EMPTY, parse_term(r"\ (A : Type) (x : A). \ (A : Type). \ (z : Nat). x")),
    # -- application / redexes -------------------------------------------
    ("beta-redex", _EMPTY, parse_term(r"(\ (x : Nat). succ x) 4")),
    ("id-Nat-3", _EMPTY, cc.make_app(prelude.polymorphic_identity, cc.Nat(), cc.nat_literal(3))),
    ("partial-app", _EMPTY, cc.App(prelude.nat_add, cc.nat_literal(2))),
    ("higher-order", _EMPTY, parse_term(
        r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"
    )),
    ("apply-open", _ARITH, parse_term(r"(\ (x : A). f x) a")),
    # -- let / definitions -------------------------------------------------
    ("let-zeta", _EMPTY, parse_term(r"let y = succ 0 : Nat in succ y")),
    ("let-under-lam", _EMPTY, parse_term(r"\ (x : Nat). let y = succ x : Nat in y")),
    ("let-type", _EMPTY, parse_term(r"let T = Nat : Type in \ (x : T). x")),
    ("delta-def", _DEFS, parse_term(r"natelim(\ (k : Nat). Nat, two, \ (k : Nat) (ih : Nat). succ ih, m)")),
    # -- pairs / sigma -----------------------------------------------------
    ("pair-ground", _EMPTY, parse_term(r"<3, true> as (exists (x : Nat), Bool)")),
    ("pair-dependent", _EMPTY, prelude.positive_nat_value(2)),
    ("fst-proj", _EMPTY, parse_term(r"fst (<3, true> as (exists (x : Nat), Bool))")),
    ("snd-proj", _EMPTY, parse_term(r"snd (<3, true> as (exists (x : Nat), Bool))")),
    ("sigma-in-lam", _EMPTY, parse_term(
        r"\ (p : exists (x : Nat), Bool). fst p"
    )),
    ("snd-dependent", _EMPTY, cc.Snd(prelude.positive_nat_value(3))),
    # -- ground types ------------------------------------------------------
    ("if-ground", _EMPTY, parse_term(r"if true then 1 else 0")),
    ("if-neutral", _BOOL, parse_term(r"if b then 1 else 0")),
    ("natelim-add", _EMPTY, cc.make_app(prelude.nat_add, cc.nat_literal(3), cc.nat_literal(4))),
    ("is-zero", _EMPTY, cc.App(prelude.nat_is_zero, cc.nat_literal(0))),
    ("pred", _EMPTY, cc.App(prelude.nat_pred, cc.nat_literal(5))),
    # -- dependent types in anger -----------------------------------------
    ("dependent-if-annot", _BOOL, cc.Lam(
        "x", cc.If(cc.Var("b"), cc.Nat(), cc.Bool()), cc.Var("x")
    )),
    ("leibniz-refl", _EMPTY, prelude.leibniz_refl(cc.Nat(), cc.nat_literal(1))),
    ("type-operator", _EMPTY, parse_term(r"\ (F : Type -> Type) (A : Type) (x : F A). x")),
    ("impredicative", _EMPTY, parse_term(
        r"\ (f : forall (A : Type), A -> A). f (forall (A : Type), A -> A) f"
    )),
    # -- type-only captures (Figure 10's raison d'être) --------------------
    ("type-only-capture", _TYPE_ONLY, parse_term(r"\ (x : Nat). f x")),
    ("sigma-dep-capture", _SIGMA_DEP, parse_term(r"\ (w : Nat). fst p")),
    ("chain-capture", _CHAIN, parse_term(r"\ (w : Nat). h")),
    # -- a real inductive proof --------------------------------------------
    ("add-zero-proof", _EMPTY, prelude.add_zero_right_proof()),
    # -- church encodings --------------------------------------------------
    ("church-2", _EMPTY, prelude.church_nat(2)),
    ("church-add-2-3", _EMPTY, cc.make_app(
        prelude.church_add, prelude.church_nat(2), prelude.church_nat(3)
    )),
    # -- types as terms ----------------------------------------------------
    ("type-term", _EMPTY, parse_term("Nat -> Bool")),
    ("pi-type-term", _EMPTY, parse_term("forall (A : Type), A -> A")),
    ("sigma-type-term", _EMPTY, prelude.positive_nat()),
    # -- heavily shared DAG (wire-codec / canonicalize-memo regime) --------
    ("shared-dag-tower", _EMPTY, shared_dag_tower(3)),
]


#: Closed programs of ground type, for whole-program correctness checks.
CLOSED_GROUND_PROGRAMS: list[tuple[str, cc.Term, bool | int]] = [
    ("lit-7", cc.nat_literal(7), 7),
    ("beta", parse_term(r"(\ (x : Nat). succ x) 4"), 5),
    ("id-Nat-3", cc.make_app(prelude.polymorphic_identity, cc.Nat(), cc.nat_literal(3)), 3),
    ("add-3-4", cc.make_app(prelude.nat_add, cc.nat_literal(3), cc.nat_literal(4)), 7),
    ("pred-5", cc.App(prelude.nat_pred, cc.nat_literal(5)), 4),
    ("is-zero-0", cc.App(prelude.nat_is_zero, cc.nat_literal(0)), True),
    ("is-zero-3", cc.App(prelude.nat_is_zero, cc.nat_literal(3)), False),
    ("if", parse_term(r"if false then 1 else 2"), 2),
    ("fst", parse_term(r"fst (<3, true> as (exists (x : Nat), Bool))"), 3),
    ("snd", parse_term(r"snd (<3, true> as (exists (x : Nat), Bool))"), True),
    ("let", parse_term(r"let y = succ 0 : Nat in succ y"), 2),
    ("higher-order", parse_term(
        r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"
    ), 7),
    ("church-to-nat", cc.make_app(
        cc.make_app(prelude.church_add, prelude.church_nat(2), prelude.church_nat(3)),
        cc.Nat(),
        cc.Lam("k", cc.Nat(), cc.Succ(cc.Var("k"))),
        cc.Zero(),
    ), 5),
    ("shadow-let", parse_term(r"(\ (A : Type) (x : A). let A = Nat : Type in x) Bool true"), True),
    ("deep-pair", parse_term(
        r"fst (snd (<1, <2, 3> as (exists (y : Nat), Nat)> as (exists (x : Nat), (exists (y : Nat), Nat))))"
    ), 2),
]


def corpus_ids() -> list[str]:
    """pytest ids for :data:`CORPUS`."""
    return [name for name, _, _ in CORPUS]


def closed_ground_ids() -> list[str]:
    """pytest ids for :data:`CLOSED_GROUND_PROGRAMS`."""
    return [name for name, _, _ in CLOSED_GROUND_PROGRAMS]
