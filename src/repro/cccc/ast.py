"""Abstract syntax of CC-CC, the closure-converted target calculus.

CC-CC (paper Figure 5) is CC with first-class functions *removed* and
replaced by:

* **closed code** ``λ (x′:A′, x:A). e`` (:class:`CodeLam`) of **code type**
  ``Code (x′:A′, x:A). B`` (:class:`CodeType`) — a two-argument function
  (environment, then argument) that must type check in the *empty*
  environment;
* **closures** ``⟨⟨e, e′⟩⟩`` (:class:`Clo`) pairing code with its
  environment; closures inhabit the dependent closure type ``Π x:A. B``
  (``Pi`` is kept, but in CC-CC it classifies closures, not functions);
* the **unit type** ``1`` (:class:`Unit`) with value ``⟨⟩``
  (:class:`UnitVal`), used to terminate environment tuples.

Application ``e e′`` is unchanged syntactically but now eliminates
closures.  Everything else (let, Σ, pairs, projections, and the Section 5.2
ground types Bool/Nat) carries over from CC.

Binding structure:

* ``CodeType(env_name, env_type, arg_name, arg_type, result)`` binds
  ``env_name`` in ``arg_type`` and ``result``; ``arg_name`` in ``result``.
* ``CodeLam(env_name, env_type, arg_name, arg_type, body)`` binds
  ``env_name`` in ``arg_type`` and ``body``; ``arg_name`` in ``body``.

The n-tuple environments ``⟨e…⟩ as Σ(x:A…)`` and pattern lets
``let ⟨x…⟩ = e in b`` of Section 4 are *syntactic sugar*, elaborated by
:mod:`repro.cccc.ntuple` into nested pairs / projection lets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.nodespec import Language

__all__ = [
    "App",
    "Bool",
    "BoolLit",
    "Box",
    "Clo",
    "CodeLam",
    "CodeType",
    "Fst",
    "If",
    "LANGUAGE",
    "Let",
    "Nat",
    "NatElim",
    "Pair",
    "Pi",
    "Sigma",
    "Snd",
    "Star",
    "Succ",
    "Term",
    "Unit",
    "UnitVal",
    "Var",
    "Zero",
    "app_spine",
    "arrow",
    "free_vars",
    "hashcons",
    "intern",
    "make_app",
    "nat_literal",
    "nat_value",
    "subterms",
    "term_size",
]


class Term:
    """Base class of all CC-CC expressions (structural ``==`` is syntactic).

    The ``__weakref__`` slot lets a session keep its identity-keyed weak
    intern memo over terms.  ``_fv`` and ``_hash`` hold the node's free
    variables and wire content hash, pure facts of the node that
    :mod:`repro.kernel.fv` and :mod:`repro.wire.codec` fill on first use.
    """

    __slots__ = ("__weakref__", "_fv", "_hash")

    def __str__(self) -> str:
        from repro.cccc.pretty import pretty

        return pretty(self)


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A variable occurrence ``x``."""

    name: str


@dataclass(frozen=True, slots=True)
class Star(Term):
    """The impredicative universe ``⋆``."""


@dataclass(frozen=True, slots=True)
class Box(Term):
    """The predicative universe ``□`` (the type of ``⋆``; untypable itself)."""


@dataclass(frozen=True, slots=True)
class Pi(Term):
    """Dependent *closure* type ``Π name:domain. codomain``.

    In CC-CC, inhabitants of Π are closures ⟨⟨code, env⟩⟩ (paper [Clo]), not
    λ-abstractions — there is no ``Lam`` node in this language.
    """

    name: str
    domain: Term
    codomain: Term


@dataclass(frozen=True, slots=True)
class CodeType(Term):
    """Dependent code type ``Code (env_name:env_type, arg_name:arg_type). result``."""

    env_name: str
    env_type: Term
    arg_name: str
    arg_type: Term
    result: Term


@dataclass(frozen=True, slots=True)
class CodeLam(Term):
    """Closed code ``λ (env_name:env_type, arg_name:arg_type). body``.

    Typing rule [Code] requires the body to check in the environment
    ``·, env_name:env_type, arg_name:arg_type`` — i.e. code is *closed*,
    which is the entire point of typed closure conversion.
    """

    env_name: str
    env_type: Term
    arg_name: str
    arg_type: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Clo(Term):
    """A closure ``⟨⟨code, env⟩⟩``.

    Not a pair: think of it as a *delayed partial application* of ``code``
    to ``env`` (Section 3.2) — the typing rule [Clo] substitutes ``env``
    into the code type, exactly like dependent application.
    """

    code: Term
    env: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    """Application ``fn arg`` — the elimination form for closures."""

    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Let(Term):
    """Dependent let ``let name = bound : annot in body`` (δ/ζ as in CC)."""

    name: str
    bound: Term
    annot: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Sigma(Term):
    """Strong dependent pair type ``Σ name:first. second``."""

    name: str
    first: Term
    second: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    """Dependent pair ``⟨fst_val, snd_val⟩ as annot`` (annot a Σ type)."""

    fst_val: Term
    snd_val: Term
    annot: Term


@dataclass(frozen=True, slots=True)
class Fst(Term):
    """First projection ``fst pair``."""

    pair: Term


@dataclass(frozen=True, slots=True)
class Snd(Term):
    """Second projection ``snd pair``."""

    pair: Term


@dataclass(frozen=True, slots=True)
class Unit(Term):
    """The unit type ``1`` (terminates environment tuples; Figure 5)."""


@dataclass(frozen=True, slots=True)
class UnitVal(Term):
    """The unit value ``⟨⟩``."""


# Ground types (Section 5.2), mirrored from CC.


@dataclass(frozen=True, slots=True)
class Bool(Term):
    """The ground type of booleans."""


@dataclass(frozen=True, slots=True)
class BoolLit(Term):
    """``true`` or ``false``."""

    value: bool


@dataclass(frozen=True, slots=True)
class If(Term):
    """Non-dependent conditional."""

    cond: Term
    then_branch: Term
    else_branch: Term


@dataclass(frozen=True, slots=True)
class Nat(Term):
    """The ground type of natural numbers."""


@dataclass(frozen=True, slots=True)
class Zero(Term):
    """The numeral ``zero``."""


@dataclass(frozen=True, slots=True)
class Succ(Term):
    """Successor ``succ pred``."""

    pred: Term


@dataclass(frozen=True, slots=True)
class NatElim(Term):
    """Dependent eliminator for ``Nat``; its ``step`` is a *closure* here."""

    motive: Term
    base: Term
    step: Term
    target: Term


# --------------------------------------------------------------------------
# Kernel registration: binding structure of every node, used by the shared
# engines for free variables, substitution, α-equivalence, traversal, and
# hash-consing (see repro.kernel).  The two-binder code forms register their
# telescopic scoping: the environment binder scopes the argument annotation
# and the body/result; the argument binder scopes the body/result only.
# --------------------------------------------------------------------------

LANGUAGE = Language("cc-cc", Term, Var)
LANGUAGE.node(Var, data=("name",))
LANGUAGE.node(Star)
LANGUAGE.node(Box)
LANGUAGE.node(Pi, binders=("name",), scopes={"codomain": 1})
LANGUAGE.node(
    CodeType,
    binders=("env_name", "arg_name"),
    scopes={"arg_type": 1, "result": 2},
)
LANGUAGE.node(
    CodeLam,
    binders=("env_name", "arg_name"),
    scopes={"arg_type": 1, "body": 2},
)
LANGUAGE.node(Clo)
LANGUAGE.node(App)
LANGUAGE.node(Let, binders=("name",), scopes={"body": 1})
LANGUAGE.node(Sigma, binders=("name",), scopes={"second": 1})
LANGUAGE.node(Pair)
LANGUAGE.node(Fst)
LANGUAGE.node(Snd)
LANGUAGE.node(Unit)
LANGUAGE.node(UnitVal)
LANGUAGE.node(Bool)
LANGUAGE.node(BoolLit, data=("value",))
LANGUAGE.node(If)
LANGUAGE.node(Nat)
LANGUAGE.node(Zero)
LANGUAGE.node(Succ)
LANGUAGE.node(NatElim)


# The term operations, defined once on ``Language`` for both calculi.
free_vars = LANGUAGE.free_vars
intern = LANGUAGE.intern
hashcons = LANGUAGE.build
subterms = LANGUAGE.subterms
term_size = LANGUAGE.term_size
arrow = LANGUAGE.arrow
make_app = LANGUAGE.make_app
app_spine = LANGUAGE.app_spine
nat_literal = LANGUAGE.nat_literal
nat_value = LANGUAGE.nat_value
