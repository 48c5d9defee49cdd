"""Abstract syntax of CC, the source calculus (paper Figure 1).

CC is the Calculus of Constructions extended with strong dependent pairs
(Σ-types), dependent ``let`` with context definitions, and η-equivalence for
functions, as in Bowman & Ahmed (PLDI 2018) Section 2.  Following the
paper's Section 5.2 we also add *ground types* — here ``Bool`` and ``Nat``
with their eliminators — so that separate-compilation correctness has
observable results and the examples are non-trivial.

Terms, types and kinds share one syntactic category (full-spectrum dependent
types).  The grammar implemented here is::

    U      ::= ⋆ | □
    e,A,B  ::= x | ⋆ | let x = e : A in e | Π x:A. B | λ x:A. e | e e
             | Σ x:A. B | ⟨e1, e2⟩ as Σ x:A. B | fst e | snd e
             | Bool | true | false | if e then e else e
             | Nat | zero | succ e | natelim(P, z, s, n)

All nodes are immutable; sharing subterms is always safe.  Binding is by
*name*: ``Pi``, ``Lam``, ``Sigma`` and ``Let`` each bind their ``name`` in
the fields documented below.  Capture-avoiding substitution lives in
:mod:`repro.cc.substitution`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.nodespec import _UNUSED  # noqa: F401 (the parser's arrow binder)
from repro.kernel.nodespec import Language

__all__ = [
    "App",
    "Bool",
    "BoolLit",
    "Box",
    "Fst",
    "If",
    "LANGUAGE",
    "Lam",
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
    """Base class of all CC expressions.

    Subclasses are frozen dataclasses; structural ``==`` is *syntactic*
    equality (names matter).  Use
    :func:`repro.cc.substitution.alpha_equal` for α-equivalence and
    :func:`repro.cc.equiv.equivalent` for definitional equivalence.

    The ``__weakref__`` slot lets a session keep its identity-keyed weak
    intern memo over terms.  ``_fv`` and ``_hash`` hold the node's free
    variables and wire content hash, pure facts of the node that
    :mod:`repro.kernel.fv` and :mod:`repro.wire.codec` fill on first use.
    """

    __slots__ = ("__weakref__", "_fv", "_hash")

    def __str__(self) -> str:
        from repro.cc.pretty import pretty

        return pretty(self)


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A variable occurrence ``x``."""

    name: str


@dataclass(frozen=True, slots=True)
class Star(Term):
    """The impredicative universe ``⋆`` of small types."""


@dataclass(frozen=True, slots=True)
class Box(Term):
    """The predicative universe ``□`` of large types.

    ``□`` is the type of ``⋆`` and of large Π/Σ types.  It has no type
    itself and is not a valid annotation in user programs; the type checker
    rejects any attempt to classify it (paper Section 2).
    """


@dataclass(frozen=True, slots=True)
class Pi(Term):
    """Dependent function type ``Π name:domain. codomain``.

    ``name`` is bound in ``codomain`` only.
    """

    name: str
    domain: Term
    codomain: Term


@dataclass(frozen=True, slots=True)
class Lam(Term):
    """Function ``λ name:domain. body``; ``name`` is bound in ``body``."""

    name: str
    domain: Term
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    """Application ``fn arg``."""

    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Let(Term):
    """Dependent let ``let name = bound : annot in body``.

    ``name`` is bound in ``body`` and carries a *definition*: inside
    ``body`` the variable δ-reduces to ``bound`` (paper Figure 2).
    """

    name: str
    bound: Term
    annot: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Sigma(Term):
    """Strong dependent pair type ``Σ name:first. second``.

    ``name`` is bound in ``second`` only.
    """

    name: str
    first: Term
    second: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    """Dependent pair ``⟨fst_val, snd_val⟩ as annot``.

    The annotation is required (paper Figure 1): the Σ-type of a pair is not
    inferable because ``snd_val``'s type underdetermines the binder.  The
    annotation must reduce to a :class:`Sigma`.
    """

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


# --------------------------------------------------------------------------
# Ground types (paper Section 5.2: "adding ground types, such as Bool").
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Bool(Term):
    """The ground type of booleans; an observation type for Theorem 5.7."""


@dataclass(frozen=True, slots=True)
class BoolLit(Term):
    """``true`` or ``false``."""

    value: bool


@dataclass(frozen=True, slots=True)
class If(Term):
    """Non-dependent conditional ``if cond then then_branch else else_branch``.

    Both branches must have equivalent types; this is all the paper's
    ground-type observations require.
    """

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
    """Dependent eliminator for ``Nat``.

    ``natelim(motive, base, step, target) : motive target`` where::

        motive : Π _:Nat. U
        base   : motive zero
        step   : Π n:Nat. Π ih:(motive n). motive (succ n)
        target : Nat

    Reduction (ι)::

        natelim(P, z, s, zero)    ⊲ z
        natelim(P, z, s, succ n)  ⊲ s n (natelim(P, z, s, n))

    The eliminator is primitive recursion, so CC + Nat remains strongly
    normalizing.
    """

    motive: Term
    base: Term
    step: Term
    target: Term


# --------------------------------------------------------------------------
# Kernel registration: binding structure of every node, used by the shared
# engines for free variables, substitution, α-equivalence, traversal, and
# hash-consing (see repro.kernel).
# --------------------------------------------------------------------------

LANGUAGE = Language("cc", Term, Var)
LANGUAGE.node(Var, data=("name",))
LANGUAGE.node(Star)
LANGUAGE.node(Box)
LANGUAGE.node(Pi, binders=("name",), scopes={"codomain": 1})
LANGUAGE.node(Lam, binders=("name",), scopes={"body": 1})
LANGUAGE.node(App)
LANGUAGE.node(Let, binders=("name",), scopes={"body": 1})
LANGUAGE.node(Sigma, binders=("name",), scopes={"second": 1})
LANGUAGE.node(Pair)
LANGUAGE.node(Fst)
LANGUAGE.node(Snd)
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
