"""Shared workload families for the benchmark harness.

Each family is parameterized by a size knob so the benchmarks can report
scaling series (the paper is a theory paper; our "figures" are the cost
curves of each mechanized construction — see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro import cc
from repro.cc import prelude
from repro.cc.context import Context
from repro.gen.dag import shared_dag_tower

__all__ = [
    "bool_flip_tower",
    "capture_all",
    "capture_chain",
    "church_sum",
    "nat_sum",
    "nested_lambdas",
    "pair_tower",
    "shared_dag_tower",
    "wide_capture",
]


def bool_flip_tower(m: int) -> cc.Term:
    """``not`` iterated ``2^m`` times over ``false`` via Church ``m``.

    ``church m`` at type ``Bool -> Bool`` applied to the doubling
    combinator ``twice Bool`` builds ``not^(2^m)``: exponentially many
    β/ι-steps from ~200 bytes of program, with a one-token normal form.
    The extreme cold-to-warm cost ratio (steps grow, term and result do
    not) is what the service benchmark uses to expose cache clobbering.
    """
    boolfn = cc.Pi("_", cc.Bool(), cc.Bool())
    doubler = prelude.twice(cc.Bool())
    negate = cc.Lam("b", cc.Bool(), cc.If(cc.Var("b"), cc.BoolLit(False), cc.BoolLit(True)))
    return cc.make_app(prelude.church_nat(m), boolfn, doubler, negate, cc.BoolLit(False))


def church_sum(n: int) -> cc.Term:
    """``(church n) + (church n)`` converted to a primitive Nat.

    Exercises impredicative polymorphism and deep β-reduction chains.
    """
    total = cc.make_app(prelude.church_add, prelude.church_nat(n), prelude.church_nat(n))
    return cc.make_app(
        total, cc.Nat(), cc.Lam("k", cc.Nat(), cc.Succ(cc.Var("k"))), cc.Zero()
    )


def nat_sum(n: int) -> cc.Term:
    """``n + n`` via the primitive eliminator (ι-reduction chain)."""
    return cc.make_app(prelude.nat_add, cc.nat_literal(n), cc.nat_literal(n))


def nested_lambdas(depth: int) -> cc.Term:
    """``λ x0… λ x_{depth-1}. x0`` — the body mentions only ``x0``, so every
    inner λ captures just ``x0``: closure conversion builds ``depth``
    nested closures whose environments have one entry each (the
    outermost, none)."""
    body: cc.Term = cc.Var("x0")
    for index in range(depth - 1, -1, -1):
        body = cc.Lam(f"x{index}", cc.Nat(), body)
    return body


def capture_all(n: int) -> cc.Term:
    """``λ x0 … x_{n-1}. x0 + … + x_{n-1}`` (sums by ``prelude.nat_add``).

    The body mentions every binder, so each λ captures every binder
    outside it: the k-th closure's environment has ``k`` entries, and the
    environment tuples together hold O(n²) values.
    """
    body: cc.Term = cc.Var("x0")
    for index in range(1, n):
        body = cc.make_app(prelude.nat_add, body, cc.Var(f"x{index}"))
    for index in range(n - 1, -1, -1):
        body = cc.Lam(f"x{index}", cc.Nat(), body)
    return body


def wide_capture(width: int) -> tuple[Context, cc.Term]:
    """A single λ capturing ``width`` context variables — wide telescopes."""
    ctx = Context.empty()
    body: cc.Term = cc.Zero()
    for index in range(width):
        ctx = ctx.extend(f"v{index}", cc.Nat())
        body = cc.make_app(prelude.nat_add, body, cc.Var(f"v{index}"))
    return ctx, cc.Lam("x", cc.Nat(), body)


def capture_chain(length: int) -> tuple[Context, cc.Term]:
    """A dependency chain A:⋆, x1:A, …: FV closure must walk the telescope."""
    ctx = Context.empty().extend("A", cc.Star())
    previous = "A"
    for index in range(length):
        name = f"c{index}"
        ctx = ctx.extend(name, cc.Var("A") if index == 0 else cc.Var("A"))
        previous = name
    return ctx, cc.Lam("x", cc.Nat(), cc.Var(previous))


def pair_tower(depth: int) -> cc.Term:
    """Right-nested dependent pairs ⟨1, ⟨2, …⟩⟩ with projections to the core."""
    annot: cc.Term = cc.Nat()
    term: cc.Term = cc.nat_literal(depth)
    for index in range(depth - 1, 0, -1):
        annot = cc.Sigma(f"t{index}", cc.Nat(), annot)
        term = cc.Pair(cc.nat_literal(index), term, annot)
    result = term
    for _ in range(depth - 1):
        result = cc.Snd(result)
    return result
