"""E7 — Theorem 5.6 (Type Preservation): the cost of the *whole deal* —
translate, then re-check the output with the CC-CC kernel.

Series: compile-with-verification time against term family and size, plus
the translation-only cost for comparison (the gap is the price of running
the target kernel, i.e. of machine-checking the theorem instance).

Gate:

* ``test_closconv_growth_gate`` — the fitted log-log growth exponent of
  closure-conversion wall time (``translate`` after the source check on
  the same root context, as ``compile_term`` runs it) against depth over
  ``nested_lambdas(20, 40, 60, 120)`` is **≤ 1.3** (best of 5 cold runs
  per size).  Re-inferring every λ body made it about 2; reading each
  body's type off the check's derivation makes it about linear.
* ``test_hoist_growth_gate`` — the same fit for ``hoist`` of the compiled
  ``nested_lambdas(60, 120, 240, 480)`` is **≤ 1.3**.  Deduplicating code
  blocks by scanning the table with ``alpha_equal`` made it about 2; an
  exact α-canonical key makes it about linear.
* ``test_parse_growth_gate`` — the same fit for a cold ``parse_term``
  against the text's character count is **≤ 1.3**, over the
  ``pair_tower(10, 20, 40, 80)`` texts (quadratic in n, hence the fit on
  characters) and over the ``nested_lambdas(60, 120, 240, 480)`` texts,
  each family fitted on its own.  Both stay below the depth at which the
  deep-stack runner would retry.
* ``test_hoist_recheck_growth_gate`` — the same fit for ``check_program``
  (the ``hoist`` command's re-check) of the hoisted
  ``nested_lambdas(60, 120, 240, 480)`` is **≤ 1.3**, each run in a fresh
  session and the whole fit on the deep stack (n = 480 overflows the
  caller's), so no size pays a failed first attempt.  Defining each label
  as its fully closed literal made it about 1.8; typing the unhoisted
  program, which is what a hoisted program means, makes it about 1.1.
"""

import gc
import math
import time

import pytest

from repro import cc
from repro.api import Session
from repro.closconv import compile_term, translate
from repro.common import deep
from repro.machine import check_program, hoist
from repro.surface import parse_term, to_surface
from workloads import church_sum, nested_lambdas, pair_tower, wide_capture

_EMPTY = cc.Context.empty()


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_translate_only_nested(benchmark, depth):
    term = nested_lambdas(depth)
    benchmark.group = "E7 translate only (nested)"
    benchmark(lambda: translate(_EMPTY, term))


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_compile_verified_nested(benchmark, depth):
    term = nested_lambdas(depth)
    benchmark.group = "E7 compile+verify (nested)"
    benchmark(lambda: compile_term(_EMPTY, term, verify=True))


@pytest.mark.parametrize("width", [4, 8, 16])
def test_compile_verified_wide(benchmark, width):
    ctx, term = wide_capture(width)
    benchmark.group = "E7 compile+verify (wide env)"
    benchmark(lambda: compile_term(ctx, term, verify=True))


@pytest.mark.parametrize("n", [2, 4])
def test_compile_verified_church(benchmark, n):
    term = church_sum(n)
    benchmark.group = "E7 compile+verify (church)"
    benchmark(lambda: compile_term(_EMPTY, term, verify=True))


def test_corpus_compile_verified(benchmark):
    """The entire hand-written corpus, compiled and verified in one go."""
    import sys, pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))
    from corpus import CORPUS

    def run():
        for _name, ctx, term in CORPUS:
            compile_term(ctx, term, verify=True)

    benchmark.group = "E7 corpus"
    benchmark(run)


def _cold_closconv_seconds(depth: int) -> float:
    """Wall time of ``translate`` right after a cold check of the same term."""
    term = nested_lambdas(depth)
    with Session().activate():
        ctx = cc.Context.empty()
        cc.infer(ctx, term)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            translate(ctx, term)
            return time.perf_counter() - start
        finally:
            gc.enable()


def _cold_hoist_seconds(target) -> float:
    """Wall time of hoisting one closure-converted program."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        hoist(target)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _cold_recheck_seconds(program) -> float:
    """Wall time of re-checking a hoisted program in a fresh session."""
    with Session().activate():
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            check_program(program)
            return time.perf_counter() - start
        finally:
            gc.enable()


def _cold_parse_seconds(text: str) -> float:
    """Wall time of parsing ``text`` in a fresh session."""
    with Session().activate():
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            parse_term(text)
            return time.perf_counter() - start
        finally:
            gc.enable()


def _growth_exponent(seconds_at, sizes) -> float:
    """The fitted log-log slope of ``seconds_at(size)`` over ``sizes``.

    Sizes are timed round-robin and each keeps its best of 5 runs, so a
    slow spell on a shared host hits every size rather than skewing the
    slope.
    """
    best: dict[int, float] = {}
    for _ in range(5):
        for size in sizes:
            best[size] = min(best.get(size, math.inf), seconds_at(size))
    points = [(math.log(size), math.log(seconds)) for size, seconds in best.items()]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )


def test_closconv_growth_gate():
    exponent = _growth_exponent(_cold_closconv_seconds, (20, 40, 60, 120))
    print(f"\nE7 closconv growth exponent over nested_lambdas(20..120): {exponent:.2f}")
    assert exponent <= 1.3


def test_hoist_growth_gate():
    # Hoisting deduplicates code blocks on an α-canonical key; a scan of
    # the table per block made it quadratic in the number of blocks.
    targets = {
        depth: Session().compile(nested_lambdas(depth), verify=False).target
        for depth in (60, 120, 240, 480)
    }
    exponent = _growth_exponent(lambda depth: _cold_hoist_seconds(targets[depth]), targets)
    print(f"\nE7 hoist growth exponent over nested_lambdas(60..480): {exponent:.2f}")
    assert exponent <= 1.3


def test_hoist_recheck_growth_gate():
    # The re-check infers the unhoisted program once; defining each label
    # as its fully closed literal made it quadratic in the nesting.  The
    # fit runs on the deep stack, so it times the check, not a retry.
    programs = {
        depth: hoist(Session().compile(nested_lambdas(depth), verify=False).target)
        for depth in (60, 120, 240, 480)
    }
    exponent = deep.call(
        lambda: _growth_exponent(lambda depth: _cold_recheck_seconds(programs[depth]), programs),
        lambda: programs[480].size,
    )
    print(f"\nE7 hoist re-check growth exponent over nested_lambdas(60..480): {exponent:.2f}")
    assert exponent <= 1.3


@pytest.mark.parametrize(
    "family, sizes",
    [(pair_tower, (10, 20, 40, 80)), (nested_lambdas, (60, 120, 240, 480))],
    ids=["pair_tower", "nested_lambdas"],
)
def test_parse_growth_gate(family, sizes):
    # One scan and a constant number of steps per token: a parse is
    # linear in the text, however the text grows with n.
    texts = {len(text): text for text in (to_surface(family(size)) for size in sizes)}
    exponent = _growth_exponent(lambda chars: _cold_parse_seconds(texts[chars]), texts)
    print(f"\nE7 parse growth exponent over {family.__name__}{sizes} by characters: {exponent:.2f}")
    assert exponent <= 1.3
