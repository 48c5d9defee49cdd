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
"""

import gc
import math
import time

import pytest

from repro import cc
from repro.api import Session
from repro.closconv import compile_term, translate
from workloads import church_sum, nested_lambdas, wide_capture

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


def test_closconv_growth_gate():
    # Sizes are timed round-robin and each keeps its best run, so a slow
    # spell on a shared host hits every size rather than skewing the slope.
    best: dict[int, float] = {}
    for _ in range(5):
        for depth in (20, 40, 60, 120):
            best[depth] = min(best.get(depth, math.inf), _cold_closconv_seconds(depth))
    points = [(math.log(depth), math.log(seconds)) for depth, seconds in best.items()]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    exponent = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    print(f"\nE7 closconv growth exponent over nested_lambdas(20..120): {exponent:.2f}")
    assert exponent <= 1.3
