"""E2 — the CC-CC kernel (paper Figures 5–7): checking code/closures and
running closure β-chains, including the closure η equivalence rules.

Two acceptance gates cover the checker's instantiation strategy (dependent
types instantiated by extending an environment rather than by ``subst1``):

* ``test_checker_speedup_gate`` — on compiled ``nested_lambdas(60)`` the
  checker is **≥ 10×** faster than the substitution checker it replaced
  (``repro.cccc.typecheck_subst``), both timed in-process from cold
  sessions;
* ``test_verify_growth_gate`` — the fitted log-log growth exponent of
  verify wall time (``infer`` plus the Theorem 5.6 comparison) against
  target size over ``nested_lambdas(10, 20, 40, 60)`` is **≤ 1.5** (the
  substitution checker's is about 3; best of 7 cold runs per size).
"""

import gc
import math
import time

import pytest

from repro import cc, cccc
from repro.api import Session
from repro.cccc import typecheck_subst
from repro.closconv import compile_term
from repro.cccc.ntuple import bind_env, env_sigma, env_tuple
from workloads import church_sum, nat_sum, nested_lambdas

_EMPTY = cc.Context.empty()
_TARGET_EMPTY = cccc.Context.empty()


def _compiled(term: cc.Term) -> cccc.Term:
    return compile_term(_EMPTY, term, verify=False).target


@pytest.mark.parametrize("depth", [4, 8, 16])
def test_typecheck_compiled_lambdas(benchmark, depth):
    target = _compiled(nested_lambdas(depth))
    benchmark.group = "E2 infer(compiled nested_lambdas)"
    benchmark(lambda: cccc.infer(_TARGET_EMPTY, target))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_typecheck_compiled_church(benchmark, n):
    target = _compiled(church_sum(n))
    benchmark.group = "E2 infer(compiled church_sum)"
    benchmark(lambda: cccc.infer(_TARGET_EMPTY, target))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_normalize_compiled_nat_sum(benchmark, n):
    target = _compiled(nat_sum(n))
    benchmark.group = "E2 normalize(compiled nat_sum)"
    result = benchmark(lambda: cccc.normalize(_TARGET_EMPTY, target))
    assert cccc.nat_value(result) == 2 * n


@pytest.mark.parametrize("width", [2, 8, 16])
def test_closure_eta_equivalence(benchmark, width):
    """[≡-Clo]: compare a closure capturing `width` values against its
    fully inlined form."""
    telescope = [cccc.Binding(f"y{i}", cccc.Nat()) for i in range(width)]
    captured = cccc.Clo(
        cccc.CodeLam(
            "n",
            env_sigma(telescope),
            "x",
            cccc.Nat(),
            bind_env(telescope, cccc.Var("n"), cccc.Var("y0")),
        ),
        env_tuple(telescope, [cccc.nat_literal(i) for i in range(width)]),
    )
    inlined = cccc.Clo(
        cccc.CodeLam("n", cccc.Unit(), "x", cccc.Nat(), cccc.Zero()), cccc.UnitVal()
    )
    benchmark.group = "E2 closure-eta"
    assert benchmark(lambda: cccc.equivalent(_TARGET_EMPTY, captured, inlined))


def _cold_verify_seconds(infer, depth: int, repeats: int) -> tuple[float, int]:
    """Best cold wall time of ``infer`` + the type comparison, and target size."""
    best = float("inf")
    for _ in range(repeats):
        with Session().activate():
            compiled = compile_term(_EMPTY, nested_lambdas(depth), verify=False)
            ctx, target = compiled.target_context, compiled.target
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                checked = infer(ctx, target)
                assert cccc.equivalent(ctx, checked, compiled.target_type)
                best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
    return best, cccc.term_size(target)


def test_checker_speedup_gate():
    # The two checkers are timed round-robin and each keeps its best run,
    # so a slow spell on a shared host hits both sides rather than one.
    fast = reference = float("inf")
    for _ in range(5):
        fast = min(fast, _cold_verify_seconds(cccc.infer, 60, repeats=1)[0])
        reference = min(reference, _cold_verify_seconds(typecheck_subst.infer, 60, repeats=1)[0])
    speedup = reference / fast
    print(f"\nE2 nested_lambdas(60) verify: {fast * 1e3:.1f} ms vs "
          f"reference {reference * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= 10.0


def test_verify_growth_gate():
    # Sizes are timed round-robin and each keeps its best run, so a slow
    # spell on a shared host hits every size rather than skewing the slope.
    best: dict[int, tuple[float, int]] = {}
    for _ in range(7):
        for depth in (10, 20, 40, 60):
            seconds, size = _cold_verify_seconds(cccc.infer, depth, repeats=1)
            if depth not in best or seconds < best[depth][0]:
                best[depth] = (seconds, size)
    points = [(math.log(size), math.log(seconds)) for seconds, size in best.values()]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    exponent = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    print(f"\nE2 verify growth exponent over nested_lambdas(10..60): {exponent:.2f}")
    assert exponent <= 1.5
