"""Differential tests: the NbE engine agrees with the substitution oracle.

``cc.whnf``/``cc.normalize`` (and the CC-CC twins) are now backed by the
environment machine of ``repro.kernel.nbe``; the substitution engine
survives as ``whnf_subst``/``normalize_subst``.  These tests quantify the
agreement over the corpus and the ``gen/`` workloads for both calculi:

* α-equal results for ``whnf`` and ``normalize`` (for ``whnf`` the *fuel*
  must match too: both engines charge one unit per head contraction, in
  the same order);
* identical ``equivalent`` verdicts against the pre-NbE baseline
  (normalize-with-the-oracle, then α-compare up to η);
* identical error behaviour on fuel exhaustion;
* the 10k-deep corpus, where only the iterative NbE engine can answer at
  all (the recursive substitution normalizer exceeds the Python stack);
* the CC-CC type checker, which instantiates dependent types by extending
  an environment, against the substitution checker it replaced
  (``repro.cccc.typecheck_subst``): same verdict, same error class,
  α-equal types and identical fuel on the closure-converted corpus, the
  ``gen/`` programs and every ill-typed term of ``test_cccc_negative``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from corpus import CORPUS, corpus_ids
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import test_cccc_negative
from repro import cc, cccc
from repro.api import Session
from repro.cc import prelude
from repro.cc.equiv import norm_equal_eta
from repro.cc.reduce import normalize_subst as cc_normalize_subst
from repro.cc.reduce import whnf_subst as cc_whnf_subst
from repro.cccc.reduce import normalize_subst as cccc_normalize_subst
from repro.cccc.reduce import whnf_subst as cccc_whnf_subst
from repro.cccc import typecheck_subst
from repro.closconv import compile_term
from repro.closconv.translate import translate, translate_context
from repro.common.errors import NormalizationDepthExceeded, ReproError
from repro.common.names import reset_fresh_counter
from repro.gen import GenConfig, TermGenerator
from repro.kernel.budget import Budget

SEEDS = range(600, 614)
DEEP = 10_000


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_fresh_counter()
    yield


def _generated(seed: int):
    triple = TermGenerator(seed, GenConfig(redex_probability=0.5)).well_typed_term()
    if triple is None:
        pytest.skip(f"seed {seed} produced no well-typed term")
    return triple


class TestCCAgainstOracle:
    @pytest.mark.parametrize("name, ctx, term", CORPUS, ids=corpus_ids())
    def test_corpus_whnf_agrees_with_fuel(self, name, ctx, term):
        reset_fresh_counter()
        nbe_budget = Budget()
        nbe = cc.whnf(ctx, term, nbe_budget)
        reset_fresh_counter()
        oracle_budget = Budget()
        oracle = cc_whnf_subst(ctx, term, oracle_budget)
        assert cc.alpha_equal(nbe, oracle)
        assert nbe_budget.spent == oracle_budget.spent

    @pytest.mark.parametrize("name, ctx, term", CORPUS, ids=corpus_ids())
    def test_corpus_normalize_agrees(self, name, ctx, term):
        reset_fresh_counter()
        nbe = cc.normalize(ctx, term)
        reset_fresh_counter()
        oracle = cc_normalize_subst(ctx, term)
        assert cc.alpha_equal(nbe, oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_whnf_agrees_with_fuel(self, seed):
        ctx, term, _ = _generated(seed)
        reset_fresh_counter()
        nbe_budget = Budget()
        nbe = cc.whnf(ctx, term, nbe_budget)
        reset_fresh_counter()
        oracle_budget = Budget()
        oracle = cc_whnf_subst(ctx, term, oracle_budget)
        assert cc.alpha_equal(nbe, oracle)
        assert nbe_budget.spent == oracle_budget.spent

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_normalize_agrees(self, seed):
        ctx, term, _ = _generated(seed)
        reset_fresh_counter()
        nbe = cc.normalize(ctx, term)
        reset_fresh_counter()
        oracle = cc_normalize_subst(ctx, term)
        assert cc.alpha_equal(nbe, oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_verdicts_match_baseline(self, seed):
        # The NbE-backed incremental `equivalent` agrees with the pre-NbE
        # baseline decision procedure (oracle-normalize then α-η-compare).
        ctx, term, _ = _generated(seed)
        normal = cc_normalize_subst(ctx, term)
        baseline = norm_equal_eta(cc_normalize_subst(ctx, term), normal)
        assert cc.equivalent(ctx, term, normal) is baseline is True
        different = cc.Succ(cc.Var("distinct$oracle"))
        assert cc.equivalent(ctx, term, different) is norm_equal_eta(normal, different)


class TestCCCCAgainstOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_translated_whnf_agrees_with_fuel(self, seed):
        ctx, term, _ = _generated(seed)
        target_ctx = translate_context(ctx)
        target = translate(ctx, term)
        reset_fresh_counter()
        nbe_budget = Budget()
        nbe = cccc.whnf(target_ctx, target, nbe_budget)
        reset_fresh_counter()
        oracle_budget = Budget()
        oracle = cccc_whnf_subst(target_ctx, target, oracle_budget)
        assert cccc.alpha_equal(nbe, oracle)
        assert nbe_budget.spent == oracle_budget.spent

    @pytest.mark.parametrize("seed", SEEDS)
    def test_translated_normalize_agrees(self, seed):
        ctx, term, _ = _generated(seed)
        target_ctx = translate_context(ctx)
        target = translate(ctx, term)
        reset_fresh_counter()
        nbe = cccc.normalize(target_ctx, target)
        reset_fresh_counter()
        oracle = cccc_normalize_subst(target_ctx, target)
        assert cccc.alpha_equal(nbe, oracle)

    def test_closure_beta_parallel_binding(self, empty_target):
        # The β-capture hazard closure β guards: the environment value is
        # free in the argument binder's name.  Both engines must bind in
        # parallel, never sequentially.
        code = cccc.CodeLam(
            "e", cccc.Nat(), "a", cccc.Nat(),
            cccc.Pair(cccc.Var("e"), cccc.Var("a"), cccc.Sigma("s", cccc.Nat(), cccc.Nat())),
        )
        ctx = empty_target.extend("a", cccc.Nat())
        term = cccc.App(cccc.Clo(code, cccc.Var("a")), cccc.Zero())
        reset_fresh_counter()
        nbe = cccc.normalize(ctx, term)
        reset_fresh_counter()
        oracle = cccc_normalize_subst(ctx, term)
        assert cccc.alpha_equal(nbe, oracle)
        assert nbe.fst_val == cccc.Var("a")  # the env's `a` stays free

    def test_delta_defined_code_agrees(self, empty_target):
        code = cccc.CodeLam("env", cccc.Unit(), "a", cccc.Nat(), cccc.Succ(cccc.Var("a")))
        ctx = empty_target.define(
            "c", code, cccc.CodeType("env", cccc.Unit(), "a", cccc.Nat(), cccc.Nat())
        )
        term = cccc.App(cccc.Clo(cccc.Var("c"), cccc.UnitVal()), cccc.nat_literal(3))
        reset_fresh_counter()
        nbe = cccc.normalize(ctx, term)
        reset_fresh_counter()
        oracle = cccc_normalize_subst(ctx, term)
        assert nbe == oracle == cccc.nat_literal(4)


class TestErrorAgreement:
    def test_cc_fuel_exhaustion_both_engines(self, empty):
        big = cc.make_app(prelude.nat_add, cc.nat_literal(30), cc.nat_literal(30))
        reset_fresh_counter()
        with pytest.raises(NormalizationDepthExceeded):
            cc.normalize(empty, big, Budget(remaining=3))
        reset_fresh_counter()
        with pytest.raises(NormalizationDepthExceeded):
            cc_normalize_subst(empty, big, Budget(remaining=3))

    def test_cc_whnf_exhaustion_at_same_point(self, empty):
        # `is_zero (30 + 30)` must run the whole ι-chain before its head
        # (an `if`) can resolve, so a small budget dies mid-chain — at the
        # same spent count under both engines.
        big = cc.make_app(prelude.nat_add, cc.nat_literal(30), cc.nat_literal(30))
        term = cc.App(prelude.nat_is_zero, big)
        reset_fresh_counter()
        nbe_budget = Budget(remaining=7)
        with pytest.raises(NormalizationDepthExceeded):
            cc.whnf(empty, term, nbe_budget)
        reset_fresh_counter()
        oracle_budget = Budget(remaining=7)
        with pytest.raises(NormalizationDepthExceeded):
            cc_whnf_subst(empty, term, oracle_budget)
        assert nbe_budget.spent == oracle_budget.spent == 7

    def test_cccc_fuel_exhaustion_both_engines(self, empty_target):
        code = cccc.CodeLam("env", cccc.Unit(), "a", cccc.Nat(), cccc.Var("a"))
        term = cccc.nat_literal(1)
        for _ in range(20):
            term = cccc.App(cccc.Clo(code, cccc.UnitVal()), term)
        reset_fresh_counter()
        with pytest.raises(NormalizationDepthExceeded):
            cccc.normalize(empty_target, term, Budget(remaining=3))
        reset_fresh_counter()
        with pytest.raises(NormalizationDepthExceeded):
            cccc_normalize_subst(empty_target, term, Budget(remaining=3))


class TestDeepCorpus:
    """Terms only the iterative NbE engine can decide at all."""

    def test_deep_succ_tower_normalizes(self, empty):
        tower = cc.nat_literal(DEEP)
        assert cc.nat_value(cc.normalize(empty, tower)) == DEEP

    def test_deep_redex_chain_normalizes(self, empty):
        # let x1 = … let x10000 = 0 in x10000: ζ-chains this deep are out
        # of reach for the recursive substitution engine.
        term: cc.Term = cc.Var(f"x{DEEP - 1}")
        for index in range(DEEP - 1, -1, -1):
            bound = cc.Zero() if index == 0 else cc.Var(f"x{index - 1}")
            term = cc.Let(f"x{index}", bound, cc.Nat(), term)
        assert cc.normalize(empty, term) == cc.Zero()

    def test_deep_beta_chain_whnf(self, empty):
        # 10k pending β-redexes along the head spine.
        term: cc.Term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        for _ in range(DEEP):
            term = cc.App(cc.Lam("f", cc.arrow(cc.Nat(), cc.Nat()), cc.Var("f")), term)
        result = cc.whnf(empty, term, Budget())
        assert isinstance(result, cc.Lam)

    def test_deep_neutral_spine_whnf_is_identity(self, empty):
        spine: cc.Term = cc.Var("f")
        for _ in range(DEEP):
            spine = cc.App(spine, cc.Var("y"))
        assert cc.whnf(empty, spine) is spine

    def test_deep_lam_nest_normalizes(self, empty):
        body: cc.Term = cc.Var("x0")
        for index in range(DEEP - 1, -1, -1):
            body = cc.Lam(f"x{index}", cc.Nat(), body)
        normal = cc.normalize(empty, body)
        assert cc.equivalent(empty, normal, body)

    def test_deep_cccc_pair_tower_normalizes(self, empty_target):
        annot = cccc.Sigma("t", cccc.Nat(), cccc.Nat())
        tower: cccc.Term = cccc.Zero()
        for _ in range(DEEP):
            tower = cccc.Pair(tower, cccc.Zero(), annot)
        normal = cccc.normalize(empty_target, tower)
        assert cccc.equivalent(empty_target, normal, tower)


# --------------------------------------------------------------------------
# The CC-CC checker against the substitution checker it replaced.
# --------------------------------------------------------------------------


def _judge(infer, ctx, term):
    """``(type or error class, fuel)`` of one cold run in its own session."""
    budget = Budget()
    with Session().activate():
        try:
            return infer(ctx, term, budget), budget.spent
        except ReproError as error:
            return type(error), budget.spent


def _assert_checkers_agree(ctx, term):
    new, new_fuel = _judge(cccc.infer, ctx, term)
    ref, ref_fuel = _judge(typecheck_subst.infer, ctx, term)
    assert new_fuel == ref_fuel
    if isinstance(ref, type):
        assert new is ref
    else:
        assert not isinstance(new, type), f"new checker failed with {new.__name__}"
        assert cccc.alpha_equal(new, ref)
    return new


def _compiled(ctx, term):
    result = compile_term(ctx, term, verify=False)
    return result.target_context, result.target


def _negative_cases():
    """Every (context, term) the CC-CC negative battery expects rejected."""
    cases = []
    original = test_cccc_negative._expect_reject
    test_cccc_negative._expect_reject = lambda ctx, term: cases.append((ctx, term))
    try:
        for cls in vars(test_cccc_negative).values():
            if isinstance(cls, type) and cls.__name__.startswith("Test"):
                for name in sorted(vars(cls)):
                    if name.startswith("test_"):
                        getattr(cls(), name)(cccc.Context.empty())
    finally:
        test_cccc_negative._expect_reject = original
    return cases


_NEGATIVE = _negative_cases()


class TestCCCCCheckerAgainstReference:
    @pytest.mark.parametrize("name, ctx, term", CORPUS, ids=corpus_ids())
    def test_compiled_corpus_agrees(self, name, ctx, term):
        _assert_checkers_agree(*_compiled(ctx, term))

    @pytest.mark.parametrize("seed", range(600, 640))
    def test_compiled_generated_agrees(self, seed):
        _assert_checkers_agree(*_compiled(*_generated(seed)[:2]))

    @pytest.mark.parametrize("index", range(len(_NEGATIVE)))
    def test_negative_battery_agrees(self, index):
        ctx, term = _NEGATIVE[index]
        assert isinstance(_judge(typecheck_subst.infer, ctx, term)[0], type)
        _assert_checkers_agree(ctx, term)

    def test_negative_battery_is_harvested(self):
        assert len(_NEGATIVE) >= 20

    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_hypothesis_generated_agrees(self, seed):
        triple = TermGenerator(seed, GenConfig(redex_probability=0.5)).well_typed_term()
        if triple is None:
            return
        _assert_checkers_agree(*_compiled(*triple[:2]))

    @pytest.mark.parametrize("case", ["env_mentions_arg_name", "shadowing_code", "reused_names"])
    def test_capture_cases_agree(self, case, empty_target):
        # The shapes the [Clo] fast path must hand to the general path:
        # an environment mentioning the argument's name, code whose
        # argument shadows its environment, and nested code that reuses
        # the same parameter names with a dependent body type.
        var, star = cccc.Var, cccc.Star()
        if case == "env_mentions_arg_name":
            ctx = empty_target.extend("x", star)
            code = cccc.CodeLam("n", star, "x", var("n"), var("x"))
            term = cccc.Clo(code, var("x"))
        elif case == "shadowing_code":
            ctx = empty_target
            code = cccc.CodeLam("n", star, "n", cccc.Nat(), var("n"))
            term = cccc.Clo(code, cccc.Nat())
        else:
            ctx = empty_target
            env_type = cccc.Sigma("x", star, cccc.Unit())
            inner = cccc.CodeLam("n", env_type, "x", cccc.Fst(var("n")), var("x"))
            env = cccc.Pair(var("x"), cccc.UnitVal(), env_type)
            outer = cccc.CodeLam("n", cccc.Unit(), "x", star, cccc.Clo(inner, env))
            term = cccc.Clo(outer, cccc.UnitVal())
        assert not isinstance(_assert_checkers_agree(ctx, term), type)

    def test_warm_rerun_replays_identical_fuel(self):
        ctx, term = _compiled(*_generated(601)[:2])
        with Session().activate():
            cold, warm = Budget(), Budget()
            first = cccc.infer(ctx, term, cold)
            second = cccc.infer(ctx, term, warm)
        assert cold.spent == warm.spent
        assert first is second  # the memoized read-back


# --------------------------------------------------------------------------
# Fuel pinned across DAG-sharing substitution.
# --------------------------------------------------------------------------

# ``budget.spent`` recorded with the tree-walking substitution, before
# ``subst`` shared the rebuild of a subterm reached twice under one
# mapping.  Sharing makes equal subterms the *same* object, which could let
# conversion's pointer short-circuit skip a redex it used to reduce on
# both sides; these corpus programs are the ones whose CC-CC equivalence
# and checking actually reuse a shared rebuild, so their fuel is pinned.
# The ``*.subst`` and ``*.reducts`` entries pin the substitution oracle
# both calculi share: ``normalize_counting`` step counts, CC-CC
# ``whnf_subst`` fuel and the number of one-step reducts.
_PINNED_FUEL = {
    "church-add-2-3": {
        "cc.whnf": 2, "cc.nf": 8, "cc.eq": 8,
        "cccc.whnf": 3, "cccc.nf": 34, "cccc.eq": 115,
        "cccc.infer": 72, "verify": 99,
        "cc.nf.subst": 8, "cccc.whnf.subst": 3, "cccc.nf.subst": 34,
        "cc.reducts": 1, "cccc.reducts": 79,
    },
    "nested-capture": {
        "cc.whnf": 0, "cc.nf": 0, "cc.eq": 0,
        "cccc.whnf": 0, "cccc.nf": 10, "cccc.eq": 23,
        "cccc.infer": 19, "verify": 29,
        "cc.nf.subst": 0, "cccc.whnf.subst": 0, "cccc.nf.subst": 10,
        "cc.reducts": 0, "cccc.reducts": 30,
    },
    "add-zero-proof": {
        "cc.whnf": 0, "cc.nf": 9, "cc.eq": 2,
        "cccc.whnf": 0, "cccc.nf": 55, "cccc.eq": 50,
        "cccc.infer": 241, "verify": 251,
        "cc.nf.subst": 9, "cccc.whnf.subst": 0, "cccc.nf.subst": 55,
        "cc.reducts": 3, "cccc.reducts": 91,
    },
    "church-2": {
        "cc.whnf": 0, "cc.nf": 0, "cc.eq": 0,
        "cccc.whnf": 0, "cccc.nf": 6, "cccc.eq": 17,
        "cccc.infer": 12, "verify": 21,
        "cc.nf.subst": 0, "cccc.whnf.subst": 0, "cccc.nf.subst": 6,
        "cc.reducts": 0, "cccc.reducts": 18,
    },
}


def _spent(run) -> int:
    budget = Budget()
    run(budget)
    return budget.spent


class TestFuelPinnedAcrossSharing:
    @pytest.mark.parametrize("name", sorted(_PINNED_FUEL))
    def test_fuel_matches_tree_walking_substitution(self, name):
        ctx, term = next((ctx, term) for label, ctx, term in CORPUS if label == name)
        with Session().activate():
            nf = cc.normalize(ctx, term)
            verify = Budget()
            compiled = compile_term(ctx, term, verify_budget=verify)
            tctx, target = compiled.target_context, compiled.target
            tnf = cccc.normalize(tctx, target)
            spent = {
                "cc.whnf": _spent(lambda b: cc.whnf(ctx, term, b)),
                "cc.nf": _spent(lambda b: cc.normalize(ctx, term, b)),
                "cc.eq": _spent(lambda b: cc.equivalent(ctx, term, nf, b)),
                "cccc.whnf": _spent(lambda b: cccc.whnf(tctx, target, b)),
                "cccc.nf": _spent(lambda b: cccc.normalize(tctx, target, b)),
                "cccc.eq": _spent(lambda b: cccc.equivalent(tctx, target, tnf, b)),
                "cccc.infer": _spent(lambda b: cccc.infer(tctx, target, b)),
                "verify": verify.spent,
                "cc.nf.subst": cc.normalize_counting(ctx, term)[1],
                "cccc.whnf.subst": _spent(lambda b: cccc_whnf_subst(tctx, target, b)),
                "cccc.nf.subst": cccc.normalize_counting(tctx, target)[1],
                "cc.reducts": len(cc.reducts(ctx, term)),
                "cccc.reducts": len(cccc.reducts(tctx, target)),
            }
        assert spent == _PINNED_FUEL[name]
        _, ref_fuel = _judge(typecheck_subst.infer, tctx, target)
        assert ref_fuel == _PINNED_FUEL[name]["cccc.infer"]


# --------------------------------------------------------------------------
# Stack depth of the substitution oracle.
# --------------------------------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

# ``n + n`` by the primitive eliminator: every ι-step nests one more level
# of oracle recursion, so the largest ``n`` the default recursion limit
# admits measures the Python frames spent per level.  At three frames per
# level (entry, memo, step) the limit is n = 165; a fourth frame per level
# would lower it to about 124.
_NAT_SUM_SCRIPT = """
import sys
from repro import cc
from repro.cc import prelude
from repro.cc.reduce import normalize_subst

assert sys.getrecursionlimit() == 1000
n = 150
term = cc.make_app(prelude.nat_add, cc.nat_literal(n), cc.nat_literal(n))
assert cc.nat_value(normalize_subst(cc.Context.empty(), term)) == 2 * n
"""


def test_oracle_depth_at_default_recursion_limit():
    env = {**os.environ, "PYTHONPATH": _SRC}
    result = subprocess.run(
        [sys.executable, "-c", _NAT_SUM_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
