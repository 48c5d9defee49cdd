"""Sanity tests for the type-directed random generator (test substrate)."""

import pytest

from repro import cc
from repro.gen import GenConfig, TermGenerator

#: How many seeds a test derives from its own before a generator miss fails it.
DERIVED_SEEDS = 8


class TestDeterminism:
    def test_same_seed_same_output(self):
        # Binder names come from the global fresh supply, so determinism is
        # up to α-equivalence.
        first = TermGenerator(42).well_typed_term()
        second = TermGenerator(42).well_typed_term()
        assert first is not None and second is not None
        assert cc.alpha_equal(first[1], second[1])

    def test_different_seeds_vary(self):
        outputs = set()
        for seed in range(20):
            triple = TermGenerator(seed).well_typed_term()
            if triple is not None:
                outputs.add(cc.pretty(triple[1]))
        assert len(outputs) > 5


class TestWellTypedness:
    @pytest.mark.parametrize("seed", range(50))
    def test_output_is_verified(self, seed):
        triple = TermGenerator(seed).well_typed_term()
        if triple is None:
            pytest.skip("generator gave up")
        ctx, term, type_ = triple
        inferred = cc.infer(ctx, term)
        assert cc.equivalent(ctx, inferred, type_)

    @pytest.mark.parametrize("seed", range(20))
    def test_contexts_well_formed(self, seed):
        gen = TermGenerator(seed)
        cc.check_context(gen.context())

    @pytest.mark.parametrize("seed", range(20))
    def test_types_are_types(self, seed):
        gen = TermGenerator(seed)
        ctx = gen.context(2)
        type_ = gen.type_(ctx, 3)
        assert isinstance(cc.infer_universe(ctx, type_), (cc.Star, cc.Box))

    @pytest.mark.parametrize("seed", range(20))
    def test_checking_mode_inhabits(self, seed):
        # A target the generator finds no inhabitant for is not a failure of
        # checking mode: walk a fixed sequence of seeds derived from this one
        # until a target is inhabited, and fail only if none is.
        for attempt in range(DERIVED_SEEDS):
            gen = TermGenerator(seed + 10_000 * attempt)
            ctx = gen.context(2)
            target = gen.type_(ctx, 2)
            term = gen.term(ctx, target, 4)
            if term is not None:
                break
        else:
            pytest.fail(f"no inhabitant found in {DERIVED_SEEDS} seeds derived from {seed}")
        cc.check(ctx, term, target)


class TestCoverage:
    def test_generates_redexes(self):
        """The corpus must exercise reduction, so redexes must appear."""
        found_app_redex = False
        for seed in range(80):
            gen = TermGenerator(seed, GenConfig(redex_probability=0.9))
            triple = gen.well_typed_term()
            if triple is None:
                continue
            _, term, _ = triple
            for sub in cc.subterms(term):
                if isinstance(sub, cc.App) and isinstance(sub.fn, cc.Lam):
                    found_app_redex = True
                if isinstance(sub, cc.Let):
                    found_app_redex = found_app_redex or True
        assert found_app_redex

    def test_generates_lambdas_and_pairs(self):
        kinds: set[type] = set()
        for seed in range(60):
            triple = TermGenerator(seed).well_typed_term()
            if triple is None:
                continue
            for sub in cc.subterms(triple[1]):
                kinds.add(type(sub))
        assert cc.Lam in kinds
        assert cc.Pair in kinds or cc.Sigma in kinds

    def test_config_disables_ground(self):
        gen = TermGenerator(7, GenConfig(allow_ground=False, allow_sigma=False, allow_poly=False))
        ctx = cc.Context.empty()
        type_ = gen.type_(ctx, 2)
        # Without ground/sigma/poly, only Π over the fallback leaf remains.
        assert isinstance(type_, (cc.Pi, cc.Nat))
