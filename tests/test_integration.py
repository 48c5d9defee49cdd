"""Cross-module integration scenarios exercising the whole library."""

import pytest

from repro import cc, cccc
from repro.baseline import classify_failure, erase, uconvert, ueval
from repro.cc import prelude
from repro.closconv import compile_term
from repro.gen import TermGenerator
from repro.linking import ClosingSubstitution
from repro.machine import check_program, hoist, machine_observation, run
from repro.model import decompile
from repro.properties import check_separate_compilation
from repro.surface import parse_term


class TestFullPipeline:
    """surface → CC → CC-CC → hoist → machine, with every check on."""

    PROGRAMS = [
        (r"(\ (A : Type) (x : A). x) Nat 42", 42),
        (r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 3", 5),
        (r"fst (<9, false> as (exists (x : Nat), Bool))", 9),
        (r"let two = 2 : Nat in natelim(\ (k : Nat). Nat, two, \ (k : Nat) (ih : Nat). succ ih, 3)", 5),
        (r"if (if true then false else true) then 1 else 0", 0),
    ]

    @pytest.mark.parametrize("source, expected", PROGRAMS)
    def test_five_implementations_agree(self, empty, empty_target, source, expected):
        term = parse_term(source)
        # 1. CC normalizer.
        assert cc.nat_value(cc.normalize(empty, term)) == expected
        # 2. CC-CC normalizer on compiled output (verified compile).
        result = compile_term(empty, term)
        assert cccc.nat_value(cccc.normalize(empty_target, result.target)) == expected
        # 3. The machine on the hoisted program (and it re-type-checks).
        program = hoist(result.target)
        check_program(program)
        value, _ = run(program)
        assert machine_observation(value) == expected
        # 4. The untyped baseline.
        assert ueval(uconvert(erase(term))) == expected
        # 5. Back through the model into CC.
        assert cc.nat_value(cc.normalize(empty, decompile(result.target))) == expected


class TestVerifiedLinkingScenario:
    """The paper's introduction scenario as an integration test."""

    def test_proof_carrying_component(self, empty):
        interface = empty.extend("pos", prelude.positive_nat())
        component = parse_term(r"succ (fst pos)")
        gamma = ClosingSubstitution({"pos": prelude.positive_nat_value(3)})
        report = check_separate_compilation(interface, component, gamma)
        assert report.agrees and report.observation == 4

    def test_many_imports(self, empty):
        interface = (
            empty.extend("A", cc.Star())
            .extend("f", cc.arrow(cc.Var("A"), cc.Var("A")))
            .extend("x", cc.Var("A"))
        )
        component = parse_term(r"f (f x)")
        gamma = ClosingSubstitution(
            {
                "A": cc.Nat(),
                "f": parse_term(r"\ (k : Nat). succ k"),
                "x": cc.nat_literal(0),
            }
        )
        report = check_separate_compilation(interface, component, gamma)
        assert report.agrees and report.observation == 2


class TestCompilerVsBaselineCoverage:
    def test_dependent_corpus_headline(self):
        """On the full corpus: Figure 9 is always type-preserving, the
        ∃-encoding only on the simply-typed subset."""
        from tests.corpus import CORPUS

        ours = 0
        baseline = 0
        for name, ctx, term in CORPUS:
            compile_term(ctx, term, verify=True)
            ours += 1
            if classify_failure(ctx, term) == "type-preserving":
                baseline += 1
        assert ours == len(CORPUS)
        assert baseline < ours  # the paper's point, quantified

    def test_random_generated_headline(self):
        compiled = 0
        for seed in range(25):
            triple = TermGenerator(seed + 60_000).well_typed_term()
            if triple is None:
                continue
            ctx, term, _ = triple
            compile_term(ctx, term, verify=True)
            compiled += 1
        assert compiled >= 15


class TestStress:
    def test_wide_environment(self, empty):
        """A function capturing 12 variables — long telescopes."""
        ctx = empty
        for index in range(12):
            ctx = ctx.extend(f"v{index}", cc.Nat())
        body = cc.Var("v0")
        for index in range(1, 12):
            body = cc.make_app(prelude.nat_add, body, cc.Var(f"v{index}"))
        term = cc.Lam("x", cc.Nat(), body)
        result = compile_term(ctx, term)
        assert len(cccc.tuple_values(result.target.env)) == 12

    def test_deep_nesting(self, empty):
        """8 nested lambdas, each capturing all enclosing binders."""
        term = cc.Var("x0")
        for index in range(7, -1, -1):
            term = cc.Lam(f"x{index}", cc.Nat(), term)
        result = compile_term(empty, term)
        applied = result.target
        for index in range(8):
            applied = cccc.App(applied, cccc.nat_literal(index))
        value = cccc.normalize(cccc.Context.empty(), applied)
        assert cccc.nat_value(value) == 0

    def test_church_numeral_tower(self, empty):
        """Compile and run (2+3)+(1+1) on Church numerals through CC-CC."""
        total = cc.make_app(
            prelude.church_add,
            cc.make_app(prelude.church_add, prelude.church_nat(2), prelude.church_nat(3)),
            cc.make_app(prelude.church_add, prelude.church_nat(1), prelude.church_nat(1)),
        )
        to_nat = cc.make_app(
            total, cc.Nat(), cc.Lam("k", cc.Nat(), cc.Succ(cc.Var("k"))), cc.Zero()
        )
        result = compile_term(empty, to_nat)
        assert cccc.nat_value(cccc.normalize(cccc.Context.empty(), result.target)) == 7
