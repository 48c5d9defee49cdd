"""Tests for the closure-conversion translation itself (paper Figure 9)."""

import pytest

from repro import api, cc, cccc
from repro.cc import prelude
from repro.closconv import compile_term, dependent_free_vars, pipeline, translate, translate_context
from repro.closconv.pipeline import TypePreservationViolation, delta_expand
from repro.common.errors import TranslationError, TypeCheckError
from repro.kernel import typing
from repro.machine import hoist, run
from repro.surface import parse_term
from repro.wire.codec import term_from_b64, term_to_b64
from tests.corpus import CLOSED_GROUND_PROGRAMS, CORPUS, closed_ground_ids, corpus_ids


class TestStructuralCases:
    """Every non-λ case of Figure 9 is a homomorphic walk."""

    def test_var(self, empty):
        ctx = empty.extend("x", cc.Nat())
        assert translate(ctx, cc.Var("x")) == cccc.Var("x")

    def test_star(self, empty):
        assert translate(empty, cc.Star()) == cccc.Star()

    def test_pi(self, empty):
        result = translate(empty, parse_term("forall (A : Type), A -> A"))
        assert isinstance(result, cccc.Pi)
        assert result.domain == cccc.Star()

    def test_app(self, empty):
        ctx = empty.extend("f", cc.arrow(cc.Nat(), cc.Nat())).extend("x", cc.Nat())
        result = translate(ctx, cc.App(cc.Var("f"), cc.Var("x")))
        assert result == cccc.App(cccc.Var("f"), cccc.Var("x"))

    def test_let(self, empty):
        result = translate(empty, parse_term("let x = 0 : Nat in x"))
        assert result == cccc.Let("x", cccc.Zero(), cccc.Nat(), cccc.Var("x"))

    def test_sigma_pair_projections(self, empty):
        source = parse_term("fst (<3, true> as (exists (x : Nat), Bool))")
        result = translate(empty, source)
        assert isinstance(result, cccc.Fst)
        assert isinstance(result.pair, cccc.Pair)

    def test_ground(self, empty):
        assert translate(empty, cc.nat_literal(3)) == cccc.nat_literal(3)
        assert translate(empty, cc.BoolLit(True)) == cccc.BoolLit(True)
        assert translate(empty, parse_term("if true then 1 else 0")) == cccc.If(
            cccc.BoolLit(True), cccc.nat_literal(1), cccc.Zero()
        )


class TestLambdaCase:
    """The [CC-Lam] case: closures, environments, and their types."""

    def test_closed_lambda_gets_unit_env(self, empty):
        result = translate(empty, parse_term(r"\ (x : Nat). x"))
        assert isinstance(result, cccc.Clo)
        assert result.env == cccc.UnitVal()
        assert isinstance(result.code, cccc.CodeLam)
        assert result.code.env_type == cccc.Unit()

    def test_captured_term_variable(self, empty):
        ctx = empty.extend("y", cc.Nat())
        result = translate(ctx, parse_term(r"\ (x : Nat). y"))
        assert isinstance(result, cccc.Clo)
        values = cccc.tuple_values(result.env)
        assert values == [cccc.Var("y")]

    def test_captured_type_variable_in_annotation(self, empty):
        # The paper's Section 3 example: the type variable A occurs in the
        # *annotation*, and must still be captured.
        ctx = empty.extend("A", cc.Star())
        result = translate(ctx, parse_term(r"\ (x : A). x"))
        assert cccc.tuple_values(result.env) == [cccc.Var("A")]

    def test_environment_is_dependency_ordered(self, empty):
        ctx = empty.extend("A", cc.Star()).extend("a", cc.Var("A"))
        result = translate(ctx, parse_term(r"\ (x : Nat). a"))
        assert cccc.tuple_values(result.env) == [cccc.Var("A"), cccc.Var("a")]

    def test_code_of_translation_is_closed(self, empty):
        ctx = empty.extend("A", cc.Star()).extend("f", cc.arrow(cc.Var("A"), cc.Var("A")))
        result = translate(ctx, parse_term(r"\ (x : A). f x"))
        assert cccc.free_vars(result.code) == set()

    def test_nested_lambdas_nest_closures(self, empty):
        result = translate(empty, prelude.polymorphic_identity)
        assert isinstance(result, cccc.Clo)
        outer_body = result.code.body
        assert isinstance(outer_body, cccc.Clo)  # the inner closure

    def test_binder_shadowing_freed_variable(self, empty):
        # λ x:(x→Nat)… with an outer x captured: binder must be renamed.
        ctx = empty.extend("x", cc.Star())
        term = cc.Lam("x", cc.Var("x"), cc.nat_literal(0))
        result = translate(ctx, term)
        assert isinstance(result, cccc.Clo)
        assert result.code.arg_name != "x"
        cccc.infer(translate_context(ctx), result)  # and it type checks

    def test_ill_typed_function_rejected(self, empty):
        bad = cc.Lam("x", cc.Nat(), cc.App(cc.Zero(), cc.Zero()))
        with pytest.raises(TranslationError):
            translate(empty, bad)


class TestContextTranslation:
    def test_assumptions(self, empty):
        ctx = empty.extend("A", cc.Star()).extend("x", cc.Var("A"))
        target = translate_context(ctx)
        assert target.names() == ["A", "x"]
        assert target.lookup("x").type_ == cccc.Var("A")

    def test_definitions(self, empty):
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        target = translate_context(ctx)
        assert target.lookup("two").definition == cccc.nat_literal(2)

    def test_translated_context_well_formed(self, empty):
        from tests.corpus import CORPUS

        for name, ctx, _ in CORPUS:
            cccc.check_context(translate_context(ctx))


class TestPipeline:
    @pytest.mark.parametrize("name, ctx, term", CORPUS, ids=corpus_ids())
    def test_corpus_compiles_verified(self, name, ctx, term):
        result = compile_term(ctx, term, verify=True)
        assert result.checked_type is not None

    @pytest.mark.parametrize("name, term, expected", CLOSED_GROUND_PROGRAMS, ids=closed_ground_ids())
    def test_ground_values_preserved(self, empty, empty_target, name, term, expected):
        result = compile_term(empty, term)
        value = cccc.normalize(empty_target, result.target)
        observed = value.value if isinstance(value, cccc.BoolLit) else cccc.nat_value(value)
        assert observed == expected

    def test_compile_rejects_ill_typed_source(self, empty):
        with pytest.raises(TypeCheckError):
            compile_term(empty, cc.App(cc.Zero(), cc.Zero()))

    def test_verify_false_skips_target_check(self, empty):
        result = compile_term(empty, prelude.polymorphic_identity, verify=False)
        assert result.checked_type is None
        assert result.target is not None

    def test_delta_expand_option(self, empty):
        ctx = empty.define("two", cc.nat_literal(2), cc.Nat())
        result = compile_term(ctx, cc.Succ(cc.Var("two")), inline_definitions=True)
        assert result.source == cc.Succ(cc.nat_literal(2))

    def test_delta_expand_nested_definitions(self, empty):
        ctx = empty.define("one", cc.nat_literal(1), cc.Nat()).define(
            "two", cc.Succ(cc.Var("one")), cc.Nat()
        )
        expanded = delta_expand(ctx, cc.Var("two"))
        assert cc.free_vars(expanded) == set()
        assert cc.nat_value(cc.normalize(empty, expanded)) == 2

    def test_violation_exception_type(self):
        assert issubclass(TypePreservationViolation, TypeCheckError)


class TestEnvironmentShapes:
    def test_fv_and_env_tuple_agree(self, empty):
        ctx = (
            empty.extend("A", cc.Star())
            .extend("f", cc.arrow(cc.Var("A"), cc.Var("A")))
            .extend("a", cc.Var("A"))
        )
        term = parse_term(r"\ (x : A). f a")
        bindings = dependent_free_vars(ctx, term, cc.infer(ctx, term))
        result = translate(ctx, term)
        values = cccc.tuple_values(result.env)
        assert [v.name for v in values] == [b.name for b in bindings]

    def test_inner_env_contains_outer_binder(self, empty):
        # const: the inner closure's environment holds the outer argument x.
        result = translate(empty, prelude.const_fn(cc.Nat(), cc.Bool()))
        inner = result.code.body
        assert isinstance(inner, cccc.Clo)
        assert cccc.tuple_values(inner.env) == [cccc.Var("x")]


def _nested_lambdas(depth):
    """``λ x0… λ x_{depth-1}. x0``: every inner λ captures all outer binders."""
    body = cc.Var("x0")
    for index in range(depth - 1, -1, -1):
        body = cc.Lam(f"x{index}", cc.Nat(), body)
    return body


class TestBodyTypeFromDerivation:
    """[CC-Lam] reads B off the source check's derivation, soundly."""

    # One λ node, ``λ y:Nat. x``, under two binders typing ``x`` as Nat and
    # as Bool: its body type (and so its environment) differs per context.
    SHARED = (
        r"<\ (x : Nat). \ (y : Nat). x, \ (x : Bool). \ (y : Nat). x>"
        r" as (exists (f : forall (x : Nat), Nat -> Nat), forall (x : Bool), Nat -> Bool)"
    )

    @pytest.mark.parametrize("form", ["text", "interned", "decoded"])
    def test_one_lambda_under_two_contexts(self, form):
        session = api.Session()
        with session.activate():
            program = self.SHARED
            if form != "text":
                program = cc.intern(parse_term(program))
                if form == "decoded":
                    program = term_from_b64(cc.ast.LANGUAGE, term_to_b64(cc.ast.LANGUAGE, program))
                assert program.fst_val.body is program.snd_val.body  # one shared λ node
        compiled = session.compile(program).compilation  # verifies Theorem 5.6
        assert compiled.checked_type is not None
        # The outer λs are closed, so each code body is the inner closure;
        # each captures its own x, typed Nat on the left and Bool on the right.
        inner = [closure.code.body for closure in (compiled.target.fst_val, compiled.target.snd_val)]
        assert [len(cccc.tuple_values(closure.env)) for closure in inner] == [1, 1]
        left, right = (
            {type(node) for node in cccc.subterms(closure.code.env_type)} for closure in inner
        )
        assert cccc.Nat in left and cccc.Bool not in left
        assert cccc.Bool in right and cccc.Nat not in right

    def test_cold_compile_derives_no_body_type(self, monkeypatch):
        derivations = []
        translating = [False]
        infer_value = typing.infer_value

        def counting_infer(spec, ctx, term, budget, entry=False):
            if translating[0]:
                derivations.append(term)
            return infer_value(spec, ctx, term, budget, entry)

        def tracked_translate(ctx, term):
            translating[0] = True
            try:
                return translate(ctx, term)
            finally:
                translating[0] = False

        monkeypatch.setattr(typing, "infer_value", counting_infer)
        monkeypatch.setattr(pipeline, "translate", tracked_translate)
        compiled = api.Session().compile(_nested_lambdas(60))
        assert compiled.compilation.checked_type is not None
        assert derivations == []

    def test_standalone_translate_is_type_directed(self):
        ctx = cc.Context.empty().extend("A", cc.Star()).extend("a", cc.Var("A"))
        term = parse_term(r"\ (x : Nat). \ (y : A). \ (z : Nat). a")
        with api.Session().activate():
            alone = translate(ctx, term)  # no check ran in this session
            target_ctx = translate_context(ctx)
            checked = cccc.infer(target_ctx, alone)
            expected = translate(ctx, cc.infer(ctx, term))
            assert cccc.equivalent(target_ctx, checked, expected)
        with api.Session().activate():
            cc.infer(ctx, term)
            after_check = translate(ctx, term)
        assert cccc.alpha_equal(alone, after_check)
        assert cccc.tuple_values(alone.env) == [cccc.Var("A"), cccc.Var("a")]


class TestClosedTranslationSharing:
    """A closed subterm is translated once per session, by identity."""

    TWICE = (
        r"(\ (f : Nat -> Nat) (g : Nat -> Nat). f (g 1))"
        r" (\ (x : Nat). succ x) (\ (x : Nat). succ x)"
    )

    @staticmethod
    def _unshared():
        """``TWICE`` built from plain constructors: two distinct ``succ`` λ objects."""
        def succ_fn():
            return cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x")))

        arrow = cc.arrow(cc.Nat(), cc.Nat())
        apply = cc.Lam("f", arrow, cc.Lam("g", arrow, cc.App(
            cc.Var("f"), cc.App(cc.Var("g"), cc.Succ(cc.Zero())))))
        return cc.make_app(apply, succ_fn(), succ_fn())

    @staticmethod
    def _observed(compiled):
        program = hoist(compiled.target)
        _, stats = run(program)
        labels = (program.main.fn.arg.code.name, program.main.arg.code.name)
        target, target_type = (
            cccc.pretty(cccc.intern(term)) for term in (compiled.target, compiled.target_type)
        )
        return target, target_type, program.code_count, labels, stats

    def test_one_closed_lambda_twice_is_one_clo(self):
        session = api.Session()
        shared = session.compile(self.TWICE).compilation
        assert shared.source.fn.arg is shared.source.arg  # the parser hash-conses
        first, second = shared.target.fn.arg, shared.target.arg
        assert type(first) is cccc.Clo and first is second
        unshared = api.Session().compile(self._unshared()).compilation
        assert unshared.target.fn.arg is not unshared.target.arg
        with session.activate():
            shared_seen = self._observed(shared)
        with api.Session().activate():
            unshared_seen = self._observed(unshared)
        assert shared_seen == unshared_seen
        code_count, (left, right) = shared_seen[2:4]
        assert code_count == 3 and left == right  # the succ code is one label

    def test_session_reports_and_resets_the_memo(self):
        session = api.Session()
        assert session.compile(self.TWICE).verified
        assert session.cache_stats()["closconv.closed"] > 0
        session.reset()
        assert session.cache_stats()["closconv.closed"] == 0
