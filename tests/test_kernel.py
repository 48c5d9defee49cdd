"""Tests for the shared term kernel (:mod:`repro.kernel`).

Covers the tentpole invariants:

* hash-consing / interning — ``intern(a) is intern(b)`` exactly for
  α-equivalent builds, in both calculi;
* cached free variables — agreement with a reference recursive
  implementation over the whole test corpus, plus O(1) reuse;
* memoized normalization — identical results and *identical step/fuel
  accounting* between cold and warm runs;
* cache invalidation — ``reset_fresh_counter`` clears every kernel cache;
* closed subjects — a closed term's infer/universe judgment is one memo
  entry with the same verdict, type and fuel under every context;
* deep-term regressions — ``subterms`` / ``term_size`` / ``free_vars``
  survive ~10k-node left-nested application spines without hitting the
  recursion limit.
"""

from __future__ import annotations

import importlib

import pytest

from repro import api, cc, cccc
from repro.cc import prelude
from repro.common.errors import TypeCheckError
from repro.common.names import reset_fresh_counter
from repro.gen.dag import shared_dag_tower
from repro.gen.jobs import job_corpus
from repro.kernel.budget import Budget
from repro.kernel.memo import context_token
from repro.surface import parse_term

from corpus import CLOSED_GROUND_PROGRAMS, CORPUS, corpus_ids

SPINE_DEPTH = 10_000


def _app_spine(mod, depth: int):
    """A left-nested application spine ``x y y y …`` of ``depth`` nodes."""
    term = mod.Var("x")
    for _ in range(depth):
        term = mod.App(term, mod.Var("y"))
    return term


# --------------------------------------------------------------------------
# Interning / hash-consing invariants.
# --------------------------------------------------------------------------


class TestInterning:
    def test_intern_is_idempotent_on_object(self):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert cc.intern(term) is cc.intern(term)

    def test_alpha_identical_builds_intern_to_same_object(self):
        left = cc.Lam("x", cc.Nat(), cc.Var("x"))
        right = cc.Lam("x", cc.Nat(), cc.Var("x"))
        assert left is not right
        assert cc.intern(left) is cc.intern(right)

    def test_alpha_equivalent_builds_intern_to_same_object(self):
        left = cc.Lam("x", cc.Nat(), cc.Var("x"))
        right = cc.Lam("y", cc.Nat(), cc.Var("y"))
        assert cc.intern(left) is cc.intern(right)

    def test_distinct_terms_intern_to_distinct_objects(self):
        bound = cc.Lam("x", cc.Nat(), cc.Var("x"))
        free = cc.Lam("x", cc.Nat(), cc.Var("y"))
        assert cc.intern(bound) is not cc.intern(free)

    def test_intern_preserves_alpha_class(self):
        term = cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x")))
        assert cc.alpha_equal(cc.intern(term), term)

    def test_intern_respects_crossed_binders(self):
        left = cc.Lam("x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Var("x")))
        right = cc.Lam("y", cc.Nat(), cc.Lam("x", cc.Nat(), cc.Var("y")))
        wrong = cc.Lam("y", cc.Nat(), cc.Lam("x", cc.Nat(), cc.Var("x")))
        assert cc.intern(left) is cc.intern(right)
        assert cc.intern(left) is not cc.intern(wrong)

    @pytest.mark.parametrize(("name", "ctx", "term"), CORPUS, ids=corpus_ids())
    def test_intern_matches_alpha_equal_over_corpus(self, name, ctx, term):
        rep = cc.intern(term)
        assert cc.alpha_equal(rep, term)
        assert cc.intern(rep) is rep

    def test_hashcons_constructor_shares_nodes(self):
        one = cc.hashcons(cc.App, cc.hashcons(cc.Var, "f"), cc.hashcons(cc.Var, "a"))
        two = cc.hashcons(cc.App, cc.hashcons(cc.Var, "f"), cc.hashcons(cc.Var, "a"))
        assert one is two

    def test_cccc_intern_multi_binder_code(self):
        left = cccc.CodeLam("e", cccc.Unit(), "x", cccc.Nat(), cccc.Var("x"))
        right = cccc.CodeLam("env", cccc.Unit(), "arg", cccc.Nat(), cccc.Var("arg"))
        wrong = cccc.CodeLam("e", cccc.Unit(), "x", cccc.Nat(), cccc.Var("e"))
        assert cccc.intern(left) is cccc.intern(right)
        assert cccc.intern(left) is not cccc.intern(wrong)
        assert cccc.alpha_equal(cccc.intern(left), left)

    def test_intern_keeps_free_variable_names(self):
        term = cc.App(cc.Var("f"), cc.Lam("x", cc.Nat(), cc.Var("free")))
        assert cc.free_vars(cc.intern(term)) == {"f", "free"}

    def test_intern_with_free_canonical_named_variable(self):
        # Destructuring a representative releases its canonical binder
        # names as *free* variables; re-interning must not capture them
        # (the canonical prefix escalates instead).
        rep = cc.intern(cc.Lam("y", cc.Star(), cc.Var("y")))
        loose = cc.Lam("z", cc.Star(), rep.body)  # body is a free canonical var
        assert not cc.alpha_equal(loose, rep)
        assert cc.intern(loose) is not rep
        assert cc.alpha_equal(cc.intern(loose), loose)
        assert cc.intern(cc.Lam("w", cc.Star(), rep.body)) is cc.intern(loose)


# --------------------------------------------------------------------------
# Cached free variables vs. a reference recursive implementation.
# --------------------------------------------------------------------------


def _reference_free_vars(lang, term, bound=frozenset()):
    """Straightforward recursive free-variable computation over node specs."""
    if isinstance(term, lang.var_cls):
        return set() if term.name in bound else {term.name}
    spec = lang.spec(term)
    out: set[str] = set()
    for child in spec.children:
        names = {getattr(term, b) for b in child.binders}
        out |= _reference_free_vars(lang, getattr(term, child.attr), bound | names)
    return out


class TestCachedFreeVars:
    @pytest.mark.parametrize(("name", "ctx", "term"), CORPUS, ids=corpus_ids())
    def test_agrees_with_reference_over_corpus(self, name, ctx, term):
        from repro.cc.ast import LANGUAGE

        assert cc.free_vars(term) == _reference_free_vars(LANGUAGE, term)
        # And for every subterm, which exercises the bottom-up fill.
        for sub in cc.subterms(term):
            assert cc.free_vars(sub) == _reference_free_vars(LANGUAGE, sub)

    def test_agrees_on_converted_corpus_terms(self):
        from repro.cccc.ast import LANGUAGE as TARGET
        from repro.closconv.pipeline import compile_term

        for name, ctx, term in CORPUS[:8]:
            if len(ctx) > 0:
                continue
            result = compile_term(ctx, term)
            assert cccc.free_vars(result.target) == _reference_free_vars(TARGET, result.target)

    def test_cache_returns_same_frozenset_object(self):
        term = cc.Lam("x", cc.Nat(), cc.App(cc.Var("f"), cc.Var("x")))
        assert cc.free_vars(term) is cc.free_vars(term)

    def test_free_vars_returns_shared_immutable_set(self):
        term = cc.App(cc.Var("f"), cc.Var("a"))
        first = cc.free_vars(term)
        assert isinstance(first, frozenset)  # callers cannot poison the stored set
        with pytest.raises(AttributeError):
            first.clear()
        assert cc.free_vars(term) == {"f", "a"}

    def test_multi_binder_scoping(self):
        term = cccc.CodeType("e", cccc.Var("E"), "x", cccc.Var("e"), cccc.Var("x"))
        assert cccc.free_vars(term) == {"E"}


# --------------------------------------------------------------------------
# Memoized normalization: results and fuel accounting.
# --------------------------------------------------------------------------


class TestMemoizedNormalization:
    def test_warm_normalize_returns_identical_object(self, empty):
        term = cc.make_app(prelude.nat_add, cc.nat_literal(6), cc.nat_literal(7))
        cold = cc.normalize(empty, term)
        warm = cc.normalize(empty, term)
        assert warm is cold
        assert cc.nat_value(warm) == 13

    def test_step_counts_identical_cold_and_warm(self, empty):
        term = cc.make_app(prelude.nat_add, cc.nat_literal(5), cc.nat_literal(5))
        _, cold_steps = cc.normalize_counting(empty, term)
        _, warm_steps = cc.normalize_counting(empty, term)
        assert cold_steps == warm_steps > 0

    def test_warm_hit_still_exhausts_small_budget(self, empty):
        from repro.common.errors import NormalizationDepthExceeded

        term = cc.make_app(prelude.nat_add, cc.nat_literal(20), cc.nat_literal(20))
        cc.normalize(empty, term)  # fill the cache
        with pytest.raises(NormalizationDepthExceeded):
            cc.normalize(empty, term, Budget(remaining=3))

    def test_context_definitions_distinguish_entries(self):
        term = cc.Var("n")
        with_two = cc.Context.empty().define("n", cc.nat_literal(2), cc.Nat())
        with_three = cc.Context.empty().define("n", cc.nat_literal(3), cc.Nat())
        assert cc.nat_value(cc.normalize(with_two, term)) == 2
        assert cc.nat_value(cc.normalize(with_three, term)) == 3

    def test_assumption_shadows_definition_in_token(self):
        two = cc.nat_literal(2)
        defined = cc.Context.empty().define("n", two, cc.Nat())
        shadowed = defined.extend("n", cc.Nat())
        assert context_token(defined) != context_token(shadowed)
        assert cc.normalize(shadowed, cc.Var("n")) == cc.Var("n")
        assert cc.nat_value(cc.normalize(defined, cc.Var("n"))) == 2

    def test_equal_definition_objects_share_token(self):
        two = cc.nat_literal(2)
        first = cc.Context.empty().define("n", two, cc.Nat())
        second = cc.Context.empty().define("n", two, cc.Nat())
        assert context_token(first) == context_token(second)

    def test_binder_extensions_share_token(self, empty):
        extended = empty.extend("x", cc.Nat()).extend("y", cc.Bool())
        assert context_token(empty) == context_token(extended)

    @pytest.mark.parametrize(("name", "ctx", "term"), CORPUS, ids=corpus_ids())
    def test_normal_forms_have_no_reducts(self, name, ctx, term):
        """Drift guard for the whnf memo short-circuit.

        `repro.kernel.reduction` skips the memo for any head outside the
        spec's `active` classes, which `NbeSpec` derives from its
        eliminator classes.  If a reducible head class were ever missing
        from it, normalize would silently leave redexes behind;
        enumerating the one-step relation on the normal form catches that
        no matter where the redex hides.
        """
        nf = cc.normalize(ctx, term)
        assert cc.reducts(ctx, nf) == []

    def test_cccc_normal_forms_have_no_reducts(self, empty_target):
        code = cccc.CodeLam("e", cccc.Unit(), "x", cccc.Nat(), cccc.Succ(cccc.Var("x")))
        term = cccc.Let(
            "p",
            cccc.Pair(cccc.nat_literal(1), cccc.BoolLit(True),
                      cccc.Sigma("n", cccc.Nat(), cccc.Bool())),
            cccc.Sigma("n", cccc.Nat(), cccc.Bool()),
            cccc.If(cccc.Snd(cccc.Var("p")),
                    cccc.App(cccc.Clo(code, cccc.UnitVal()), cccc.Fst(cccc.Var("p"))),
                    cccc.Zero()),
        )
        nf = cccc.normalize(empty_target, term)
        assert cccc.nat_value(nf) == 2
        assert cccc.reducts(empty_target, nf) == []

    def test_deep_context_token_is_linear(self, empty):
        """Incremental context fingerprints survive deep binder nests."""
        ctx = empty.define("base", cc.nat_literal(1), cc.Nat())
        for index in range(1500):  # far past the recursion limit
            ctx = ctx.extend(f"b{index}", cc.Nat())
        assert context_token(ctx) == context_token(ctx)
        assert cc.nat_value(cc.normalize(ctx, cc.Var("base"))) == 1

    def test_cccc_warm_normalize(self, empty_target):
        code = cccc.CodeLam("e", cccc.Unit(), "x", cccc.Nat(), cccc.Succ(cccc.Var("x")))
        term = cccc.App(cccc.Clo(code, cccc.UnitVal()), cccc.nat_literal(3))
        cold = cccc.normalize(empty_target, term)
        assert cccc.nat_value(cold) == 4
        assert cccc.normalize(empty_target, term) is cold


# --------------------------------------------------------------------------
# Reset semantics.
# --------------------------------------------------------------------------


class TestReset:
    def test_reset_clears_kernel_caches(self, empty):
        from repro.kernel.cache import cache_stats

        term = cc.make_app(prelude.nat_add, cc.nat_literal(4), cc.nat_literal(4))
        cc.normalize(empty, term)
        cc.intern(term)
        assert cache_stats()["cc.intern"] > 0
        assert cache_stats()["kernel.normalization"] > 0
        reset_fresh_counter()
        stats = cache_stats()
        assert stats["cc.intern"] == 0
        assert stats["cc.hashcons"] == 0
        assert stats["kernel.normalization"] == 0

    def test_reset_invalidates_interned_representatives(self):
        term = cc.Lam("x", cc.Nat(), cc.Var("x"))
        before = cc.intern(term)
        reset_fresh_counter()
        after = cc.intern(term)
        assert after is not before  # the old table is gone…
        assert cc.alpha_equal(after, before)  # …but the α-class is unchanged
        assert cc.intern(term) is after

    def test_normalization_recomputes_after_reset(self, empty):
        term = cc.make_app(prelude.nat_add, cc.nat_literal(2), cc.nat_literal(2))
        _, cold = cc.normalize_counting(empty, term)
        reset_fresh_counter()
        _, recomputed = cc.normalize_counting(empty, term)
        assert cold == recomputed


# --------------------------------------------------------------------------
# Judgment memo traffic: typing entries key on the context's extension path.
# --------------------------------------------------------------------------


class TestJudgmentMemoTraffic:
    def test_repeated_session_check_hits(self):
        session = api.Session()
        term = cc.make_app(prelude.nat_add, cc.nat_literal(2), cc.nat_literal(3))
        cold = session.check(term)
        warm = session.check(term)
        assert cold.cache_hits["kernel.judgments"] == 0
        assert warm.cache_hits["kernel.judgments"] > 0
        assert warm.type_ is cold.type_
        assert warm.steps == cold.steps

    def test_fresh_empty_contexts_share_entries(self):
        session = api.Session()
        term = cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x")))
        with session.activate():
            first = cc.infer(cc.Context.empty(), term)
            entries = session.cache_stats()["kernel.judgments"]
            hits = session.hit_counts()["kernel.judgments"]
            second = cc.infer(cc.Context.empty(), term)
        assert second is first
        assert session.cache_stats()["kernel.judgments"] == entries
        assert session.hit_counts()["kernel.judgments"] == hits + 1

    def test_shared_dag_tower_hits(self):
        result = api.Session().check(shared_dag_tower(7))
        assert result.cache_hits["kernel.judgments"] == 34

    def test_compile_leaves_only_the_public_cccc_typing_entry(self):
        session = api.Session()
        compiled = session.compile(prelude.church_nat(2))
        typing = [
            (kind, subject)
            for kind, subject, _extra, _key in session.state.judgments._entries
            if kind.startswith("cccc.") and kind != "cccc.equiv"
        ]
        assert typing == [("cccc.infer.nbe", id(compiled.target))]

    def test_same_path_contexts_share_a_key(self):
        session = api.Session()
        root = cc.Context.empty()
        term = cc.Succ(cc.Var("n"))
        nat = cc.Nat()
        with session.activate():
            derived = cc.infer(root.extend("n", nat), term)
            # A second context object along the same path reads the judgment…
            assert cc.typecheck.derived_type(root.extend("n", nat), term) is derived
            # …while another root, or another binding, is another path.
            assert cc.typecheck.derived_type(cc.Context.empty().extend("n", nat), term) is None
            assert cc.typecheck.derived_type(root.extend("m", nat), term) is None
        assert session.hit_counts()["kernel.judgments"] == 0  # reads count no hit

    def test_cache_stats_has_no_typing_token_table(self):
        session = api.Session()
        session.check(prelude.church_nat(2))
        stats = session.cache_stats()
        assert "kernel.typing_tokens" not in stats
        assert "kernel.ctx_tokens" in stats


class TestTypingPaths:
    """The path-key table: session-scoped, bounded, visible."""

    def test_cache_stats_shows_paths_and_reset_empties_them(self):
        session = api.Session()
        session.check(prelude.church_nat(2))
        assert session.cache_stats()["kernel.typing_paths"] > 0
        session.reset()
        assert session.cache_stats()["kernel.typing_paths"] == 0

    def test_judgment_overflow_empties_paths(self):
        session = api.Session()
        cache = session.state.judgments
        ctx = cc.Context.empty().extend("n", cc.Nat())
        term = cc.Succ(cc.Var("n"))
        with session.activate():
            cc.infer(ctx, term)
            key = cache.typing_key(ctx)
            assert len(cache.paths) > 0
            cache.max_entries = len(cache)
            cc.infer(ctx, cc.Succ(term))  # its first store overflows the cache
            assert len(cache) <= cache.max_entries
            # The key cached on ctx was issued before the overflow: void now.
            assert cache.typing_key(ctx) != key
            assert cache.peek("cc.infer", term, None, cache.typing_key(ctx)) is None

    def test_overflow_store_clears_both_tables(self):
        session = api.Session()
        cache = session.state.judgments
        with session.activate():
            cc.infer(cc.Context.empty().extend("n", cc.Nat()), cc.Succ(cc.Var("n")))
        cache.max_entries = len(cache)
        cache.store("cc.infer", cc.Zero(), None, 0, cc.Nat(), 0)
        assert len(cache) == 1 and len(cache.paths) == 0

    def test_key_from_one_session_never_hits_in_another(self):
        ctx = cc.Context.empty().extend("n", cc.Nat())
        term = cc.Succ(cc.Var("n"))
        first, second = api.Session(), api.Session()
        with first.activate():
            cc.infer(ctx, term)
            key = first.state.judgments.typing_key(ctx)
        with second.activate():
            cc.infer(ctx, term)
            other = second.state.judgments.typing_key(ctx)
        assert other != key
        assert second.hit_counts()["kernel.judgments"] == 0
        assert second.state.judgments.peek("cc.infer", term, None, key) is None
        # The issuing session still honours its own key.
        assert first.state.judgments.typing_key(ctx) == key
        with first.activate():
            cc.infer(ctx, term)
        assert first.hit_counts()["kernel.judgments"] == 1


# --------------------------------------------------------------------------
# Closed subjects: infer and universe judgments key on the empty context.
# --------------------------------------------------------------------------


def _closed_programs() -> list[tuple[str, cc.Term]]:
    """Every closed corpus program, a seed-1 generated slice, and ill-typed ones."""
    programs = [(name, term) for name, ctx, term in CORPUS if len(ctx) == 0]
    programs += [(name, term) for name, term, _ in CLOSED_GROUND_PROGRAMS]
    programs += [
        (f"gen-{index}", parse_term(spec["program"]))
        for index, spec in enumerate(job_corpus(1, count=12))
    ]
    programs.append(("shared-dag-tower-4", shared_dag_tower(4)))
    programs += [
        ("ill-app", parse_term(r"(\ (x : Nat). x) true")),
        ("ill-succ", parse_term(r"\ (A : Type). \ (x : A). succ x")),
    ]
    return programs


_CLOSED = _closed_programs()


def _shadowing_contexts(term: cc.Term) -> tuple[cc.Context, cc.Context]:
    """Two contexts over ``term``'s own binder names, each one δ-defined
    (``x := 0 : Nat``) in one context and assumed (``x : ⋆``) in the other."""
    names: dict[str, None] = {}
    for node in cc.subterms(term):
        for attr in cc.ast.LANGUAGE.spec(node).binder_attrs:
            if getattr(node, attr) != "_":
                names.setdefault(getattr(node, attr))
    contexts = [cc.Context.empty(), cc.Context.empty()]
    for index, name in enumerate(names or ["x"]):
        for side, ctx in enumerate(contexts):
            if (index + side) % 2:
                contexts[side] = ctx.extend(name, cc.Star())
            else:
                contexts[side] = ctx.define(name, cc.Zero(), cc.Nat())
    return contexts[0], contexts[1]


def _judged(judgment, ctx, *args) -> tuple:
    """(verdict, α-canonical result or error message, fuel) of one judgment."""
    budget = Budget()
    try:
        result = judgment(ctx, *args, budget)
    except TypeCheckError as error:
        return (False, str(error), budget.spent)
    return (True, None if result is None else cc.pretty(cc.intern(result)), budget.spent)


class TestClosedKey:
    """A closed subject's judgment is the same under every context."""

    @staticmethod
    def _judgments(term: cc.Term) -> list[tuple]:
        """``(judgment, *args)`` for infer, and for check and universe at the
        program's empty-context type when it has one."""
        with api.Session().activate():
            try:
                type_ = cc.infer(cc.Context.empty(), term)
            except TypeCheckError:
                return [(cc.infer, term)]
        return [(cc.infer, term), (cc.check, term, type_), (cc.infer_universe, type_)]

    @pytest.mark.parametrize("name, term", _CLOSED, ids=[name for name, _ in _CLOSED])
    def test_same_verdict_type_and_fuel_under_any_context(self, name, term):
        contexts = _shadowing_contexts(term)
        empty = cc.Context.empty()
        for judgment, *args in self._judgments(term):
            cold = []
            for ctx in (empty, *contexts):
                with api.Session().activate():
                    cold.append(_judged(judgment, ctx, *args))
            assert cold[1] == cold[2] == cold[0], judgment
            # Warm: the empty-context judgment fills the memo, and the
            # same public judgment under either context replays it.
            session = api.Session()
            with session.activate():
                assert _judged(judgment, empty, *args) == cold[0]
                for ctx in contexts:
                    hits = session.hit_counts()["kernel.judgments"]
                    assert _judged(judgment, ctx, *args) == cold[0]
                    hits = session.hit_counts()["kernel.judgments"] - hits
                    if not cold[0][0]:
                        continue  # failures are never stored
                    # One hit at the root; check keys on the path, so its
                    # inner infer is the judgment that replays.
                    assert hits == 1 or (judgment is cc.check and hits > 1), judgment

    def test_closed_infer_is_stored_once_under_binders(self):
        closed = parse_term(r"\ (y : Nat). succ y")
        session = api.Session()
        with session.activate():
            ctx = cc.Context.empty().extend("x", cc.Nat()).extend("z", cc.Bool())
            first = cc.infer(ctx, closed)
            assert cc.infer(cc.Context.empty(), closed) is first
            other = cc.Context.empty().extend("w", cc.Nat())
            assert cc.typecheck.derived_type(other, closed) is first
        keys = {key for kind, subject, _, key in session.state.judgments._entries
                if kind == "cc.infer" and subject == id(closed)}
        assert keys == {0}

    @pytest.mark.parametrize("text", ["x", "if true then x else x"])
    def test_open_subject_keys_on_the_path(self, text):
        subject = parse_term(text)
        session = api.Session()
        with session.activate():
            as_nat = cc.infer(cc.Context.empty().extend("x", cc.Nat()), subject)
            as_bool = cc.infer(cc.Context.empty().extend("x", cc.Bool()), subject)
        assert type(as_nat) is cc.Nat and type(as_bool) is cc.Bool
        assert session.hit_counts()["kernel.judgments"] == 0

    def test_check_keys_on_the_path(self):
        # A closed subject, an open expected type: ``succ 0 : T`` holds
        # where T := Nat and fails where T is an opaque type.
        subject, expected = parse_term("succ 0"), cc.Var("T")
        with api.Session().activate():
            cc.check(cc.Context.empty().define("T", cc.Nat(), cc.Star()), subject, expected)
            with pytest.raises(TypeCheckError, match="type mismatch"):
                cc.check(cc.Context.empty().extend("T", cc.Star()), subject, expected)


# --------------------------------------------------------------------------
# Deep-term regressions: iterative traversals on ~10k-node spines.
# --------------------------------------------------------------------------


class TestDeepTerms:
    def test_cc_deep_spine_traversals(self):
        spine = _app_spine(cc, SPINE_DEPTH)
        assert cc.term_size(spine) == 2 * SPINE_DEPTH + 1
        assert sum(1 for _ in cc.subterms(spine)) == 2 * SPINE_DEPTH + 1
        assert cc.free_vars(spine) == {"x", "y"}

    def test_cccc_deep_spine_traversals(self):
        spine = _app_spine(cccc, SPINE_DEPTH)
        assert cccc.term_size(spine) == 2 * SPINE_DEPTH + 1
        assert sum(1 for _ in cccc.subterms(spine)) == 2 * SPINE_DEPTH + 1
        assert cccc.free_vars(spine) == {"x", "y"}

    def test_deep_succ_chain(self):
        deep = cc.nat_literal(SPINE_DEPTH)
        assert cc.term_size(deep) == SPINE_DEPTH + 1
        assert cc.free_vars(deep) == set()

    def test_deep_spine_intern(self):
        left = _app_spine(cc, SPINE_DEPTH)
        right = _app_spine(cc, SPINE_DEPTH)
        assert cc.intern(left) is cc.intern(right)


class TestDeepPretty:
    """The pretty printers are iterative: ~10k-deep terms render fine.

    Error messages embed pretty-printed terms, so a deep ill-typed program
    must not turn a `TypeCheckError` into a `RecursionError`.
    """

    def test_cc_deep_spine_pretty(self):
        spine = _app_spine(cc, SPINE_DEPTH)
        text = cc.pretty(spine)
        assert text.startswith("x y") and text.endswith(" y")

    def test_cc_deep_numeral_pretty(self):
        assert cc.pretty(cc.nat_literal(SPINE_DEPTH)) == str(SPINE_DEPTH)

    def test_cc_deep_stuck_succ_pretty(self):
        term = cc.Var("k")
        for _ in range(SPINE_DEPTH):
            term = cc.Succ(term)
        text = cc.pretty(term)
        assert text.startswith("succ (succ (") and text.endswith("k" + ")" * (SPINE_DEPTH - 1))

    def test_cc_deep_lam_nest_pretty(self):
        body = cc.Var("x0")
        for index in range(SPINE_DEPTH - 1, -1, -1):
            body = cc.Lam(f"x{index}", cc.Nat(), body)
        text = cc.pretty(body)
        assert text.startswith("λ (x0 : Nat). ")

    def test_cccc_deep_pair_tower_pretty(self):
        annot = cccc.Sigma("t", cccc.Nat(), cccc.Nat())
        tower = cccc.Zero()
        for _ in range(SPINE_DEPTH):
            tower = cccc.Pair(tower, cccc.Zero(), annot)
        text = cccc.pretty(tower)
        assert text.startswith("⟨" * SPINE_DEPTH + "0")

    def test_cccc_deep_clo_nest_pretty(self):
        term = cccc.Var("f")
        for _ in range(SPINE_DEPTH):
            term = cccc.Clo(term, cccc.UnitVal())
        text = cccc.pretty(term)
        assert text.startswith("⟨⟨" * 2)

    def test_surface_printer_deep_spine(self):
        from repro.surface.printer import to_surface

        spine = _app_spine(cc, SPINE_DEPTH)
        assert to_surface(spine).startswith("x y")

    def test_surface_printer_deep_binders_round_trip_prefix(self):
        from repro.surface.printer import to_surface

        body = cc.Var("x0")
        for index in range(SPINE_DEPTH - 1, -1, -1):
            body = cc.Lam(f"x{index}", cc.Nat(), body)
        assert to_surface(body).startswith("\\ (x0 : Nat). ")

    def test_deep_type_error_message_prints(self, empty):
        # An ill-typed program whose error message embeds a ~10k-node-deep
        # subterm: the failure must stay a TypeCheckError, not become a
        # RecursionError inside the pretty printer.
        from repro.common.errors import TypeCheckError

        deep = cc.nat_literal(SPINE_DEPTH)
        term = cc.App(cc.Zero(), deep)
        with pytest.raises(TypeCheckError) as excinfo:
            cc.infer(empty, term)
        assert str(excinfo.value)


#: Every calculus-generic entry point, by the module that binds it from its
#: calculus's kernel descriptor (``LANGUAGE`` or the reduction ``_NBE``).
_BOUND = {
    "ast": (
        "free_vars", "intern", "hashcons", "subterms", "term_size",
        "arrow", "make_app", "app_spine", "nat_literal", "nat_value",
    ),
    "substitution": ("subst", "subst1", "rename", "alpha_equal"),
    "reduce": (
        "whnf", "whnf_subst", "normalize", "normalize_subst", "normalize_counting",
        "head_reducts", "reducts",
    ),
}


class TestOneDefinition:
    """CC and CC-CC bind one definition of each entry point, not twins."""

    @pytest.mark.parametrize(
        "module, name",
        [
            # Test ids keep the short label "subst" for the substitution module.
            pytest.param(module, name, id=f"{module.replace('substitution', 'subst')}-{name}")
            for module, names in _BOUND.items()
            for name in names
        ],
    )
    def test_entry_point_is_defined_once(self, module, name):
        source = getattr(importlib.import_module(f"repro.cc.{module}"), name)
        target = getattr(importlib.import_module(f"repro.cccc.{module}"), name)
        assert source.__func__ is target.__func__
        owner = cc.reduce._NBE if module == "reduce" else cc.ast.LANGUAGE
        assert source.__self__ is owner

    @pytest.mark.parametrize("package", [cc, cccc])
    def test_submodules_are_not_shadowed(self, package):
        # Each module of _BOUND is the package attribute of the same name,
        # while ``subst`` on the package stays the substitution function.
        for module in _BOUND:
            path = f"{package.__name__}.{module}"
            assert getattr(package, module) is importlib.import_module(path)
        assert package.subst is package.substitution.subst
        assert package.subst.__func__ is package.ast.LANGUAGE.subst.__func__

    def test_by_name_maps_every_registered_class(self):
        for lang in (cc.ast.LANGUAGE, cccc.ast.LANGUAGE):
            assert lang.by_name == {cls.__name__: cls for cls in lang.specs}
