"""The session API: isolation differentials and the workspace entrypoints.

The load-bearing property of :mod:`repro.api` is that a :class:`Session`
is a *unit of isolation*: two sessions running interleaved workloads — on
one thread or on several — must produce results **byte-identical** to each
session running alone.  That covers everything observable: pretty-printed
terms and types (which embed fresh names, so the per-session name counter
is on the hook), reduction step counts (fuel-replay semantics), error
messages, and fuel exhaustion.

The differential here drives one workload per calculus, both fed from
``gen/``: a CC workload (generate → check → normalize on both engines →
deliberate failures) and a CC-CC workload (generate → closure-convert with
Theorem 5.6 verification → normalize the target → run the machine).  Each
workload is a generator yielding one record string per operation, so the
same code runs solo, interleaved operation-by-operation, and on threads.
"""

from __future__ import annotations

import threading

import pytest

from repro import api, cc, cccc
from repro.common.errors import NormalizationDepthExceeded, ReproError, TypeCheckError
from repro.common.names import fresh
from repro.gen.generator import GenConfig, TermGenerator
from repro.kernel.budget import Budget

# --------------------------------------------------------------------------
# Workloads: generators yielding one record string per operation.
# --------------------------------------------------------------------------

_GEN_CONFIG = GenConfig(max_depth=3, context_size=2)


def _church_blowup() -> cc.Term:
    """A term whose normalization overruns a small budget deterministically."""
    from repro.cc import prelude

    two = prelude.church_nat(2)
    total = cc.make_app(prelude.church_add, two, two)
    return cc.make_app(
        total, cc.Nat(), cc.Lam("k", cc.Nat(), cc.Succ(cc.Var("k"))), cc.Zero()
    )


def cc_workload(session: api.Session, seeds=(11, 12, 13)):
    """CC: generate, check, normalize (both engines), fail, exhaust fuel.

    Never yields while a session activation is held: a generator suspended
    inside ``with session.activate():`` would leak the active state into
    whatever its driver runs next (context variables are per-thread, and a
    suspended generator keeps its mutations).  Records are computed under
    the session and yielded outside it.
    """
    for seed in seeds:
        with session.activate():
            triple = TermGenerator(seed, _GEN_CONFIG).well_typed_term()
        if triple is None:  # deterministic per seed, so identical in every run
            yield f"{seed}:no-term"
            continue
        ctx, term, _ = triple
        checked = session.check(term, ctx=ctx)
        yield f"{seed}:check:{cc.pretty(checked.term)} : {cc.pretty(checked.type_)} [{checked.steps}]"
        nbe = session.normalize(term, ctx=ctx, engine="nbe")
        yield f"{seed}:nbe:{cc.pretty(nbe.value)} [{nbe.steps}]"
        subst = session.normalize(term, ctx=ctx, engine="subst")
        yield f"{seed}:subst:{cc.pretty(subst.value)} [{subst.steps}]"
        with session.activate():
            record = f"{seed}:fresh:{fresh('probe')}"
        yield record
    # Failure records: the error text embeds step counts and pretty names.
    try:
        session.check(cc.App(cc.Zero(), cc.Zero()))
    except TypeCheckError as error:
        yield f"ill-typed:{error}"
    with session.activate():
        record = "fuel:none"
        try:
            cc.normalize(cc.Context.empty(), _church_blowup(), Budget(remaining=40))
        except NormalizationDepthExceeded as error:
            record = f"fuel:{error}"
    yield record


def cccc_workload(session: api.Session, seeds=(21, 22)):
    """CC-CC: compile gen/ terms (Theorem 5.6), normalize targets, run."""
    for seed in seeds:
        with session.activate():
            triple = TermGenerator(seed, _GEN_CONFIG).well_typed_term()
        if triple is None:
            yield f"{seed}:no-term"
            continue
        ctx, term, _ = triple
        try:
            compiled = session.compile(term, ctx=ctx, verify=True)
        except ReproError as error:
            yield f"{seed}:compile-error:{error}"
            continue
        yield (
            f"{seed}:compile:{cccc.pretty(compiled.target)} "
            f": {cccc.pretty(compiled.target_type)} [{compiled.steps}]"
        )
        with session.activate():
            normal = cccc.normalize(compiled.compilation.target_context, compiled.target)
            records = [
                f"{seed}:target-nf:{cccc.pretty(normal)}",
                f"{seed}:fresh:{fresh('probe')}",
            ]
        yield from records
    ran = session.run(r"(\ (x : Nat). succ x) 41")
    yield f"run:{ran.observation} [{ran.machine_steps} steps, {ran.code_count} blocks]"


def solo_records(workload) -> list[str]:
    """Run ``workload`` alone in a brand-new session."""
    return list(workload(api.Session()))


def interleaved_records(*workloads) -> list[list[str]]:
    """Alternate operations across fresh sessions, one per workload."""
    iterators = [workload(api.Session()) for workload in workloads]
    records: list[list[str]] = [[] for _ in iterators]
    live = list(range(len(iterators)))
    while live:
        for index in list(live):
            try:
                records[index].append(next(iterators[index]))
            except StopIteration:
                live.remove(index)
    return records


# --------------------------------------------------------------------------
# The isolation differential.
# --------------------------------------------------------------------------


class TestInterleavedIsolation:
    def test_interleaved_sessions_match_solo_runs(self):
        solo_cc = solo_records(cc_workload)
        solo_cccc = solo_records(cccc_workload)
        inter_cc, inter_cccc = interleaved_records(cc_workload, cccc_workload)
        assert inter_cc == solo_cc
        assert inter_cccc == solo_cccc

    def test_two_cc_sessions_with_different_seeds(self):
        first = lambda session: cc_workload(session, seeds=(31, 32))
        second = lambda session: cc_workload(session, seeds=(41, 42))
        solo_first = solo_records(first)
        solo_second = solo_records(second)
        inter_first, inter_second = interleaved_records(first, second)
        assert inter_first == solo_first
        assert inter_second == solo_second

    def test_threaded_sessions_match_solo_runs(self):
        solo_cc = solo_records(cc_workload)
        solo_cccc = solo_records(cccc_workload)
        results: dict[str, list[str]] = {}
        errors: list[BaseException] = []

        def drive(name, workload):
            try:
                results[name] = list(workload(api.Session()))
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drive, args=("cc", cc_workload)),
            threading.Thread(target=drive, args=("cccc", cccc_workload)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results["cc"] == solo_cc
        assert results["cccc"] == solo_cccc

    def test_fresh_names_are_per_session(self):
        one, two = api.Session(), api.Session()
        with one.activate():
            first = [fresh("x") for _ in range(3)]
        with two.activate():
            assert [fresh("x") for _ in range(3)] == first  # same sequence
        with one.activate():
            assert fresh("x") == "x$4"  # continues where session one left off


class TestResetIsolation:
    def test_reset_leaves_sibling_sessions_warm(self):
        left, right = api.Session(), api.Session()
        # One term *object*, so repeat calls can hit the identity-keyed
        # memos (terms are immutable dataclasses, safe to share; the
        # sessions still keep fully separate cache entries for it).
        program = cc.make_app(
            cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x"))), cc.nat_literal(4)
        )
        warm_left = left.normalize(program)
        warm_right = right.normalize(program)
        assert right.cache_stats()["kernel.normalization"] > 0

        right_entries_before = right.cache_stats()
        left.reset()
        # Sibling caches untouched, byte for byte.
        assert right.cache_stats() == right_entries_before
        assert left.cache_stats()["kernel.normalization"] == 0
        assert left.cache_stats()["kernel.judgments"] == 0

        # The sibling still *hits*: same result object, hits counter moves.
        hits_before = right.hit_counts()["kernel.judgments"]
        again = right.normalize(program)
        assert again.value is warm_right.value
        assert right.hit_counts()["kernel.judgments"] > hits_before
        # And the reset session recomputes from cold, reaching equal output.
        cold_left = left.normalize(program)
        assert cc.pretty(cold_left.value) == cc.pretty(warm_left.value)
        assert cold_left.steps == warm_left.steps

    def test_reset_restarts_fresh_counter_locally(self):
        one, two = api.Session(), api.Session()
        with one.activate():
            fresh("a"), fresh("a")
        with two.activate():
            fresh("b")
        one.reset()
        with one.activate():
            assert fresh("a") == "a$1"  # restarted
        with two.activate():
            assert fresh("b") == "b$2"  # sibling counter kept running


# --------------------------------------------------------------------------
# Entrypoint and shim behavior.
# --------------------------------------------------------------------------


class TestSessionEntrypoints:
    def test_check_accepts_text_and_terms(self):
        session = api.Session()
        from_text = session.check(r"\ (x : Nat). x")
        from_term = session.check(cc.Lam("x", cc.Nat(), cc.Var("x")))
        assert cc.pretty(from_text.type_) == cc.pretty(from_term.type_) == "Nat -> Nat"
        assert from_text.engine == "nbe"

    def test_normalize_engines_agree(self):
        session = api.Session()
        program = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 0"
        nbe = session.normalize(program, engine="nbe")
        subst = session.normalize(program, engine="subst")
        assert cc.pretty(nbe.value) == cc.pretty(subst.value) == "2"
        assert nbe.engine == "nbe" and subst.engine == "subst"

    def test_session_engine_default(self):
        session = api.Session(engine="subst")
        result = session.normalize(r"(\ (x : Nat). x) 0")
        assert result.engine == "subst"
        with pytest.raises(ValueError):
            api.Session(engine="machine-of-the-future")
        with pytest.raises(ValueError):
            api.Session().normalize("0", engine="nope")

    def test_compile_verifies_and_reports(self):
        session = api.Session()
        result = session.compile(r"\ (A : Type) (x : A). x")
        assert result.verified
        assert result.steps == result.check_steps + result.verify_steps
        document = result.to_dict()
        assert document["verified"] is True
        assert "⟨⟨" in document["target"]

    def test_run_reaches_machine_value(self):
        session = api.Session()
        result = session.run(r"(\ (A : Type) (x : A). x) Nat 42")
        assert result.observation == 42
        assert result.code_count >= 1
        assert result.machine_steps > 0

    def test_link_checks_imports(self):
        session = api.Session()
        ctx = cc.Context.empty().extend("n", cc.Nat())
        linked = session.link(ctx, "succ n", {"n": "41"})
        assert cc.pretty(linked.term) == "42"
        assert cc.pretty(linked.type_) == "Nat"
        from repro.common.errors import LinkError

        with pytest.raises(LinkError):
            session.link(ctx, "succ n", {})

    def test_parse_result(self):
        session = api.Session()
        parsed = session.parse(r"\ (x : Nat). x")
        assert isinstance(parsed.term, cc.Lam)
        assert parsed.to_dict()["session"] == session.name

    def test_budget_carries_session_fuel(self):
        session = api.Session(fuel=123)
        budget = session.budget()
        assert budget.remaining == 123
        with pytest.raises(NormalizationDepthExceeded):
            api.Session(fuel=3).normalize(_church_blowup())

    def test_default_session_wraps_legacy_state(self):
        # Legacy module calls outside any session land in the default
        # session's caches — the shim story.
        default = api.default_session()
        before = default.cache_stats()["kernel.normalization"]
        term = cc.make_app(
            cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x"))), cc.nat_literal(7)
        )
        cc.normalize(cc.Context.empty(), term)  # no session active
        assert default.cache_stats()["kernel.normalization"] > before

    def test_activate_nests_and_restores(self):
        outer, inner = api.Session(), api.Session()
        with outer.activate():
            first = fresh("n")
            with inner.activate():
                assert fresh("n") == first  # inner session starts at 1 too
            second = fresh("n")
        assert first != second  # outer counter resumed where it left off
