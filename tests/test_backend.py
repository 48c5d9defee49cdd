"""Differential tests for the compile-to-host backend.

The backend's whole correctness story is *agreement with the machine
oracle*: for every program, the staged Python closures must produce the
same value (α-canonical egress), the same error documents, and the same
cost counters as ``machine/machine.py`` — which stays verbatim as the
oracle.  These tests enforce that contract over the shared theorem-test
corpus, generated service workloads, the error paths, and the artifact
cache (round trips, corruption, warm-equals-cold across sessions and
across a shared worker pool).
"""

import pytest

from repro import api, cc, cccc
from repro.backend import (
    ArtifactMeta,
    artifact_key,
    compile_program,
    decode_artifact,
    encode_artifact,
    load_artifact,
    store_artifact,
    validate_backend,
)
from repro.cc import prelude
from repro.closconv import compile_term
from repro.common.errors import WireDecodeError
from repro.gen.jobs import close_over, job_corpus
from repro.machine import MachineError, MachineStats, hoist, machine_observation, run
from repro.surface import parse_term, to_surface
from tests.corpus import (
    CLOSED_GROUND_PROGRAMS,
    CORPUS,
    closed_ground_ids,
    corpus_ids,
)

_STAT_FIELDS = (
    "steps",
    "closure_allocs",
    "tuple_allocs",
    "projections",
    "code_lookups",
    "max_frame_size",
    "env_allocs",
    "max_env_size",
)


def _stats_dict(stats) -> dict:
    return {name: getattr(stats, name) for name in _STAT_FIELDS}


def _compile_closed(term: cc.Term):
    """Closed CC term → hoisted machine program (no verification)."""
    return hoist(compile_term(cc.Context.empty(), term, verify=False).target)


def _differential(program) -> None:
    """Machine and backend agree on value, counters, and errors."""
    compiled = compile_program(program)
    try:
        machine_value, machine_stats = run(program)
    except MachineError as failure:
        with pytest.raises(MachineError) as caught:
            compiled.execute()
        assert str(caught.value) == str(failure)
        return
    value, stats = compiled.execute()
    assert value == machine_value
    assert machine_observation(value) == machine_observation(machine_value)
    assert _stats_dict(stats) == _stats_dict(machine_stats)
    assert stats == machine_stats


class TestCorpusDifferential:
    @pytest.mark.parametrize("name,ctx,term", CORPUS, ids=corpus_ids())
    def test_corpus_entry(self, name, ctx, term):
        # Open entries are closed over their contexts so the whole corpus
        # runs; the redexes survive the close-over intact.
        closed = close_over(ctx, term)
        cc.infer(cc.Context.empty(), closed)
        _differential(_compile_closed(closed))

    @pytest.mark.parametrize(
        "name,term,expected", CLOSED_GROUND_PROGRAMS, ids=closed_ground_ids()
    )
    def test_ground_observations(self, name, term, expected):
        program = _compile_closed(term)
        value, _stats = compile_program(program).execute()
        assert machine_observation(value) == expected

    def test_separately_compiled_runs_are_structurally_equal(self):
        # Two independent compile_program calls over the same program
        # share the machine's frozen value classes, so results compare
        # structurally across compilations.
        program = _compile_closed(close_over(*CORPUS[0][1:]))
        left, left_stats = compile_program(program).execute()
        right, right_stats = compile_program(program).execute()
        assert left == right
        assert _stats_dict(left_stats) == _stats_dict(right_stats)

    def test_deep_program_runs_off_the_default_stack(self):
        # A succ-tower too deep for the caller's stack: both executors
        # retry on the deep-stack runner.  Built
        # directly at the hoisted level (the surface pipeline has its own
        # deep-program handling; this targets the executors).
        from repro.machine.hoist import Program

        deep: cccc.Term = cccc.Zero()
        for _ in range(3_000):
            deep = cccc.Succ(deep)
        _differential(Program({}, deep))


class TestSessionBackend:
    def test_run_engine_compiled(self):
        session = api.Session()
        result = session.run(r"(\ (x : Nat). succ x) 41", engine="compiled")
        assert result.observation == 42
        assert result.backend == "compiled"
        assert result.artifact is not None
        assert result.compile_result is not None  # cold: full compile ran

    def test_compiled_matches_machine_document(self):
        source = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"
        machine_doc = api.Session().run(source).to_dict()
        compiled_doc = api.Session().run(source, engine="compiled").to_dict()
        compiled_doc.pop("artifact")
        # "term": the machine document keeps the source spelling while the
        # compiled one is α-canonical (so warm artifact hits — which never
        # see the original spelling — render identically to cold runs);
        # both spell the same α-class.
        session = api.Session()
        with session.activate():
            from repro.surface import parse_term

            assert cc.pretty(cc.intern(parse_term(source))) == compiled_doc.pop("term")
            machine_doc.pop("term")
        skip = {"backend", "session", "cache_hits", "diagnostics"}
        assert {k: v for k, v in machine_doc.items() if k not in skip} == {
            k: v for k, v in compiled_doc.items() if k not in skip
        }
        assert machine_doc["backend"] == "machine"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.Session().run("0", engine="turbo")
        with pytest.raises(ValueError, match="unknown backend"):
            validate_backend("turbo")

    def test_warm_session_hit_skips_compile(self):
        session = api.Session()
        source = r"(\ (x : Nat). succ x) 41"
        cold = session.run(source, engine="compiled")
        warm = session.run(source, engine="compiled")
        assert warm.compile_result is None  # in-memory artifact hit
        assert warm.artifact == cold.artifact
        assert warm.to_dict() == cold.to_dict()

    def test_stage_is_the_staging_step_of_a_compiled_run(self):
        session = api.Session()
        source = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"
        staged = session.stage(source)
        ran = session.run(source, engine="compiled")
        assert ran.compile_result is None  # the staged entry was reused
        assert (staged.artifact, staged.code_blocks) == (ran.artifact, ran.code_count)
        assert (staged.check_steps, staged.verify_steps, staged.verified) == (
            ran.check_steps, ran.verify_steps, ran.verified
        )
        assert staged.stored is False and staged.size_bytes > 0
        cold = api.Session().run(source, engine="compiled")
        assert ran.to_dict()["value"] == cold.to_dict()["value"] == 7


class TestErrorParity:
    def test_fuel_exhaustion_documents_match(self):
        # The polymorphic application spends verification fuel, so fuel=0
        # exhausts mid-pipeline on both backends.
        starved = r"(\ (A : Type) (x : A). x) Nat 3"
        jobs = [
            {"id": "m", "kind": "run", "program": starved, "fuel": 0},
            {"id": "c", "kind": "compile_py", "program": starved, "fuel": 0},
        ]
        report = api.execute_jobs(jobs)
        by_id = {result.id: result for result in report.results}
        assert not by_id["m"].ok and not by_id["c"].ok
        assert by_id["m"].error == by_id["c"].error
        assert by_id["m"].error["type"] == "NormalizationDepthExceeded"

    def test_ill_typed_documents_match(self):
        jobs = [
            {"id": "m", "kind": "run", "program": "succ true"},
            {"id": "c", "kind": "compile_py", "program": "succ true"},
        ]
        report = api.execute_jobs(jobs)
        by_id = {result.id: result for result in report.results}
        assert by_id["m"].error == by_id["c"].error
        assert by_id["m"].error["type"] == "TypeCheckError"

    def test_runtime_error_text_matches_machine(self):
        # A hand-built ill-formed machine program errors identically under
        # both executors (the backend stages errors lazily, like the
        # machine raises them lazily).
        from repro.machine.hoist import Program

        program = Program({}, cccc.App(cccc.Zero(), cccc.Zero()))
        with pytest.raises(MachineError) as machine_err:
            run(program)
        with pytest.raises(MachineError) as compiled_err:
            compile_program(program).execute()
        assert str(compiled_err.value) == str(machine_err.value)


class TestArtifacts:
    def _program_and_meta(self):
        program = _compile_closed(close_over(*CORPUS[0][1:]))
        return program, ArtifactMeta(check_steps=7, verify_steps=3, verified=True)

    def test_roundtrip(self):
        program, meta = self._program_and_meta()
        compiled = compile_program(program)
        blob = encode_artifact(compiled.program, meta)
        decoded, decoded_meta = decode_artifact(blob)
        assert decoded_meta == meta
        assert list(decoded.code_table) == list(compiled.program.code_table)
        for label, code in compiled.program.code_table.items():
            assert cccc.alpha_equal(decoded.code_table[label], code)
        assert cccc.alpha_equal(decoded.main, compiled.program.main)
        # Recompiling the decoded program reproduces the content hash.
        assert compile_program(decoded).source_hash == compiled.source_hash

    def test_corruption_rejected(self):
        program, meta = self._program_and_meta()
        pristine = encode_artifact(compile_program(program).program, meta)
        torn = bytearray(pristine)
        torn[len(torn) // 2] ^= 0xFF
        with pytest.raises(WireDecodeError):
            decode_artifact(bytes(torn))
        with pytest.raises(WireDecodeError, match="bad magic"):
            decode_artifact(b"NOPE" + pristine[4:])
        with pytest.raises(WireDecodeError, match="trailing garbage"):
            decode_artifact(pristine + b"\x00")

    def test_key_is_alpha_invariant_and_option_sensitive(self):
        left = cc.intern(cc.Lam("x", cc.Nat(), cc.Var("x")))
        right = cc.intern(cc.Lam("y", cc.Nat(), cc.Var("y")))
        assert artifact_key(left, engine="nbe", verify=True) == artifact_key(
            right, engine="nbe", verify=True
        )
        assert artifact_key(left, engine="nbe", verify=True) != artifact_key(
            left, engine="nbe", verify=False
        )
        assert artifact_key(left, engine="nbe", verify=True) != artifact_key(
            left, engine="subst", verify=True
        )

    def test_torn_persistent_row_is_a_miss(self, tmp_path):
        # A corrupt blob in the artifact table degrades to a miss.
        session = api.Session()
        session.attach_memo_store(str(tmp_path / "store.sqlite"))
        state = session.state
        key = b"k" * 24
        state.persistent.store.put(key, 0, b"garbage-not-an-artifact", "artifact")
        assert load_artifact(state, key) is None
        session.detach_memo_store()

    def test_store_and_load_across_sessions(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        program, meta = self._program_and_meta()
        compiled = compile_program(program)
        key = b"\x07" * 24

        writer = api.Session(name="writer")
        writer.attach_memo_store(path)
        store_artifact(writer.state, key, compiled, meta)
        writer.detach_memo_store()  # flush

        reader = api.Session(name="reader")
        reader.attach_memo_store(path)
        found = load_artifact(reader.state, key)
        assert found is not None
        loaded, loaded_meta = found
        assert loaded_meta == meta
        assert loaded.source_hash == compiled.source_hash
        assert reader.state.persistent.store.counters()["artifact_hits"] == 1
        reader.detach_memo_store()


    @staticmethod
    def _stale_row_is_refilled(tmp_path, monkeypatch, version, text):
        # A row written under an older artifact version holds that version's
        # target and fuel; it must miss, never be returned, and be replaced.
        import repro.backend.artifact as artifact_module
        from repro.wire.persist import store_stat

        path = str(tmp_path / "store.sqlite")
        cold = api.Session().run(text, engine="compiled")
        writer = api.Session(name="writer")
        writer.attach_memo_store(path)
        with writer.activate():
            program = _compile_closed(parse_term(text))
            monkeypatch.setattr(artifact_module, "ARTIFACT_VERSION", version)
            key = artifact_key(cc.intern(parse_term(text)), engine="nbe", verify=True)
            stale = ArtifactMeta(check_steps=cold.check_steps, verify_steps=99, verified=True)
            store_artifact(writer.state, key, compile_program(program), stale)
        writer.detach_memo_store()
        monkeypatch.undo()

        reader = api.Session(name="reader")
        reader.attach_memo_store(path)
        warm = reader.run(text, engine="compiled")
        counters = reader.state.persistent.store.counters()
        reader.detach_memo_store()
        assert warm.to_dict()["value"] == cold.to_dict()["value"]
        assert (warm.check_steps, warm.verify_steps) == (cold.check_steps, cold.verify_steps)
        assert counters["artifact_hits"] == 0 and counters["artifact_writes"] == 1
        assert store_stat(path)["artifact_orphaned"] == 1

    def test_older_version_row_is_a_miss_and_is_refilled(self, tmp_path, monkeypatch):
        text = r"let T = Nat : Type in (\ (x : T). succ x) 41"
        self._stale_row_is_refilled(tmp_path, monkeypatch, 1, text)

    def test_version_2_row_is_a_miss(self, tmp_path, monkeypatch):
        # Version 2 stored the code's full pattern let, one projection per
        # captured entry; its target and verify fuel are not this build's.
        text = r"(\ (A : Type) (x : A). x) Nat 3"
        self._stale_row_is_refilled(tmp_path, monkeypatch, 2, text)


class TestWorkloadDifferential:
    def test_generated_corpus_payloads_match_machine(self):
        # Generated service workloads: the compile_py payload equals the
        # machine run payload modulo the backend-only keys, job for job.
        specs = job_corpus(seed=11, count=6, kinds=("run",))
        runs = [dict(spec, id=f"m{i}") for i, spec in enumerate(specs)]
        compiles = [
            dict(spec, kind="compile_py", id=f"c{i}") for i, spec in enumerate(specs)
        ]
        report = api.execute_jobs(runs + compiles)
        by_id = {result.id: result for result in report.results}
        for index in range(len(specs)):
            machine = by_id[f"m{index}"]
            compiled = by_id[f"c{index}"]
            assert machine.ok and compiled.ok
            left = {k: v for k, v in machine.payload.items() if k != "backend"}
            right = {
                k: v
                for k, v in compiled.payload.items()
                if k not in ("backend", "artifact")
            }
            assert left == right

    def test_pooled_compile_py_matches_solo_with_shared_store(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        specs = [
            dict(spec, kind="compile_py", id=f"j{i}")
            for i, spec in enumerate(job_corpus(seed=3, count=4, kinds=("run",)))
        ] * 2  # repeat: the second pass hits the shared artifact table
        specs = [dict(spec, id=f"{spec['id']}-{n}") for n, spec in enumerate(specs)]
        solo = api.execute_jobs(specs, workers=0, memo_store=path + ".solo")
        pooled = api.execute_jobs(specs, workers=2, memo_store=path + ".pool")
        assert solo.canonical() == pooled.canonical()
        assert all(result.ok for result in solo.results)


class TestHoistInvariant:
    def test_nested_code_references_only_earlier_labels(self):
        # Nested closures hoist innermost-first; the __debug__ guard in
        # hoist() would raise if a block referenced a later label.
        term = cc.Lam(
            "x", cc.Nat(), cc.Lam("y", cc.Nat(), cc.Lam("z", cc.Nat(), cc.Var("x")))
        )
        program = _compile_closed(term)
        earlier: set = set()
        for label, code in program.code_table.items():
            assert cccc.free_vars(code) <= earlier
            earlier.add(label)

    def test_violation_detected(self):
        import importlib

        # ``repro.machine`` re-exports the hoist *function* under the
        # submodule's name, so fetch the module itself.
        hoist_module = importlib.import_module("repro.machine.hoist")

        # Forge a table whose first entry references a label allocated later.
        bad = cccc.CodeLam("env", cccc.Unit(), "arg", cccc.Unit(), cccc.Var("code$1"))
        good = cccc.CodeLam("env", cccc.Unit(), "arg", cccc.Unit(), cccc.Var("arg"))
        with pytest.raises(AssertionError, match="hoist invariant"):
            hoist_module._check_earlier_labels({"code$0": bad, "code$1": good})
        # In order, the same table passes.
        hoist_module._check_earlier_labels({"code$1": good, "code$0": bad})


class TestCompiledStats:
    """Compiled runs report the machine's own ``MachineStats``."""

    def test_counter_mirror_roundtrip(self):
        program = _compile_closed(parse_term("(\\ (x : Nat). succ x) 41"))
        _value, stats = compile_program(program).execute()
        assert isinstance(stats, MachineStats)
        assert stats.env_allocs > 0
        assert stats.max_frame_size == stats.max_env_size > 0
        assert stats == run(program)[1]

    def test_no_envs_means_no_frames(self):
        program = _compile_closed(parse_term("succ 2"))
        _value, stats = compile_program(program).execute()
        assert stats.env_allocs == 0
        assert stats.max_frame_size == 0
        assert stats.steps > 0
        assert stats == run(program)[1]


class TestRunMemo:
    """A warm ``Session.run`` reuses the verified, hoisted program."""

    SOURCE = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"
    STARVED = r"(\ (A : Type) (x : A). x) Nat 3"

    @staticmethod
    def _refuse(monkeypatch, owner, name):
        def refuse(*_args, **_kwargs):
            raise AssertionError(f"a memo hit called {name}")

        monkeypatch.setattr(owner, name, refuse)

    def test_warm_machine_run_skips_compile(self, monkeypatch):
        session = api.Session()
        cold = session.run(self.SOURCE)
        assert cold.compile_result is not None
        self._refuse(monkeypatch, api.Session, "compile")
        # A text key: the hit skips the parser as well.
        self._refuse(monkeypatch, api, "parse_term")
        warm = session.run(self.SOURCE)
        assert warm.compile_result is None
        cold_doc, warm_doc = cold.to_dict(), warm.to_dict()
        cold_doc.pop("cache_hits")
        warm_doc.pop("cache_hits")
        assert warm_doc == cold_doc

    def test_term_input_is_keyed_by_identity(self):
        def build():  # plain constructors: a new object per call
            return cc.App(cc.Lam("x", cc.Nat(), cc.Succ(cc.Var("x"))), cc.nat_literal(41))

        session = api.Session()
        term = build()
        assert session.run(term).compile_result is not None
        assert session.run(term).compile_result is None
        # An equal but distinct object is a different key.
        assert session.run(build()).compile_result is not None
        assert session.cache_stats()["api.compile_memo"] == 2

    @pytest.mark.parametrize("engine", ["machine", "compiled"])
    def test_verify_is_part_of_the_key(self, engine):
        session = api.Session()
        assert session.run(self.SOURCE, engine=engine).verified
        unverified = session.run(self.SOURCE, verify=False, engine=engine)
        assert unverified.compile_result is not None
        assert not unverified.verified and unverified.verify_steps == 0

    def test_compiled_run_stages_from_a_machine_entry(self, monkeypatch):
        session = api.Session()
        machine = session.execute({"kind": "run", "program": self.SOURCE})
        self._refuse(monkeypatch, api.Session, "compile")
        compiled = session.execute({"kind": "compile_py", "program": self.SOURCE})
        assert machine.ok and compiled.ok
        assert {k: v for k, v in machine.payload.items() if k != "backend"} == {
            k: v for k, v in compiled.payload.items() if k not in ("backend", "artifact")
        }
        # The staged program was published to the α-keyed artifact cache.
        assert session.cache_stats()["backend.compiled"] == 1
        again = session.run(self.SOURCE, engine="compiled")
        assert again.compile_result is None
        assert again.artifact == compiled.payload["artifact"]

    def test_starved_warm_session_fails_like_a_cold_one(self):
        starved = [
            {"id": kind, "kind": kind, "program": self.STARVED, "fuel": 0}
            for kind in ("run", "compile_py")
        ]
        cold = api.execute_jobs(starved)
        session = api.Session(name="batch")
        warmup = [{"id": spec["id"], "kind": spec["kind"], "program": self.STARVED}
                  for spec in starved]
        assert api.execute_jobs(warmup, session=session).ok
        assert session.cache_stats()["api.compile_memo"] == 1  # the starved jobs hit it
        warm = api.execute_jobs(starved, session=session)
        assert not any(result.ok for result in cold.results)
        assert [r.canonical() for r in warm.results] == [r.canonical() for r in cold.results]
        assert cold.results[0].error["type"] == "NormalizationDepthExceeded"

    def test_reset_empties_the_memo(self):
        session = api.Session()
        session.run(self.SOURCE)
        session.run(self.SOURCE, engine="compiled")
        assert session.cache_stats()["api.compile_memo"] == 1
        session.reset()
        assert session.cache_stats()["api.compile_memo"] == 0
        assert session.run(self.SOURCE).compile_result is not None

    @pytest.mark.parametrize("engine", ["machine", "compiled"])
    def test_profiled_warm_run_reports_every_phase(self, engine):
        from repro import obs

        session = api.Session()
        session.run(self.SOURCE, engine=engine)
        with obs.activate() as profile:
            result = session.run(self.SOURCE, engine=engine)
        assert result.compile_result is not None
        phases = profile.totals()["phases"]
        for phase in ("typecheck", "closconv", "verify", "hoist", "execute"):
            assert phase in phases, phase
        assert phases["execute"]["weight"] == result.machine_steps

    def test_profiled_run_leaves_the_memo_empty(self):
        from repro import obs

        session = api.Session()
        with obs.activate():
            session.run(self.SOURCE)
        assert session.cache_stats().get("api.compile_memo", 0) == 0
        assert session.run(self.SOURCE).compile_result is not None

    @pytest.mark.parametrize("engine", ["machine", "compiled"])
    def test_open_context_run_compiles_every_time(self, engine):
        session = api.Session()
        ctx = cc.Context.empty().extend("n", cc.Nat())
        for _ in range(2):
            result = session.run(self.SOURCE, ctx=ctx, engine=engine)
            assert result.compile_result is not None
            assert result.observation == 7

    @pytest.mark.parametrize("engine", ["machine", "compiled"])
    def test_alpha_variants_each_give_their_value(self, engine):
        session = api.Session()
        variants = {
            r"(\ (x : Nat) (y : Nat). x) 1 2": 1,
            r"(\ (y : Nat) (x : Nat). y) 1 2": 1,
            r"(\ (x : Nat) (y : Nat). y) 1 2": 2,
            r"(\ (y : Nat) (x : Nat). x) 1 2": 2,
        }
        for _ in range(2):
            for text, expected in variants.items():
                for backend in (engine, "machine", "compiled"):
                    assert session.run(text, engine=backend).observation == expected, (
                        text, backend,
                    )


class TestCompileMemo:
    """A warm ``Session.compile`` returns the session's first compilation."""

    SOURCE = TestRunMemo.SOURCE
    # Spends 0 check and 75 verify fuel, so fuel 74 runs out mid-verify.
    CHURCH_SUM_3 = to_surface(
        cc.make_app(
            prelude.church_add, prelude.church_nat(3), prelude.church_nat(3),
            cc.Nat(), cc.Lam("k", cc.Nat(), cc.Succ(cc.Var("k"))), cc.Zero(),
        )
    )

    @staticmethod
    def _memo_size(session) -> int:
        return session.cache_stats().get("api.compile_memo", 0)

    def test_warm_compile_skips_parse_and_translate(self, monkeypatch):
        session = api.Session()
        cold = session.compile(self.SOURCE)
        TestRunMemo._refuse(monkeypatch, api, "parse_term")
        TestRunMemo._refuse(monkeypatch, api, "compile_term")
        warm = session.compile(self.SOURCE)
        assert warm.compilation is cold.compilation
        cold_doc, warm_doc = cold.to_dict(), warm.to_dict()
        cold_doc.pop("cache_hits")
        warm_doc.pop("cache_hits")
        assert warm_doc == cold_doc

    @pytest.mark.parametrize("fuel", [0, 1, 74])
    def test_starved_warm_compile_fails_like_a_cold_one(self, fuel):
        spec = {"id": "compile", "kind": "compile", "program": self.CHURCH_SUM_3}
        cold = api.execute_jobs([{**spec, "fuel": fuel}])
        session = api.Session(name="batch")
        warmup = api.execute_jobs([spec], session=session)
        assert warmup.ok
        payload = warmup.results[0].payload
        assert (payload["check_steps"], payload["verify_steps"]) == (0, 75)
        warm = api.execute_jobs([{**spec, "fuel": fuel}], session=session)
        assert self._memo_size(session) == 1  # the starved job hit it
        assert not cold.results[0].ok
        assert cold.results[0].error["type"] == "NormalizationDepthExceeded"
        assert [r.canonical() for r in warm.results] == [r.canonical() for r in cold.results]

    def test_verify_is_part_of_the_key(self):
        session = api.Session()
        assert session.compile(self.SOURCE).verified
        unverified = session.compile(self.SOURCE, verify=False)
        assert not unverified.verified and unverified.verify_steps == 0
        assert self._memo_size(session) == 2

    def test_profiled_and_open_context_compiles_bypass_the_memo(self):
        from repro import obs

        session = api.Session()
        with obs.activate():
            session.compile(self.SOURCE)
        ctx = cc.Context.empty().extend("n", cc.Nat())
        opened = [session.compile(self.SOURCE, ctx=ctx).compilation for _ in range(2)]
        assert opened[0] is not opened[1]
        assert self._memo_size(session) == 0
        cold = session.compile(self.SOURCE)
        with obs.activate() as profile:
            profiled = session.compile(self.SOURCE)
        assert profiled.compilation is not cold.compilation
        for phase in ("typecheck", "closconv", "verify"):
            assert phase in profile.totals()["phases"], phase
        assert self._memo_size(session) == 1
        session.reset()
        assert self._memo_size(session) == 0
        assert session.compile(self.SOURCE).compilation is not cold.compilation

    def test_compile_and_run_share_one_entry(self, monkeypatch):
        forward = api.Session()
        compiled = forward.compile(self.SOURCE)
        assert forward.run(self.SOURCE).compile_result is None
        backward = api.Session()
        ran = backward.run(self.SOURCE)
        TestRunMemo._refuse(monkeypatch, api, "compile_term")
        assert backward.compile(self.SOURCE).compilation is ran.compile_result.compilation
        assert forward.run(self.SOURCE, engine="compiled").compile_result is None
        assert forward.compile(self.SOURCE).compilation is compiled.compilation
        assert self._memo_size(forward) == self._memo_size(backward) == 1

    def test_compile_after_an_artifact_hit_compiles_once(self, monkeypatch):
        session = api.Session()
        session.run(self.SOURCE, engine="compiled")
        with session.activate():
            term = parse_term(self.SOURCE)  # a second key for the same α-class
        ran = session.run(term, engine="compiled")
        assert ran.compile_result is None and ran.artifact is not None
        calls = []
        original = api.compile_term

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(api, "compile_term", counting)
        first, second = session.compile(term), session.compile(term)
        assert len(calls) == 1
        assert second.compilation is first.compilation
        assert (first.check_steps, first.verify_steps) == (ran.check_steps, ran.verify_steps)
        assert self._memo_size(session) == 2

    def test_repeated_compiles_keep_the_caches_flat(self):
        program = to_surface(cc.make_app(prelude.nat_add, cc.nat_literal(20), cc.nat_literal(20)))
        session = api.Session()
        session.compile(program)
        entries = sum(session.cache_stats().values())
        for _ in range(40):
            session.compile(program)
        assert sum(session.cache_stats().values()) == entries
