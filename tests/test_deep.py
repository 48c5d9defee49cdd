"""The deep-stack runner and the ingest cap (:mod:`repro.common.deep`).

Every public boundary runs its work on the caller's stack first and once
more, on a deep stack, after a ``RecursionError``; text or a binary buffer
above the cap is a ``DepthLimit`` before any work starts.  So a deep
program gets its result on every path — ``Session``, the solo batch, the
pool and the endpoint — with the document a shallow program would get.
The larger sizes (1600 and 5000) run in ``benchmarks/bench_e25_deep.py``.
"""

from __future__ import annotations

import base64
import contextvars
import functools
import sys
import threading

import pytest

from repro import api, cc, obs
from repro.cc import prelude
from repro.common import deep
from repro.common.errors import DepthLimit
from repro.service import ServiceClient, serve_background
from repro.surface import parse_term, to_surface
from repro.wire.codec import term_from_b64


def nested_lambdas(depth: int) -> cc.Term:
    body: cc.Term = cc.Var("x0")
    for index in range(depth - 1, -1, -1):
        body = cc.Lam(f"x{index}", cc.Nat(), body)
    return body


def nat_sum(n: int) -> cc.Term:
    return cc.make_app(prelude.nat_add, cc.nat_literal(n), cc.nat_literal(n))


def pair_tower(depth: int) -> cc.Term:
    annot: cc.Term = cc.Nat()
    term: cc.Term = cc.nat_literal(depth)
    for index in range(depth - 1, 0, -1):
        annot = cc.Sigma(f"t{index}", cc.Nat(), annot)
        term = cc.Pair(cc.nat_literal(index), term, annot)
    for _ in range(depth - 1):
        term = cc.Snd(term)
    return term


def bool_flip_tower(m: int) -> cc.Term:
    negate = cc.Lam("b", cc.Bool(), cc.If(cc.Var("b"), cc.BoolLit(False), cc.BoolLit(True)))
    return cc.make_app(prelude.church_nat(m), cc.Pi("_", cc.Bool(), cc.Bool()),
                       prelude.twice(cc.Bool()), negate, cc.BoolLit(False))


def _recurse(depth: int) -> int:
    return 0 if depth == 0 else 1 + _recurse(depth - 1)


@pytest.fixture
def retries(monkeypatch):
    """The limits of the deep-stack threads started in this process."""
    started: list[int] = []
    original = deep._on_deep_stack

    def counted(thunk, needed):
        if not getattr(deep._THREAD, "deep", False):
            started.append(needed)
        return original(thunk, needed)

    monkeypatch.setattr(deep, "_on_deep_stack", counted)
    return started


class TestRunner:
    def test_a_shallow_call_stays_on_the_callers_stack(self, retries):
        here = threading.current_thread().name
        assert deep.call(lambda: threading.current_thread().name, lambda: 1) == here
        assert api.Session().run(r"(\ (x : Nat). succ x) 41").observation == 42
        assert retries == []

    def test_a_deep_call_runs_once_more_on_the_deep_stack(self, retries):
        probe = contextvars.ContextVar("probe")
        probe.set("caller")
        attempts, rewinds = [], []

        def thunk():
            attempts.append(threading.current_thread().name)
            return _recurse(20_000), probe.get()

        result = deep.call(thunk, lambda: 20_000, lambda: rewinds.append(len(attempts)))
        assert result == (20_000, "caller")
        assert attempts == [threading.current_thread().name, "repro-deep-stack"]
        assert rewinds == [1]
        assert retries == [deep.limit(20_000)]

    def test_the_recursion_limit_is_restored(self):
        before = sys.getrecursionlimit()
        assert deep.call(lambda: _recurse(5_000), lambda: 5_000) == 5_000
        assert sys.getrecursionlimit() == before

    def test_recursion_on_the_deep_stack_is_a_depth_limit(self):
        def forever(depth: int) -> int:
            return forever(depth + 1)

        with pytest.raises(DepthLimit, match=f"recursion limit of {deep.limit(1)}$"):
            deep.call(lambda: forever(0), lambda: 1)

    def test_a_nested_boundary_raises_the_limit_on_the_same_stack(self, retries):
        def outer() -> int:
            return _recurse(2_000) + deep.call(lambda: _recurse(30_000), lambda: 30_000)

        assert deep.call(outer, lambda: 1) == 32_000
        assert retries == [deep.limit(1)]


class TestIngestCap:
    # A numeral n parses to n nested ``succ`` nodes, so it counts n.
    ABOVE = str(deep.CAP)
    MESSAGE = f"input size {deep.CAP + len(str(deep.CAP))} exceeds the cap of {deep.CAP}"

    def test_text_above_the_cap_builds_nothing(self):
        with pytest.raises(DepthLimit, match=self.MESSAGE):
            parse_term(self.ABOVE)
        with pytest.raises(DepthLimit, match=self.MESSAGE):
            api.Session().check(self.ABOVE)

    def test_a_buffer_above_the_cap(self):
        text = base64.b64encode(bytes(deep.CAP + 1)).decode("ascii")
        with pytest.raises(DepthLimit, match=f"input size {deep.CAP + 1} exceeds"):
            term_from_b64(cc.ast.LANGUAGE, text)

    def test_a_job_above_the_cap_is_a_depth_limit_document(self):
        (result,) = api.execute_jobs([{"id": "big", "kind": "run", "program": self.ABOVE}]).results
        assert result.canonical() == {
            "id": "big", "ok": False, "error": {"type": "DepthLimit", "message": self.MESSAGE},
        }


# --------------------------------------------------------------------------
# The depth matrix at n = 400 on the four paths.
# --------------------------------------------------------------------------

KINDS = ("check", "compile", "run", "compile_py")


@functools.cache
def _families() -> dict[str, str]:
    """The texts at n = 400.  nested_lambdas and nat_sum complete; pair_tower's
    text is quadratic in its depth (every pair prints its Σ annotation),
    1.7 MB at 400: above the cap."""
    return {
        "nested_lambdas": to_surface(nested_lambdas(400)),
        "nat_sum": to_surface(nat_sum(400)),
        "pair_tower": to_surface(pair_tower(400)),
    }


def _matrix_jobs() -> list[dict]:
    return [
        {"id": f"{family}/{kind}", "kind": kind, "program": text}
        for family, text in _families().items()
        for kind in KINDS
    ]


def _session_documents(engine: str) -> list[dict]:
    """The canonical documents of the jobs' ``Session`` calls, made directly."""
    documents = []
    for job in _matrix_jobs():
        session = api.Session(engine=engine)
        method = "run" if job["kind"] == "compile_py" else job["kind"]
        options = {"engine": "compiled"} if job["kind"] == "compile_py" else {}
        try:
            result = getattr(session, method)(job["program"], **options)
        except DepthLimit as error:
            documents.append({"id": job["id"], "ok": False,
                              "error": {"type": "DepthLimit", "message": str(error)}})
            continue
        with session.activate():
            payload = result.payload()
        if job["kind"] == "compile_py":
            payload["artifact"] = result.artifact
        documents.append({"id": job["id"], "ok": True, "payload": payload})
    return documents


@pytest.fixture(scope="module", params=["nbe", "subst"])
def solo(request):
    """The solo batch's canonical documents, per session engine."""
    report = api.execute_jobs(_matrix_jobs(), workers=0, engine=request.param)
    return request.param, report.canonical()


class TestDepthMatrix:
    def test_solo_batch_results(self, solo):
        _, documents = solo
        outcome = {doc["id"]: doc["ok"] or doc["error"]["type"] for doc in documents}
        for family in _families():
            expected = "DepthLimit" if family == "pair_tower" else True
            assert {outcome[f"{family}/{kind}"] for kind in KINDS} == {expected}, family

    def test_session_calls_match_the_solo_batch(self, solo, retries):
        engine, documents = solo
        assert _session_documents(engine) == documents
        assert retries  # the deep programs did leave the caller's stack

    def test_pool_matches_the_solo_batch(self, solo):
        engine, documents = solo
        report = api.execute_jobs(_matrix_jobs(), workers=2, engine=engine)
        assert report.canonical() == documents

    def test_endpoint_matches_the_solo_batch(self, solo):
        engine, documents = solo
        with serve_background(min_workers=1, engine=engine) as server:
            with ServiceClient(server.host, server.port) as client:
                served = client.run_batch(_matrix_jobs())
        assert [{k: v for k, v in doc.items() if k != "meta"} for doc in served] == documents


class TestSubstitutionOracle:
    """``normalize(engine="subst")`` let a ``RecursionError`` escape on
    ``exec_heavy`` programs from ``bool_flip_tower(9)`` and ``nat_sum(180)``
    up; each now gets a result or a ``DepthLimit``, the same solo and batch."""

    @pytest.mark.parametrize("term, normal", [
        (nat_sum(180), "360"), (bool_flip_tower(11), "false"), (bool_flip_tower(12), None),
    ], ids=["nat_sum(180)", "bool_flip_tower(11)", "bool_flip_tower(12)"])
    def test_normalization_is_total(self, term, normal):
        text = to_surface(term)
        (result,) = api.execute_jobs([{"kind": "normalize", "program": text, "engine": "subst"}]).results
        try:
            direct = api.Session().normalize(text, engine="subst")
        except DepthLimit as error:
            assert normal is None  # deeper than 4·size + 10,000 frames
            assert result.error == {"type": "DepthLimit", "message": str(error)}
        else:
            assert result.ok and result.payload["normal"] == cc.pretty(direct.value) == normal


class TestRetryIsOneRun:
    """A retried call reports the result, fuel, trace and profile of one run."""

    TEXT = to_surface(nested_lambdas(400))

    def _on_deep_stack(self, thunk):
        return deep._on_deep_stack(thunk, deep.limit(len(self.TEXT)))

    def test_result_and_fuel(self, retries):
        def documents():
            session = api.Session()
            compiled = session.compile(self.TEXT)
            ran = session.run(self.TEXT, engine="compiled")
            with session.activate():
                return compiled.payload(), ran.payload(), ran.check_steps, ran.verify_steps

        retried = documents()
        assert retries
        assert retried == self._on_deep_stack(documents)

    def test_profile_phases(self, retries):
        def phases():
            with obs.activate() as profile:
                api.Session().run(self.TEXT)
            return profile.phases, profile.labels

        retried = phases()
        assert retries
        assert retried == self._on_deep_stack(phases)

    def test_trace_events(self, retries):
        job = {"id": "t", "kind": "run", "program": self.TEXT, "trace": True}
        (retried,) = api.execute_jobs([job]).results
        assert retries
        (once,) = self._on_deep_stack(lambda: api.execute_jobs([job]).results)
        assert retried.canonical() == once.canonical()
        assert retried.meta["trace"]["events"] == once.meta["trace"]["events"]
