"""A warm job is ingested and rendered once.

A session's executor keeps two tables beside the compile memo: the ingest
memo (a job's wire source -> its interned term) and the
payload-text memo (an interned term -> its printed text and wire
encoding).  A warm job therefore reaches neither the lexer, the parser,
the decoder, the printer nor the encoder, and its payload is the cold
one byte for byte.  Every ``KernelState.dict_cache`` table is bounded,
and a dropped session's caches die by reference counting.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import sys
from pathlib import Path

import pytest

from repro import api, cc, cccc, surface
from repro.common import deep, render
from repro.gen.jobs import binary_specs, job_corpus
from repro.kernel import state as kernel_state
from repro.service import executor
from repro.service.executor import INGESTED
from repro.surface import lexer, parser
from repro.wire import codec

ROOT = Path(__file__).resolve().parent.parent
SOURCE = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"
KINDS = ("parse", "check", "normalize", "compile", "run", "compile_py")

#: The session tables of the warm path, as ``cache_stats()`` names them.
TABLES = (INGESTED, api.PAYLOAD_TEXT)


def _wires(kind: str, program: str = SOURCE) -> dict[str, dict]:
    """One job of ``kind`` as wire-1 text, wire-2 text and a wire-2 buffer."""
    text = {"id": kind, "kind": kind, "program": program}
    (binary,) = binary_specs([text])
    return {"text1": text, "text2": {**text, "wire": 2}, "binary": binary}


def _canonical(result) -> str:
    return json.dumps(result.canonical(), ensure_ascii=False)


def _refuse_ingest_and_render(monkeypatch) -> None:
    """Make every lexer, parser, decoder, printer and encoder entry fail."""

    def refuse(name):
        def refused(*_args, **_kwargs):
            raise AssertionError(f"a warm job called {name}")

        return refused

    for owner, name in (
        (lexer, "scan"), (parser, "scan"), (parser, "parse_term"), (parser, "source_size"),
        (surface, "source_size"), (executor, "parse_term"), (codec, "term_from_b64"), (codec, "decode_term"),
        (codec, "term_to_b64"), (cc, "pretty"), (cccc, "pretty"), (render, "render"),
    ):
        monkeypatch.setattr(owner, name, refuse(f"{owner.__name__}.{name}"))


class TestWarmJob:
    """A warm job skips ingest and rendering, and pays back the cold bytes."""

    @pytest.mark.parametrize("wire", ["text1", "text2", "binary"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_payload_is_the_cold_one(self, monkeypatch, kind, wire):
        spec = _wires(kind)[wire]
        session = api.Session()
        cold = session.execute(spec)
        assert cold.ok, cold.error
        _refuse_ingest_and_render(monkeypatch)
        warm = session.execute(spec)
        assert _canonical(warm) == _canonical(cold)
        if wire != "text1" and kind in ("parse", "check", "normalize", "compile"):
            assert "term_b64" in warm.payload

    def test_text_and_binary_share_the_rendering(self, monkeypatch):
        session = api.Session()
        jobs = _wires("check")
        text = session.execute(jobs["text2"])
        # A new wire source is ingested once; its term's payload text and
        # encoding are already in the session.
        for owner, name in ((cc, "pretty"), (codec, "term_to_b64")):
            monkeypatch.setattr(owner, name, None)
        binary = session.execute(jobs["binary"])
        assert _canonical(binary) == _canonical(text)
        assert session.cache_stats()[INGESTED] == 2

    def test_alpha_variants_share_one_canonical_payload(self):
        session = api.Session()
        first = session.execute({"id": "a", "kind": "compile",
                                 "program": r"\ (A : Type) (x : A). x"})
        second = session.execute({"id": "a", "kind": "compile",
                                  "program": r"\ (B : Type) (y : B). y"})
        assert _canonical(first) == _canonical(second)
        assert session.cache_stats()[INGESTED] == 2  # two texts, one term
        assert session.cache_stats()["api.compile_memo"] == 1

    @pytest.mark.parametrize("spec", [
        {"id": "e", "kind": "check", "program": r"(\ (x : Nat). x"},
        {"id": "e", "kind": "check", "program": f"succ {deep.CAP + 1}"},
        {"id": "e", "kind": "check", "term_b64": "AAAA", "wire": 2},
        {"id": "e", "kind": "check", "term_b64": "not base64!", "wire": 2},
    ], ids=["parse-error", "depth-limit", "bad-buffer", "bad-base64"])
    def test_a_failed_ingest_is_never_stored(self, spec):
        session = api.Session()
        results = [session.execute(spec) for _ in range(3)]
        assert not results[0].ok
        assert len({_canonical(result) for result in results}) == 1
        assert session.cache_stats()[INGESTED] == 0

    def test_depth_limit_is_the_documented_error(self):
        result = api.Session().execute(
            {"id": "e", "kind": "check", "program": f"succ {deep.CAP + 1}"})
        assert result.error["type"] == "DepthLimit"

    def test_reset_empties_both_tables(self):
        session = api.Session()
        for spec in _wires("check").values():
            assert session.execute(spec).ok
        stats = session.cache_stats()
        # Two wire sources (text1 and text2 share one), and the term and its type.
        assert stats[INGESTED] == 2 and stats[api.PAYLOAD_TEXT] == 2
        session.reset()
        assert all(session.cache_stats()[name] == 0 for name in TABLES)
        assert session.execute(_wires("check")["text1"]).ok
        assert session.execute({"kind": "reset"}).ok
        assert all(session.cache_stats()[name] == 0 for name in TABLES)


class TestWarmLink:
    """A link job's interface types and import texts go through the ingest
    memo too: a warm link job parses nothing, and its documents, errors
    included, are the cold ones."""

    LINK = {"id": "l", "kind": "link", "program": "succ n",
            "interface": [["n", "Nat"]], "imports": {"n": "41"}}

    def test_warm_link_parses_nothing(self, monkeypatch):
        session = api.Session()
        cold = session.execute(self.LINK)
        assert cold.ok, cold.error
        # The program, the interface type and the import text.
        assert session.cache_stats()[INGESTED] == 3
        _refuse_ingest_and_render(monkeypatch)
        warm = session.execute(self.LINK)
        assert _canonical(warm) == _canonical(cold)

    @pytest.mark.parametrize("field, bad, stored", [
        ("interface", [["n", "Nat ->"]], 1),
        ("imports", {"n": "(succ"}, 2),
        ("imports", {"n": "true"}, 3),
    ], ids=["interface-parse-error", "import-parse-error", "ill-typed-import"])
    def test_link_errors_repeat_and_store_no_failed_parse(self, field, bad, stored):
        spec = {**self.LINK, field: bad}
        session = api.Session()
        results = [session.execute(spec) for _ in range(3)]
        assert not results[0].ok
        assert len({_canonical(result) for result in results}) == 1
        assert _canonical(results[0]) == _canonical(api.Session().execute(spec))
        # The program and every text parsed before the failure; never a failed one.
        assert session.cache_stats()[INGESTED] == stored


class TestDictCacheBound:
    """Every ``dict_cache`` table is emptied at ``DICT_CACHE_ENTRIES``."""

    NAMES = ("api.compile_memo", "backend.compiled", *TABLES)

    @staticmethod
    def _stream() -> list[dict]:
        kinds = ("compile_py", "normalize", "compile", "run")
        specs = job_corpus(3, 12, kinds=kinds)
        mixed = specs + binary_specs(specs)
        return [{**spec, "id": f"j{index}"} for index, spec in enumerate(mixed + mixed)]

    def test_results_survive_emptied_tables(self, monkeypatch):
        stream = self._stream()
        full = api.Session(name="batch")
        unbounded = api.execute_jobs(stream, session=full)
        # Unbounded, every table outgrows the bound below.
        assert all(full.cache_stats()[name] > 2 for name in (*self.NAMES, "closconv.closed"))
        monkeypatch.setattr(kernel_state, "DICT_CACHE_ENTRIES", 2)
        session = api.Session(name="batch")
        bounded = api.execute_jobs(stream, session=session)
        assert bounded.canonical() == unbounded.canonical()
        # ``closconv.closed`` is bounded too, but may pass the bound by the
        # stores of a translation still in progress when it was emptied.
        stats = session.cache_stats()
        assert all(stats[name] <= 2 for name in self.NAMES), stats

    def test_text_tables_are_bounded_in_characters(self, monkeypatch):
        stream = self._stream()
        full = api.Session(name="batch")
        unbounded = api.execute_jobs(stream, session=full)
        assert all(full.cache_stats()[name] > 1 for name in TABLES)
        monkeypatch.setattr(kernel_state, "DICT_CACHE_CHARS", 1)
        session = api.Session(name="batch")
        bounded = api.execute_jobs(stream, session=session)
        assert bounded.canonical() == unbounded.canonical()
        # Each fetch after a stored text empties the table: the last store is left.
        stats = session.cache_stats()
        assert all(stats[name] <= 1 for name in TABLES), stats


class TestDroppedSessionCycles:
    """A dropped session's term caches need no cyclic collection."""

    def test_no_term_cache_callback_is_cyclic_garbage(self):
        gc.collect()
        saved = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            session = api.Session(name="batch")
            specs = job_corpus(2, 8, kinds=("check", "compile", "run", "compile_py"))
            assert api.execute_jobs(specs + binary_specs(specs), session=session).ok
            del session
            gc.collect()
            leaked = [
                item for item in gc.garbage
                if getattr(item, "__qualname__", "").startswith("TermCache")
                or type(item).__name__ == "TermCache"
            ]
        finally:
            gc.set_debug(saved)
            gc.garbage.clear()
        assert leaked == []


def _pool_corpus(seed: int) -> list[dict]:
    """perfbench's mixed-kind pool corpus (``perfbench/inputs.pool_corpus``)."""
    bench = str(ROOT / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import inputs

    return inputs.pool_corpus(seed)


#: Calls into ``repro`` functions per job kind and wire on the second pass
#: of ``pool_corpus(1)`` through one session's ``execute_jobs``, per
#: interpreter version they were measured on.  On any other version only
#: the zero calls into the ingest and render modules are asserted.
WARM_CALLS = {
    (3, 11): {
        "check/w1": 222,
        "check/w2": 296,
        "compile/w1": 579,
        "compile/w2": 429,
        "compile_py/w1": 1226,
        "compile_py/w2": 2011,
        "normalize/w1": 582,
        "normalize/w2": 182,
        "run/w1": 1393,
        "run/w2": 3025,
    },
}

#: Comprehensions, which CPython 3.12 runs inline (PEP 709): not counted.
INLINED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))

#: The modules a warm job never enters: lexer, parser, printers and codec.
INGEST_AND_RENDER = ("surface/lexer.py", "surface/parser.py", "surface/printer.py",
                     "common/render.py", "cc/pretty.py", "cccc/pretty.py", "wire/codec.py")


class TestWarmWorkCounter:
    """An exact count of the work of a warm pass: code cost, not host placement."""

    def test_warm_pass_calls(self):
        source = os.path.dirname(api.__file__) + os.sep
        specs = _pool_corpus(1)
        session = api.Session(name="batch")
        for index, spec in enumerate(specs):
            assert api.execute_jobs([{**spec, "id": f"c{index}"}], session=session).ok
        by_kind: collections.Counter = collections.Counter()
        by_module: collections.Counter = collections.Counter()
        current = [""]

        def count(frame, event, _arg):
            code = frame.f_code
            if (event == "call" and code.co_filename.startswith(source)
                    and code.co_name not in INLINED):
                by_kind[current[0]] += 1
                by_module[code.co_filename[len(source):].replace(os.sep, "/")] += 1

        gc.collect()
        enabled = gc.isenabled()
        gc.disable()  # a collection's callbacks would land in some job's count
        try:
            for index, spec in enumerate(specs):
                current[0] = f"{spec['kind']}/w{spec.get('wire', 1)}"
                sys.setprofile(count)
                try:
                    report = api.execute_jobs([{**spec, "id": f"w{index}"}], session=session)
                finally:
                    sys.setprofile(None)
                assert report.ok
        finally:
            if enabled:
                gc.enable()
        assert {module: by_module[module] for module in INGEST_AND_RENDER} == dict.fromkeys(
            INGEST_AND_RENDER, 0)
        pinned = WARM_CALLS.get(sys.version_info[:2])
        if pinned is not None:
            assert dict(by_kind) == pinned
