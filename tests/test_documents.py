"""Every result document, pinned byte for byte.

Two renderings of one result exist: the deterministic ``payload`` (or
``error``) of a service job, rendered α-canonically, and a ``Session``
result's ``to_dict()``, which keeps the program's source spelling and adds
telemetry.  This file pins both:

* a fixed job stream runs solo through ``api.execute_jobs(workers=0)`` on
  wire 1 (surface text) and wire 2 (binary DAG terms), and the sha256 of
  each result's ``canonical()`` JSON must match a committed digest.  JSON
  keys are not sorted, so key order is pinned too;
* one program per ``Session`` entrypoint: the key set of its ``to_dict()``
  and every value other than the ``session`` name and ``cache_hits``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import api, cc
from repro.gen.jobs import binary_specs, job_corpus

REDEX = r"(\ (x : Nat). succ x) 41"
IDENTITY = r"\ (A : Type) (x : A). x"
#: Checking it takes one step: the binder's type is a redex.
TYPE_REDEX = r"(\ (b : (\ (T : Type). T) Nat). succ b) 3"


def _stream() -> list[dict]:
    """The pinned job stream: a generated corpus, links, errors, service kinds."""
    kinds = ("parse", "check", "normalize", "compile", "run", "compile_py")
    specs = [
        {**spec, "id": f"g{index}"}
        for index, spec in enumerate(job_corpus(1, 14, kinds=kinds))
    ]
    specs += [
        {"id": "link-ok", "kind": "link", "program": "succ n",
         "interface": [["n", "Nat"]], "imports": {"n": "41"}},
        {"id": "link-bad", "kind": "link", "program": "succ n",
         "interface": [["n", "Nat"]], "imports": {"n": "true"}},
        {"id": "ill-typed", "kind": "check", "program": "0 0"},
        {"id": "no-fuel", "kind": "compile", "program": TYPE_REDEX, "fuel": 0},
        {"id": "reset", "kind": "reset"},
        {"id": "stats", "kind": "stats"},
        {"id": "sleep", "kind": "sleep", "seconds": 0},
    ]
    return specs


def _wire(wire: int) -> list[dict]:
    specs = _stream()
    if wire == 2:
        specs = binary_specs(specs)
    # A parse error has no binary form: it travels as text on either wire.
    return specs + [{"id": "parse-error", "kind": "check", "program": "((", "wire": wire}]


def _digests(wire: int) -> dict[str, str]:
    report = api.execute_jobs(_wire(wire), workers=0)
    return {
        result.id: hashlib.sha256(json.dumps(result.canonical()).encode()).hexdigest()
        for result in report.results
    }


PINNED = {
    1: {
        "g0": "b14834938e039606b6cb4d127ca181c4496e01c0f69ccf5dadacbf337be93a3f",
        "g1": "3ead940dbecc35b68b57ed246e8fe74ca40c69a7c696cf5bd67f8e8bc4cba623",
        "g2": "c03a4aea3acd689ef9bdf2305db1b6cd0f7b02a6285c6becd3dbcc6e3dbdfc76",
        "g3": "0a7cc21013a23dc1216f60ae007c1b6807f20f42cf2b645710bf8899216b118b",
        "g4": "9f0c531d8ea4573e09b8bc91832219f650b24d000cc4ba2d565247e801e17163",
        "g5": "a1bb69f1a0d84442999a306e41fac1de2a57ae668519c1bac0ce4fab07d6feb3",
        "g6": "e29f30f01d6a9f7eda706a5a2c61c6767585432b99c275283f316fc91f83acaa",
        "g7": "69fcf705f162cb82e98dabb8e84703424543d2f99a0d3b697df4cc4b053837e5",
        "g8": "5f241e4dd2237e0b5a6c88277277e4dd4c4bd8260c0f86337a9d371560f0502c",
        "g9": "f8b9a0cebecaddcb427ff4f0be28aa8aa1ae3a68ae09248d867dad0390d6ff30",
        "g10": "e2aba814527f08f64daf5afca24981aef8151c6425b6abc616f97ec66a3e0d69",
        "g11": "965afcb1a2b4364fa620267e4eeb1c9038d6e62f480217d9d3d823c60914fc8b",
        "g12": "91b8f72b6c5a43a945d875ded61259eac20ce1793cbcc1aca3b4ab95f8aa07f7",
        "g13": "d83294f1447dc9e468e1457b563adfb805262f9532f012c2c2cb7dca2c64c752",
        "link-ok": "4a5f667ca85fd1c78d847d141099e312c3a2906cbb50f5ab0af776c1a2e61086",
        "link-bad": "d4113b6efade9fe46542fb733815af6242908c5290f0cefbdd6c37c86dbd5621",
        "ill-typed": "4cc4b9159400bd194364716b82317070e108447ee5ae2c6cfcdfc04cf9355ec1",
        "no-fuel": "7ab1056425e3dc43cd8d004559d50f947ba257f06b8afb0512c80c3bdbfa5e63",
        "reset": "981c068a202e928159f4e9cb303e1db172e8b381fc89f745a9e057fe74370165",
        "stats": "683bd4dfe980c70c1d099ad646b47b37b7fbd17c5ba1c791fa99608c88e19cfe",
        "sleep": "8d7495bb383206466312d2b191196d301df602f3071cfc50a783b2cbccd0fd16",
        "parse-error": "b47694c5a2af0e08ae5364464dc51450b310b7d81b9f21fc1bc71a376e17a71e",
    },
    2: {
        "g0": "43ec6f7f2ea437a6f8450ea56e7301190a9cd13529fb1513dcd379fa60046dd3",
        "g1": "965d041558457397e00e28f193cb8b08c47d3a6a578c2b315dd448e6025456ba",
        "g2": "634c568c3cdeeff142298ffb9ac532be7f7fc99ffb42cb6dfb43c1c27390d2a5",
        "g3": "936f3b4caf9b8f50d37b239f96a77d0503e10cdb697fe544c244f5ef57d4d156",
        "g4": "9f0c531d8ea4573e09b8bc91832219f650b24d000cc4ba2d565247e801e17163",
        "g5": "a1bb69f1a0d84442999a306e41fac1de2a57ae668519c1bac0ce4fab07d6feb3",
        "g6": "482cc6f512e7a3f494fe2898485cb01e2108f0132991a4922f2929228214e4d6",
        "g7": "fe0f3ada3c655629b08066d55c7eebd54137d67df6facfce206783f58308e387",
        "g8": "adeec91d51c9a7f3e5ddc3532f1cc26e00edae0e9ee6108e4ac63dd2f980bca9",
        "g9": "f3b8fb1b94ee454eff76177af7df1bc65db3ea018f9f28afd23555d711762b8f",
        "g10": "e2aba814527f08f64daf5afca24981aef8151c6425b6abc616f97ec66a3e0d69",
        "g11": "965afcb1a2b4364fa620267e4eeb1c9038d6e62f480217d9d3d823c60914fc8b",
        "g12": "6a46f3ce649eb2da8b37d41b2fce23eb6fb32501362af8383be46d2b807e19b3",
        "g13": "225f8e957f9926bbc6af818bbf3581b90372ae4760ac1d41f9c17593fa350403",
        "link-ok": "c1118c94c252e54e4491fa27962465ff37fd87c66631413e443a6c43f8fbd85d",
        "link-bad": "d4113b6efade9fe46542fb733815af6242908c5290f0cefbdd6c37c86dbd5621",
        "ill-typed": "4cc4b9159400bd194364716b82317070e108447ee5ae2c6cfcdfc04cf9355ec1",
        "no-fuel": "7ab1056425e3dc43cd8d004559d50f947ba257f06b8afb0512c80c3bdbfa5e63",
        "reset": "981c068a202e928159f4e9cb303e1db172e8b381fc89f745a9e057fe74370165",
        "stats": "683bd4dfe980c70c1d099ad646b47b37b7fbd17c5ba1c791fa99608c88e19cfe",
        "sleep": "8d7495bb383206466312d2b191196d301df602f3071cfc50a783b2cbccd0fd16",
        "parse-error": "b47694c5a2af0e08ae5364464dc51450b310b7d81b9f21fc1bc71a376e17a71e",
    },
}


@pytest.mark.parametrize("wire", [1, 2])
def test_job_documents_are_pinned(wire):
    assert _digests(wire) == PINNED[wire]


def test_the_stream_covers_every_outcome():
    documents = {result.id: result for result in api.execute_jobs(_wire(1)).results}
    assert {spec["kind"] for spec in _stream()} >= {
        "parse", "check", "normalize", "compile", "run", "compile_py", "link",
        "reset", "stats", "sleep",
    }
    errors = {job: documents[job].error["type"] for job in documents if not documents[job].ok}
    assert errors == {
        "link-bad": "LinkError",
        "ill-typed": "TypeCheckError",
        "no-fuel": "NormalizationDepthExceeded",
        "parse-error": "ParseError",
    }


#: Keys whose values vary with the session, not with the program.
_UNPINNED = ("session", "cache_hits")


def _documents() -> dict[str, dict]:
    session = api.Session()
    ctx = cc.Context.empty().extend("n", cc.Nat())
    results = {
        "parse": session.parse(IDENTITY),
        "check": session.check(IDENTITY),
        "normalize": session.normalize(REDEX),
        "compile": session.compile(r"\ (x : Nat). x"),
        "run": session.run(REDEX),
        "run-compiled": session.run(r"(\ (f : Nat -> Nat). f 1) (\ (y : Nat). succ y)",
                                    engine="compiled"),
        "link": session.link(ctx, "succ n", {"n": "41"}),
    }
    return {name: result.to_dict() for name, result in results.items()}


TO_DICT = {
    "parse": {
        "term": 'λ (A : ⋆). λ (x : A). x',
        "session": ...,
    },
    "check": {
        "term": 'λ (A : ⋆). λ (x : A). x',
        "type": 'Π (A : ⋆). A -> A',
        "steps": 0,
        "engine": 'nbe',
        "session": ...,
        "cache_hits": ...,
        "diagnostics": [],
    },
    "normalize": {
        "term": '(λ (x : Nat). succ x) 41',
        "normal": '42',
        "type": 'Nat',
        "steps": 1,
        "check_steps": 0,
        "engine": 'nbe',
        "session": ...,
        "cache_hits": ...,
        "diagnostics": [],
    },
    "compile": {
        "term": 'λ (x : Nat). x',
        "type": 'Nat -> Nat',
        "target": '⟨⟨λ (n$1 : 1, x : Nat). x, ⟨⟩⟩⟩',
        "target_type": 'Nat -> Nat',
        "verified": True,
        "steps": 0,
        "check_steps": 0,
        "verify_steps": 0,
        "engine": 'nbe',
        "session": ...,
        "cache_hits": ...,
        "diagnostics": ['target re-checked against the translated type (Theorem 5.6)'],
    },
    "run": {
        "term": '(λ (x : Nat). succ x) 41',
        "value": 42,
        "code_blocks": 1,
        "machine_steps": 49,
        "closure_allocs": 1,
        "tuple_allocs": 0,
        "projections": 0,
        "env_allocs": 1,
        "max_env_size": 2,
        "steps": 0,
        "check_steps": 0,
        "verify_steps": 0,
        "verified": True,
        "engine": 'nbe',
        "backend": 'machine',
        "session": ...,
        "cache_hits": ...,
        "diagnostics": ['target re-checked against the translated type (Theorem 5.6)'],
    },
    "run-compiled": {
        "term": '(λ ($cv0 : Nat -> Nat). $cv0 1) (λ ($cv0 : Nat). succ $cv0)',
        "value": 2,
        "code_blocks": 2,
        "machine_steps": 15,
        "closure_allocs": 2,
        "tuple_allocs": 0,
        "projections": 0,
        "env_allocs": 2,
        "max_env_size": 2,
        "steps": 0,
        "check_steps": 0,
        "verify_steps": 0,
        "verified": True,
        "engine": 'nbe',
        "backend": 'compiled',
        "session": ...,
        "cache_hits": ...,
        "diagnostics": ['compiled 2 code block(s) to host closures (artifact f813300e257023d86c5c27d9066ddfc0)'],
        "artifact": 'f813300e257023d86c5c27d9066ddfc0',
    },
    "link": {
        "term": '42',
        "type": 'Nat',
        "steps": 0,
        "session": ...,
        "cache_hits": ...,
        "diagnostics": ['linked 1 import(s) (Γ ⊢ γ checked)'],
    },
}


@pytest.mark.parametrize("name", sorted(TO_DICT))
def test_session_documents_are_pinned(name):
    document = _documents()[name]
    assert set(document) == set(TO_DICT[name])
    for key, value in TO_DICT[name].items():
        if key not in _UNPINNED:
            assert document[key] == value, key
