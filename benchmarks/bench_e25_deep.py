"""E25 — deep inputs: every entrypoint is total at depth, on every path.

The deep-stack runner (:mod:`repro.common.deep`) retries a call that
overflows the caller's stack once on a 256 MB stack; text or a binary DAG
buffer above the ingest cap is a ``DepthLimit`` before any work.  The gate
runs ``check``, ``compile``, ``run`` and ``compile_py`` jobs for
``nested_lambdas`` and ``nat_sum`` at n = 1600 (both normalization
engines) and n = 5000 (NbE) on four paths — ``Session`` calls, the solo
batch (``execute_jobs(workers=0)``), a two-worker pool and the endpoint —
and requires:

* every job to succeed (these inputs are below the cap), with no
  ``InternalError`` and no escaped ``RecursionError``;
* the pool's and the endpoint's canonical documents to be byte-identical
  to the solo batch's, and the ``Session`` calls' payloads too.

``pair_tower``'s text grows quadratically with n (every pair prints its
Σ annotation: 27 MB at 1600), so it travels as a binary DAG buffer: at
5000 the buffer is above the cap and every path returns the same
``DepthLimit`` document.  ``pair_tower(1600)``, which completes in minutes,
runs in CI's deep smoke through ``python -m repro batch --workers 2``.
The n = 400 matrix runs in tier-1 (``tests/test_deep.py``).
"""

from __future__ import annotations

import pytest

from repro import api, cc
from repro.common.errors import DepthLimit
from repro.service import ServiceClient, serve_background
from repro.surface import to_surface
from repro.wire.codec import term_to_b64
from workloads import nat_sum, nested_lambdas

KINDS = ("check", "compile", "run", "compile_py")


def _jobs(n: int) -> list[dict]:
    texts = {"nested_lambdas": to_surface(nested_lambdas(n)), "nat_sum": to_surface(nat_sum(n))}
    return [
        {"id": f"{family}({n})/{kind}", "kind": kind, "program": text}
        for family, text in texts.items()
        for kind in KINDS
    ]


def _session_payload(job: dict, engine: str) -> dict:
    session = api.Session(engine=engine)
    if job["kind"] == "compile_py":
        result = session.run(job["program"], engine="compiled")
        extras = {"artifact": result.artifact}
    else:
        result, extras = getattr(session, job["kind"])(job["program"]), {}
    with session.activate():
        return result.payload(**extras)


def _paths(jobs: list[dict], engine: str) -> list[dict]:
    """The solo batch's canonical documents, checked against the other paths."""
    solo = api.execute_jobs(jobs, workers=0, engine=engine).canonical()
    assert [doc["id"] for doc in solo if not doc["ok"]] == [], solo
    pooled = api.execute_jobs(jobs, workers=2, engine=engine).canonical()
    assert pooled == solo
    with serve_background(min_workers=2, engine=engine) as server:
        with ServiceClient(server.host, server.port) as client:
            served = client.run_batch(jobs)
    assert [{k: v for k, v in doc.items() if k != "meta"} for doc in served] == solo
    return solo


@pytest.mark.parametrize("n, engine", [(1600, "nbe"), (1600, "subst"), (5000, "nbe")])
def test_deep_programs_complete_on_every_path(n, engine):
    jobs = _jobs(n)
    solo = _paths(jobs, engine)
    for job, document in zip(jobs, solo):
        assert _session_payload(job, engine) == document["payload"], job["id"]


def _pair_tower(depth: int) -> cc.Term:
    """``benchmarks/workloads.pair_tower`` with its numerals shared.

    The encoding is canonical, so this is the same buffer without building
    ``depth²/2`` separate ``succ`` nodes.
    """
    numerals = [cc.Zero()]
    for _ in range(depth):
        numerals.append(cc.Succ(numerals[-1]))
    annot: cc.Term = cc.Nat()
    term: cc.Term = numerals[depth]
    for index in range(depth - 1, 0, -1):
        annot = cc.Sigma(f"t{index}", cc.Nat(), annot)
        term = cc.Pair(numerals[index], term, annot)
    for _ in range(depth - 1):
        term = cc.Snd(term)
    return term


def test_pair_tower_5000_is_a_depth_limit_on_every_path():
    with api.Session().activate():
        b64 = term_to_b64(cc.ast.LANGUAGE, _pair_tower(5000))
    jobs = [
        {"id": f"pair_tower(5000)/{kind}", "kind": kind, "term_b64": b64, "wire": 2}
        for kind in KINDS
    ]
    solo = api.execute_jobs(jobs, workers=0).canonical()
    assert {doc["error"]["type"] for doc in solo} == {DepthLimit.__name__}
    assert api.execute_jobs(jobs, workers=2).canonical() == solo
    with serve_background(min_workers=1) as server:
        with ServiceClient(server.host, server.port) as client:
            served = client.run_batch(jobs)
    assert [{k: v for k, v in doc.items() if k != "meta"} for doc in served] == solo
