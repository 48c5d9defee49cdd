"""Free variables and content hashes are pure facts of a term.

They are stored on the term, not in a session cache, so one term object —
or one shared DAG — must report the same facts in every session, after a
reset, and under concurrent walks; and sessions fed the same term objects
must produce the same documents whichever of them runs first.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import api, cc
from repro.cc.ast import LANGUAGE
from repro.gen.dag import shared_dag_tower
from repro.wire.codec import content_hash
from tests.corpus import CLOSED_GROUND_PROGRAMS, CORPUS


def _open_dag(depth: int) -> cc.Term:
    """A plain-constructor DAG with free variables: every level uses the
    previous one three times, so its tree is exponential and its DAG linear."""
    term: cc.Term = cc.Var("y0")
    for level in range(depth):
        shared = cc.App(term, cc.Var(f"y{level % 7}"))
        term = cc.Lam(f"y{level % 5}", shared, cc.App(shared, shared))
    return term


def _unique_nodes(root: cc.Term) -> list[cc.Term]:
    """Every distinct node object of ``root``'s DAG, children first."""
    seen: set[int] = set()
    order: list[cc.Term] = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in LANGUAGE.spec(node).children:
            stack.append((getattr(node, child.attr), False))
    return order


def _reference_free_vars(nodes: list[cc.Term]) -> dict[int, frozenset[str]]:
    """Free variables of every node, computed without the kernel."""
    out: dict[int, frozenset[str]] = {}
    for node in nodes:
        if isinstance(node, cc.Var):
            out[id(node)] = frozenset((node.name,))
            continue
        names: set[str] = set()
        for child in LANGUAGE.spec(node).children:
            bound = {getattr(node, binder) for binder in child.binders}
            names |= out[id(getattr(node, child.attr))] - bound
        out[id(node)] = frozenset(names)
    return out


_SUBJECTS = [
    pytest.param(lambda: CORPUS[5][2], id="corpus-term"),
    pytest.param(lambda: shared_dag_tower(levels=6), id="shared-dag-tower"),
    pytest.param(lambda: _open_dag(40), id="open-dag"),
]


class TestFactsAreSessionIndependent:
    @pytest.mark.parametrize("build", _SUBJECTS)
    def test_same_facts_in_two_sessions_and_after_reset(self, build):
        term = build()
        first, second = api.Session(), api.Session()
        with first.activate():
            names, digest = cc.free_vars(term), content_hash(LANGUAGE, term)
        with second.activate():
            assert cc.free_vars(term) is names
            assert content_hash(LANGUAGE, term) == digest
        first.reset()
        with first.activate():
            assert cc.free_vars(term) is names
            assert content_hash(LANGUAGE, term) == digest
        assert names == _reference_free_vars(_unique_nodes(term))[id(term)]

    def test_cache_stats_hold_no_term_facts(self):
        session = api.Session()
        session.run(r"(\ (x : Nat). succ x) 41")
        names = session.cache_stats()
        assert not [name for name in names if name.endswith((".fv", ".hash"))]


class TestConcurrentWalks:
    @pytest.mark.parametrize("build", [
        pytest.param(lambda: shared_dag_tower(levels=8), id="shared-dag-tower"),
        pytest.param(lambda: _open_dag(300), id="open-dag"),
    ])
    def test_four_threads_walking_one_dag_agree(self, build):
        term, twin = build(), build()  # twin: equal structure, separate objects
        nodes, twin_nodes = _unique_nodes(term), _unique_nodes(twin)
        expected_names = _reference_free_vars(twin_nodes)
        expected_hashes = [content_hash(LANGUAGE, node) for node in twin_nodes]

        barrier = threading.Barrier(4)
        results: list[tuple[list, list]] = []
        errors: list[Exception] = []

        def walk() -> None:
            try:
                barrier.wait()
                # Each thread walks the whole DAG from the root, then reads
                # back what the walks stored on every node.
                names = [cc.free_vars(term)] + [cc.free_vars(node) for node in nodes]
                hashes = [content_hash(LANGUAGE, term)]
                hashes += [content_hash(LANGUAGE, node) for node in nodes]
                results.append((names, hashes))
            except Exception as error:  # surfaced in the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the walks as finely as possible
        try:
            threads = [threading.Thread(target=walk) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)

        assert not errors
        assert len(results) == 4
        want_names = [expected_names[id(twin)]] + [expected_names[id(n)] for n in twin_nodes]
        want_hashes = [expected_hashes[-1]] + expected_hashes  # the root comes last
        for names, hashes in results:
            assert names == want_names
            assert hashes == want_hashes


def _documents(session: api.Session) -> list[tuple[str, str, dict]]:
    """Check, compile and run documents over the corpus, session name dropped."""
    out = []
    for name, ctx, term in CORPUS:
        for kind, result in (("check", session.check(term, ctx)),
                             ("compile", session.compile(term, ctx))):
            document = result.to_dict()
            document.pop("session")
            out.append((name, kind, document))
    for name, term, _expected in CLOSED_GROUND_PROGRAMS:
        document = session.run(term).to_dict()
        document.pop("session")
        out.append((name, "run", document))
    return out


def test_second_session_on_the_same_terms_matches_the_first():
    """Facts the first session stored on the corpus terms change nothing a
    second session reports: fuel, verdicts, types, targets and cache hits."""
    first = _documents(api.Session(name="first"))
    second = _documents(api.Session(name="second"))
    assert len(first) == 2 * len(CORPUS) + len(CLOSED_GROUND_PROGRAMS)
    for one, two in zip(first, second):
        assert one == two, one[:2]
