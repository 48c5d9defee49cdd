"""E15 — the shared term kernel's caches (cold vs. warm).

Series: the three kernel caches introduced with ``repro/kernel/`` —
memoized normalization, cached free variables (as exercised by
substitution), and hash-consing/interning — each measured cold (caches
empty) against warm (caches filled by an identical prior run).

``test_warm_normalize_speedup`` is the acceptance gate for the caching
layer: a warm-cache ``normalize`` must be at least 2× faster than a cold
run on the same workload.  In practice the warm run is a single dict probe
and the ratio is orders of magnitude.

``test_judgment_memo_traffic`` audits the typing-judgment memo: every
typing kind still probed must hit somewhere (a memo that never hits is
pure cost), and the CC-CC checker must probe only at its public entry.
``test_closed_judgments_stored_once`` audits the closed key: a closed
subject's ``cc.infer``/``cc.universe`` judgment is stored once, not once
per context path.
"""

from __future__ import annotations

import collections
import time

import pytest

from repro import api, cc, cccc
from repro.common.names import reset_fresh_counter
from repro.gen.dag import shared_dag_tower
from repro.gen.jobs import job_corpus
from repro.kernel.memo import Memo
from repro.surface import parse_term
from repro.surface.printer import to_surface
from repro.wire.codec import term_from_b64, term_to_b64
from workloads import (
    bool_flip_tower,
    church_sum,
    nat_sum,
    nested_lambdas,
    pair_tower,
    wide_capture,
)

_EMPTY = cc.Context.empty()


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_warm_normalize_speedup():
    """Acceptance: warm-cache normalize ≥ 2× faster than cold."""
    term = church_sum(6)
    reset_fresh_counter()  # cold: every kernel cache empty

    start = time.perf_counter()
    cold_result = cc.normalize(_EMPTY, term)
    cold = time.perf_counter() - start

    warm = _best_of(lambda: cc.normalize(_EMPTY, term))
    warm_result = cc.normalize(_EMPTY, term)

    assert warm_result is cold_result  # the memoized object comes back
    assert cc.nat_value(warm_result) == 12
    assert warm * 2 <= cold, f"warm {warm:.6f}s not 2x faster than cold {cold:.6f}s"


def test_step_accounting_survives_caching():
    """Fuel replay: cold and warm runs report identical step counts."""
    term = nat_sum(32)
    reset_fresh_counter()
    _, cold_steps = cc.normalize_counting(_EMPTY, term)
    _, warm_steps = cc.normalize_counting(_EMPTY, term)
    assert cold_steps == warm_steps > 0


@pytest.mark.parametrize("n", [4, 6, 8])
def test_normalize_warm(benchmark, n):
    """Steady-state normalize: every iteration after the first is a hit."""
    term = church_sum(n)
    benchmark.group = "E15 normalize (warm)"
    result = benchmark(lambda: cc.normalize(_EMPTY, term))
    assert cc.nat_value(result) == 2 * n


@pytest.mark.parametrize("n", [4, 6, 8])
def test_normalize_cold(benchmark, n):
    """Cold normalize: caches are reset before every iteration."""
    term = church_sum(n)
    benchmark.group = "E15 normalize (cold)"

    def run():
        reset_fresh_counter()
        return cc.normalize(_EMPTY, term)

    result = benchmark(run)
    assert cc.nat_value(result) == 2 * n


@pytest.mark.parametrize("depth", [16, 64])
def test_subst_heavy_warm_fv_cache(benchmark, depth):
    """Substitution over a big term with the free-variable cache warm.

    ``nested_lambdas(depth)`` only has ``x0`` free under the outer binder,
    so each call's relevance scan is the hot path; with cached
    free-variable sets stored on the terms it is an attribute read
    instead of a term walk.
    """
    term = nested_lambdas(depth).body  # λ x1 … λ x_{depth-1}. x0, x0 free
    replacement = cc.nat_literal(3)
    cc.free_vars(term)  # warm the cache once
    benchmark.group = "E15 subst (warm fv cache)"
    result = benchmark(lambda: cc.subst1(term, "x0", replacement))
    assert cc.free_vars(result) == set()


@pytest.mark.parametrize("width", [16, 64])
def test_subst_wide_capture(benchmark, width):
    """Parallel substitution across a wide-capture body (many free vars)."""
    _, lam = wide_capture(width)
    mapping = {f"v{index}": cc.nat_literal(1) for index in range(width)}
    cc.free_vars(lam)
    benchmark.group = "E15 subst (wide mapping)"
    result = benchmark(lambda: cc.subst(lam, mapping))
    assert cc.free_vars(result) == set()


def test_intern_dedup(benchmark):
    """Interning α-identical builds: second and later calls are lookups."""
    terms = [nested_lambdas(12) for _ in range(8)]
    benchmark.group = "E15 intern"

    def run():
        reps = {id(cc.intern(t)) for t in terms}
        assert len(reps) == 1

    benchmark(run)


_TYPING_KINDS = ("cc.infer", "cc.check", "cc.universe")


def test_judgment_memo_traffic(monkeypatch):
    """Every typing-memo kind still probed hits; CC-CC probes only at its entry.

    One session checks and compiles a fixed program set twice, in three forms:
    surface text (re-parsed per call into the session's hash-consed
    nodes), interned terms, and terms decoded from the binary wire.  All
    three are hash-consed DAGs.  Probes and hits are counted per kind and
    form.
    """
    families = [church_sum(4), nested_lambdas(10), bool_flip_tower(4), pair_tower(4),
                nat_sum(4), shared_dag_tower(5)]
    texts = [to_surface(term) for term in families]
    texts += [spec["program"] for spec in job_corpus(1, count=12)]
    session = api.Session(name="e15-traffic")
    with session.activate():
        interned = [cc.intern(parse_term(text)) for text in texts]
    # Decoded where none of these nodes is known yet: a decoder in the
    # traffic session would adopt the interned objects themselves, and the
    # decoded form would then only repeat the interned one's compile-memo
    # hits.
    with api.Session(name="e15-wire").activate():
        decoded = [
            term_from_b64(cc.ast.LANGUAGE, term_to_b64(cc.ast.LANGUAGE, term))
            for term in interned
        ]

    probes: collections.Counter = collections.Counter()
    hits: collections.Counter = collections.Counter()
    # (form, pass, whether the probe came from inside ``Session.compile``)
    stage = ["setup", 0, False]
    compile_probes: collections.Counter = collections.Counter()
    replay = Memo.replay

    def counting_replay(self, kind, subject, extra, key, budget):
        found = replay(self, kind, subject, extra, key, budget)
        if self is not session.state.judgments:
            return found
        probes[stage[0], kind] += 1
        if found is not None:
            hits[stage[0], kind] += 1
        if stage[2] and kind.startswith("cccc."):
            compile_probes[stage[0], stage[1]] += 1
        return found

    # A repeated compile is a compile-memo hit that re-verifies nothing,
    # so only the compiles that reach ``compile_term`` count.
    verifications = 0
    compile_term = api.compile_term

    def counting_compile_term(*args, **kwargs):
        nonlocal verifications
        verifications += 1
        return compile_term(*args, **kwargs)

    monkeypatch.setattr(Memo, "replay", counting_replay)
    monkeypatch.setattr(api, "compile_term", counting_compile_term)
    for name, programs in (("text", texts), ("interned", interned), ("decoded", decoded)):
        stage[0] = name
        for repeat in range(2):
            stage[1] = repeat
            for program in programs:
                session.check(program)
                stage[2] = True
                compiled = session.compile(program).compilation
                stage[2] = False
                with session.activate():
                    # A repeated public CC-CC judgment on the same objects.
                    cccc.infer(compiled.target_context, compiled.target)
                verifications += 1

    for dag_form in ("text", "interned", "decoded"):
        for kind in _TYPING_KINDS:
            assert probes[dag_form, kind] > 0, (dag_form, kind)
            assert hits[dag_form, kind] > 0, (dag_form, kind, probes[dag_form, kind])
    cccc_typing = {
        key: count for key, count in probes.items()
        if key[1].startswith("cccc.") and key[1] != "cccc.equiv"
    }
    # One probe per public call: the verification inside each compile that
    # missed the memo and the explicit repeat, each a public ``cccc.infer``.
    assert set(kind for _, kind in cccc_typing) == {"cccc.infer.nbe"}
    assert sum(cccc_typing.values()) == verifications
    assert hits["interned", "cccc.infer.nbe"] == hits["decoded", "cccc.infer.nbe"] == 2 * len(texts)
    # Every repeat pass compiles from the memo: no CC-CC probe at all.
    assert compile_probes["text", 0] > 0
    assert all(compile_probes[name, 1] == 0 for name in ("text", "interned", "decoded"))


@pytest.mark.parametrize("family", [pair_tower(20), church_sum(8)],
                         ids=["pair_tower(20)", "church_sum(8)"])
def test_closed_judgments_stored_once(family):
    """Each closed non-leaf ``cc.universe``/``cc.infer`` subject is stored once.

    A closed subject keys on the empty context, so a cold compile of the
    program's text stores its judgment once, however many binders it is
    re-derived under; every further derivation is a hit.  Untimed and
    exact: keying such a subject on its context path again stores it once
    per path and fails here.
    """
    session = api.Session(name="e15-closed")
    assert session.compile(to_surface(family)).verified
    with session.activate():
        stored = collections.Counter(
            (kind, id(subject))
            for (kind, *_), (subject, *_) in session.state.judgments._entries.items()
            if kind in ("cc.universe", "cc.infer")
            and cc.ast.LANGUAGE.spec(subject).children
            and not cc.free_vars(subject)
        )
    assert {kind for kind, _ in stored} == {"cc.universe", "cc.infer"}
    assert set(stored.values()) == {1}, max(stored.values())
