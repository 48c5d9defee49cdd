"""The kernel memo's traffic, pinned exactly.

Every memoized judgment — reduction (``*.whnf``, ``*.nf``), equivalence
(``*.equiv``) and typing (``*.infer``, ``*.check``, ``*.universe``) —
probes, hits and stores a fixed number of times on a fixed program set.
This test counts that traffic per memo kind and asserts the whole table,
so a probe that is dropped, added or keyed differently changes a count
and fails here, even when every verdict and fuel figure stays the same.

The counts are taken below the memo's interface, on the entry dicts of
the session's two memo instances (``KernelState.normalization`` and
``KernelState.judgments``): a ``get`` is a probe (a hit when it finds an
entry) and an item assignment is a store.  A ``get`` made while
``repro.cc.typecheck.derived_type`` runs is counted as a *read* — closure
conversion reading a judgment back — not as a probe.

Each program runs in a fresh session: check it twice, normalize it on
both engines, compile it (closure conversion and Theorem 5.6's verify),
run it, and re-derive the compiled program's type on the substitution
reference checker.
"""

from __future__ import annotations

import collections

from benchmarks.workloads import (
    bool_flip_tower,
    capture_chain,
    church_sum,
    nat_sum,
    nested_lambdas,
    pair_tower,
    wide_capture,
)
from repro import api, cc
from repro.cc import typecheck
from repro.cccc import typecheck_subst
from repro.gen.dag import shared_dag_tower
from repro.gen.jobs import close_over, job_corpus
from repro.surface.printer import to_surface


def _programs() -> list[str]:
    """The fixed program set, as surface text (parsed in each session)."""
    terms = [church_sum(3), nested_lambdas(6), bool_flip_tower(3), pair_tower(4),
             nat_sum(3), shared_dag_tower(4)]
    terms += [close_over(*wide_capture(3)), close_over(*capture_chain(3))]
    texts = [to_surface(term) for term in terms]
    return texts + [spec["program"] for spec in job_corpus(5, count=10)]


class _CountingEntries(dict):
    """A memo's entry dict that counts its probes, hits and stores per kind."""

    def __init__(self, counts: dict, reading: list) -> None:
        super().__init__()
        self._counts = counts
        self._reading = reading

    @staticmethod
    def _kind(key: tuple) -> str:
        return next(part for part in key if type(part) is str)

    def get(self, key, default=None):
        found = super().get(key, default)
        row = self._counts[self._kind(key)]
        if self._reading[0]:
            row["reads"] += 1
        else:
            row["probes"] += 1
            if found is not None:
                row["hits"] += 1
        return found

    def __setitem__(self, key, value) -> None:
        self._counts[self._kind(key)]["stores"] += 1
        super().__setitem__(key, value)


def _traffic(monkeypatch) -> dict[str, dict[str, int]]:
    counts: dict = collections.defaultdict(collections.Counter)
    reading = [False]
    derived_type = typecheck.derived_type

    def counting_derived_type(ctx, term):
        reading[0] = True
        try:
            return derived_type(ctx, term)
        finally:
            reading[0] = False

    monkeypatch.setattr(typecheck, "derived_type", counting_derived_type)
    for text in _programs():
        session = api.Session(name="memo-traffic")
        state = session.state
        state.normalization._entries = _CountingEntries(counts, reading)
        state.judgments._entries = _CountingEntries(counts, reading)
        session.check(text)
        session.check(text)
        session.normalize(text, engine="nbe")
        session.normalize(text, engine="subst")
        compiled = session.compile(text).compilation
        session.run(text)
        with session.activate():
            typecheck_subst.infer(compiled.target_context, compiled.target)
        for memo in (state.normalization, state.judgments):
            for key in memo._entries:
                counts[_CountingEntries._kind(key)]["entries"] += 1
    return {kind: tuple(row[field] for field in _FIELDS) for kind, row in sorted(counts.items())}


_FIELDS = ("probes", "hits", "stores", "reads", "entries")

#: kind -> (probes, hits, stores, reads, entries), summed over the programs.
EXPECTED = {
    "cc.check": (177, 14, 163, 0, 163),
    "cc.equiv": (35, 2, 33, 0, 33),
    "cc.infer": (410, 102, 308, 67, 308),
    "cc.nf": (104, 22, 82, 0, 82),
    "cc.nf.subst": (144, 22, 122, 0, 122),
    "cc.universe": (239, 118, 121, 0, 121),
    "cc.whnf": (33, 0, 33, 0, 33),
    "cc.whnf.subst": (63, 4, 59, 0, 59),
    "cccc.check": (345, 47, 298, 0, 298),
    "cccc.equiv": (107, 21, 86, 0, 86),
    "cccc.infer": (592, 9, 583, 0, 583),
    "cccc.infer.nbe": (18, 0, 18, 0, 18),
    "cccc.universe": (608, 23, 585, 0, 585),
    "cccc.whnf": (189, 47, 142, 0, 142),
}


def test_memo_traffic_is_pinned(monkeypatch):
    assert _traffic(monkeypatch) == EXPECTED


def test_fixed_program_set():
    programs = _programs()
    assert len(programs) == 18
    assert all(cc.infer(cc.Context.empty(), api.Session().parse(text).term) is not None
               for text in programs)
