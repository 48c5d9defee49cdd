"""Per-layer tracing for the traced run.

Spans are recorded in memory around calls into each layer's public
functions (name, start, end, parent, operation id) and written out when
the run ends.  A span's *self time* is its duration minus the durations of
its children; the root span's self time is whatever the layers do not
account for.

:func:`decompose` replays one session entrypoint layer by layer, in the
order ``Session.run`` / ``compile_term`` / the service executor call them,
so the traced run can attribute time to parse, check, closure conversion,
verification, hoisting, staging, and execution without any hook inside the
code under test.  Its results (value, cost counters, check and verify
fuel) are compared against the real entrypoint by the caller.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from inputs import machine_shape

__all__ = ["COUNTER_FIELDS", "Spans", "counters", "decompose"]

#: The execution counters a RunResult exposes (MachineStats field names).
COUNTER_FIELDS = ("steps", "closure_allocs", "tuple_allocs", "projections", "env_allocs", "max_env_size")


def counters(stats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


class Spans:
    """In-memory span records: ``[name, start, end, parent index, op]``."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record an already-measured span; returns its index."""
        self.records.append([name, start, end, parent, self.op])
        return len(self.records) - 1

    def layer_means(self, clock) -> dict[str, dict[str, float]]:
        """Normalized mean self milliseconds per root span, by root and layer.

        Every span is scaled by the host factor at its root's midpoint, so
        the layers of one operation share one scale.  Each root kind also
        reports ``_count`` and ``_total`` (its mean normalized duration).
        """
        records = self.records
        children = [0.0] * len(records)
        roots = []
        for index, (_name, start, end, parent, _op) in enumerate(records):
            if parent is not None:
                children[parent] += end - start
            roots.append(index if parent is None else roots[parent])
        scales: dict[int, float] = {}
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, _op) in enumerate(records):
            root = roots[index]
            if root not in scales:
                _, root_start, root_end, _, _ = records[root]
                scales[root] = clock.scale((root_start + root_end) / 2)
            kind = records[root][0]
            seconds = (end - start - children[index]) * scales[root]
            totals[kind][name] += seconds * 1e3
            if parent is None:
                totals[kind]["_count"] += 1
                totals[kind]["_total"] += (end - start) * scales[root] * 1e3
        means = {}
        for kind, layers in totals.items():
            count = layers.pop("_count")
            means[kind] = {name: value / count for name, value in layers.items()}
            means[kind]["_count"] = count
        return means

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.records
        ]


def decompose(spans: Spans, session, kind: str, text: str | None = None,
              b64: str | None = None, intern: bool = False) -> dict:
    """Run one program through ``session`` layer by layer, inside spans.

    ``kind`` is a service job kind: ``check``, ``normalize``, ``compile``,
    ``run`` (machine backend) or ``compile_py`` (staged backend, artifact
    caches first).  ``intern`` mirrors the executor's alpha-canonical
    ingest; ``Session.run`` on text does not intern.  Returns the fuel
    spent, the value observation and execution counters where the kind
    produces them, and (for compile paths) the target term.
    """
    from repro import cc, cccc
    from repro.backend import ArtifactMeta, artifact_key, compile_program, load_artifact, store_artifact
    from repro.closconv.translate import translate, translate_context
    from repro.machine import hoist
    from repro.machine import run as machine_run
    from repro.surface import parse_term

    out: dict = {}
    with session.activate():
        if b64 is not None:
            from repro.wire.codec import term_from_b64

            with spans.span("wire.ingest"):
                term = cc.intern(term_from_b64(cc.ast.LANGUAGE, b64))
        else:
            with spans.span("surface.parse"):
                term = parse_term(text)
                if intern:
                    term = cc.intern(term)

        cached = None
        if kind == "compile_py":
            with spans.span("backend.stage"):
                key = artifact_key(cc.intern(term), engine=session.engine, verify=True)
                cached = load_artifact(session.state, key)
            out["artifact_hit"] = cached is not None

        if cached is None:
            ctx = cc.Context.empty()
            check_budget = session.budget()
            with spans.span("cc.check"):
                source_type = cc.infer(ctx, term, check_budget)
            out["check_steps"] = check_budget.spent
            if kind == "check":
                return out
            if kind == "normalize":
                budget = session.budget()
                with spans.span("cc.normalize"):
                    cc.normalize(ctx, term, budget)
                out["steps"] = budget.spent
                return out
            with spans.span("closconv.translate"):
                target = translate(ctx, term)
                target_type = translate(ctx, source_type)
                target_ctx = translate_context(ctx)
            out["target"] = target
            verify_budget = session.budget()
            with spans.span("cccc.verify"):
                checked = cccc.infer(target_ctx, target, verify_budget)
                preserved = cccc.equivalent(target_ctx, checked, target_type, verify_budget)
            if not preserved:
                raise RuntimeError("the traced replay failed the Theorem 5.6 check")
            out["verify_steps"] = verify_budget.spent
            if kind == "compile":
                return out
            with spans.span("machine.hoist"):
                program = hoist(target)
            if kind == "run":
                with spans.span("machine.exec"):
                    value, stats = machine_run(program)
                out.update(value=machine_shape(value), counters=counters(stats))
                return out
            with spans.span("backend.stage"):
                compiled = compile_program(program)
                meta = ArtifactMeta(
                    check_steps=out["check_steps"], verify_steps=out["verify_steps"], verified=True
                )
                store_artifact(session.state, key, compiled, meta)
        else:
            compiled, meta = cached
            out["check_steps"], out["verify_steps"] = meta.check_steps, meta.verify_steps
        with spans.span("backend.exec"):
            value, stats = compiled.execute()
        out.update(value=machine_shape(value), counters=counters(stats))
    return out
