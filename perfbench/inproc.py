"""In-process workloads: ``cold_verify`` and ``exec_heavy``.

Both drive ``api.Session.run`` from one call site on a fresh thread (see
:func:`common.in_thread`) over a fixed, seeded list of operations, with a
reference sample between operations about every 100 ms and a full garbage
collection before each operation (outside the timed span), so one
operation's garbage is never charged to the next.
"""

from __future__ import annotations

import gc
import random
import time

import inputs
from common import in_thread, time_wire_codec
from layers import Spans, decompose

#: Normalized operations per second each workload is sized for: a run of
#: ``--seconds S`` measures about ``S * rate`` operations, in whole passes.
COLD_OPS_PER_S = 55.0
EXEC_OPS_PER_S = 80.0

ENGINES = ("machine", "compiled")

_IMPORTS = ("repro.api", "repro.backend", "repro.closconv.translate", "repro.machine",
            "repro.surface", "repro.wire.codec", "repro.gen.jobs")


def _passes(run, per_pass: int, rate: float) -> int:
    return max(1, round(run.seconds * rate / per_pass))


def _run_observation(result) -> dict:
    """What ``Session.run`` reports, in :func:`layers.decompose` terms."""
    return {
        "value": inputs.machine_shape(result.value),
        "counters": {
            "steps": result.machine_steps,
            "closure_allocs": result.closure_allocs,
            "tuple_allocs": result.tuple_allocs,
            "projections": result.projections,
            "env_allocs": result.env_allocs,
            "max_env_size": result.max_env_size,
        },
        "check_steps": result.check_steps,
        "verify_steps": result.verify_steps,
    }


def _row_counters(observed: dict, hits: int) -> dict:
    counters = {"check_steps": observed["check_steps"], "verify_steps": observed["verify_steps"],
                "memo_hits": hits}
    counters.update(observed["counters"])
    return counters


# ---------------------------------------------------------------------------
# cold_verify
# ---------------------------------------------------------------------------


def cold_verify(run) -> None:
    """Each operation is a fresh ``Session().run(text)``: machine backend,
    verify on, so it pays the cold source check, closure conversion and
    the Theorem 5.6 re-check."""
    run.pin_one_core()
    run.import_repro(*_IMPORTS)
    programs = run.setup(lambda rep: inputs.cold_verify_programs(run.seed))
    if run.trace:
        in_thread(lambda: _cold_traced(run, programs))
        return
    rng = random.Random(f"cold_verify-order:{run.seed}")
    order = []
    for _ in range(_passes(run, len(programs), COLD_OPS_PER_S)):
        indices = list(range(len(programs)))
        rng.shuffle(indices)
        order.extend(indices)
    in_thread(lambda: _cold_loop(run, programs, order))
    run.peak_rss_mb = _self_peak_rss_mb()


def _cold_loop(run, programs, order) -> None:
    from repro import api

    clock = run.clock
    clock.sample()
    for position, index in enumerate(order):
        program = programs[index]
        gc.collect()
        clock.maybe_sample()
        run.attempted += 1
        start = time.perf_counter()
        try:
            result = api.Session().run(program.text)
        except Exception as error:  # a failed operation is counted, the run goes on
            run.fail(f"{program.label}: {type(error).__name__}: {error}", op=position)
            continue
        end = time.perf_counter()
        run.ops.append((start, end))
        run.list_spans.append((start, end))
        observed = _run_observation(result)
        run.record(program.label, start, end,
                   _row_counters(observed, sum(result.cache_hits.values())))
        if observed["value"] != program.expect:
            run.fail(f"{program.label}: value {observed['value']} != reference {program.expect}",
                     op=position)
    clock.sample()


def _cold_traced(run, programs) -> None:
    from repro import api, cccc

    spans = run.spans = Spans()
    clock = run.clock
    counts = {name: 0.0 for name in ("cc.check_steps", "cccc.verify_steps", "closconv.target_nodes",
                                     "machine.steps", "machine.env_allocs", "kernel.memo_hits",
                                     "kernel.cache_entries")}
    untraced = traced = 0.0
    clock.sample()
    for index, program in enumerate(programs):
        run.attempted += 1
        for traced_turn in ((False, True) if index % 2 else (True, False)):
            gc.collect()
            clock.maybe_sample()
            if traced_turn:
                spans.op = index
                with spans.span("op") as root:
                    session = api.Session()
                    got = decompose(spans, session, "run", text=program.text)
                traced += clock.normalize(root[1], root[2])
                hits = sum(session.hit_counts().values())
                entries = sum(session.cache_stats().values())
            else:
                start = time.perf_counter()
                result = api.Session().run(program.text)
                end = time.perf_counter()
                untraced += clock.normalize(start, end)
                run.ops.append((start, end))
                expected = _run_observation(result)
        got_obs = {key: got[key] for key in ("value", "counters", "check_steps", "verify_steps")}
        if got_obs != expected:
            run.fail(f"{program.label}: traced decomposition {got_obs} != Session.run {expected}",
                     op=index)
        if expected["value"] != program.expect:
            run.fail(f"{program.label}: value {expected['value']} != reference {program.expect}",
                     op=index)
        counts["cc.check_steps"] += got["check_steps"]
        counts["cccc.verify_steps"] += got["verify_steps"]
        counts["closconv.target_nodes"] += cccc.term_size(got["target"])
        counts["machine.steps"] += got["counters"]["steps"]
        counts["machine.env_allocs"] += got["counters"]["env_allocs"]
        counts["kernel.memo_hits"] += hits
        counts["kernel.cache_entries"] += entries
    clock.sample()
    time_wire_codec(run, spans, [(program.text, None) for program in programs])
    clock.sample()
    means = spans.layer_means(clock)
    run.take_layers(means["op"], "op")
    run.layers["harness.trace_overhead"] = traced / untraced - 1.0
    run.layers["wire.codec_ms"] = means["wire.codec"]["wire.codec"]
    for name, total in counts.items():
        run.layers[name] = total / len(programs)


# ---------------------------------------------------------------------------
# exec_heavy
# ---------------------------------------------------------------------------


def exec_heavy(run) -> None:
    """One long-lived session alternating machine and compiled runs of
    execution-heavy programs; set-up fills the kernel caches and the
    compiled-artifact cache, so operations measure warm execution."""
    run.pin_one_core()
    run.import_repro(*_IMPORTS)

    def build(rep):
        from repro import api

        with run.phase("inputs"):
            programs = inputs.exec_heavy_programs(run.seed)
        session = api.Session(name=f"perfbench-exec-{rep}")
        reference = {}
        for program in programs:
            run.clock.maybe_sample()
            for engine in ENGINES:
                observed = _run_observation(session.run(program.text, engine=engine))
                if observed["value"] != program.expect:
                    raise RuntimeError(f"{program.label} on {engine}: value "
                                       f"{observed['value']} != reference {program.expect}")
                reference[program.label, engine] = observed
        return programs, session, reference

    programs, session, reference = run.setup(build)
    rng = random.Random(f"exec_heavy-order:{run.seed}")
    order = []
    for _ in range(_passes(run, 2 * len(programs), EXEC_OPS_PER_S)):
        machine = list(range(len(programs)))
        compiled = list(range(len(programs)))
        rng.shuffle(machine)
        rng.shuffle(compiled)
        for pair in zip(machine, compiled):
            order.extend(zip(pair, ENGINES))
    if run.trace:
        in_thread(lambda: _exec_traced(run, programs, session, reference, order[: 2 * len(programs)]))
        return
    in_thread(lambda: _exec_loop(run, programs, session, reference, order))
    run.peak_rss_mb = _self_peak_rss_mb()


def _exec_loop(run, programs, session, reference, order) -> None:
    clock = run.clock
    clock.sample()
    for position, (index, engine) in enumerate(order):
        program = programs[index]
        clock.maybe_sample()
        run.attempted += 1
        start = time.perf_counter()
        try:
            result = session.run(program.text, engine=engine)
        except Exception as error:  # a failed operation is counted, the run goes on
            run.fail(f"{program.label} on {engine}: {type(error).__name__}: {error}", op=position)
            continue
        end = time.perf_counter()
        run.ops.append((start, end))
        run.list_spans.append((start, end))
        observed = _run_observation(result)
        run.record(f"{program.label}/{engine}", start, end, _row_counters(observed, 0))
        if observed["value"] != program.expect:
            run.fail(f"{program.label} on {engine}: value {observed['value']} "
                     f"!= reference {program.expect}", op=position)
        elif observed != reference[program.label, engine]:
            run.fail(f"{program.label} on {engine}: {observed} != set-up run "
                     f"{reference[program.label, engine]}", op=position)
    clock.sample()


def _exec_traced(run, programs, session, reference, order) -> None:
    spans = run.spans = Spans()
    clock = run.clock
    counts = {"cc.check_steps": 0.0, "cccc.verify_steps": 0.0, "closconv.target_nodes": 0.0,
              "machine.steps": 0.0, "machine.env_allocs": 0.0, "kernel.memo_hits": 0.0}
    untraced = traced = 0.0
    hits = lookups = 0
    clock.sample()
    for position, (index, engine) in enumerate(order):
        program = programs[index]
        run.attempted += 1
        for traced_turn in ((False, True) if position % 2 else (True, False)):
            clock.maybe_sample()
            if traced_turn:
                spans.op = position
                before = sum(session.hit_counts().values())
                kind = "run" if engine == "machine" else "compile_py"
                with spans.span("op") as root:
                    got = decompose(spans, session, kind, text=program.text)
                traced += clock.normalize(root[1], root[2])
                counts["kernel.memo_hits"] += sum(session.hit_counts().values()) - before
            else:
                start = time.perf_counter()
                result = session.run(program.text, engine=engine)
                end = time.perf_counter()
                untraced += clock.normalize(start, end)
                run.ops.append((start, end))
                expected = _run_observation(result)
        got_obs = {key: got[key] for key in ("value", "counters", "check_steps", "verify_steps")}
        if got_obs != expected or expected != reference[program.label, engine]:
            run.fail(f"{program.label} on {engine}: traced decomposition {got_obs} "
                     f"!= Session.run {expected}", op=position)
        if "artifact_hit" in got:
            lookups += 1
            hits += got["artifact_hit"]
        if "target" in got:
            from repro import cccc

            counts["closconv.target_nodes"] += cccc.term_size(got["target"])
        counts["cc.check_steps"] += got["check_steps"]
        counts["cccc.verify_steps"] += got["verify_steps"]
        counts["machine.steps"] += got["counters"]["steps"]
        counts["machine.env_allocs"] += got["counters"]["env_allocs"]
    clock.sample()
    time_wire_codec(run, spans, [(program.text, None) for program in programs])
    clock.sample()
    means = spans.layer_means(clock)
    run.take_layers(means["op"], "op")
    run.layers["harness.trace_overhead"] = traced / untraced - 1.0
    run.layers["wire.codec_ms"] = means["wire.codec"]["wire.codec"]
    run.layers["backend.artifact_hit_ratio"] = hits / lookups if lookups else 0.0
    run.layers["kernel.cache_entries"] = float(sum(session.cache_stats().values()))
    for name, total in counts.items():
        run.layers[name] = total / len(order)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
