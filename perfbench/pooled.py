"""Pooled workloads: ``pool_warm`` (a ``service.Dispatcher``) and
``endpoint_rtt`` (``python -m repro serve`` over its NDJSON socket).

Both run the seeded mixed-kind job corpus of :func:`inputs.pool_corpus`
and check every payload byte for byte against a solo
``api.execute_jobs(workers=0)`` run computed during set-up.  Reference
samples run only while the pool is idle: between rounds, or between
endpoint round trips.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from statistics import median

import inputs
from common import ROOT, child_pids, peak_rss_mb_of, time_wire_codec
from layers import Spans, decompose

#: Worker processes per pool: one per usable core, at most four.
WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))

#: Jobs a pool_warm round keeps in flight: two per worker, so each worker
#: always has its next job queued and a job's latency never depends on its
#: position in a whole-corpus burst.
WINDOW = 2 * WORKERS

#: Normalized closed-loop rounds per second of ``pool_warm``, and round
#: trips per second of ``endpoint_rtt``.
POOL_ROUNDS_PER_S = 14.0
ENDPOINT_OPS_PER_S = 200.0

#: Seconds any single batch or round trip may take before the run fails.
WAIT_S = 120.0

_IMPORTS = ("repro.api", "repro.backend", "repro.closconv.translate", "repro.machine",
            "repro.surface", "repro.wire.codec", "repro.gen.jobs", "repro.service.dispatcher",
            "repro.service.client")


def _canonical(document: dict) -> str:
    """The deterministic half of a result document, without its id."""
    if document.get("ok"):
        return json.dumps({"ok": True, "payload": document.get("payload", {})}, sort_keys=True)
    return json.dumps({"ok": False, "error": document.get("error", {})}, sort_keys=True)


def _stamp(specs: list[dict], prefix: str, trace: bool = False) -> list[dict]:
    stamped = []
    for index, spec in enumerate(specs):
        spec = dict(spec, id=f"{prefix}-{index}")
        if trace:
            spec["trace"] = True
        stamped.append(spec)
    return stamped


def _solo_reference(run, specs: list[dict]) -> list[str]:
    """The solo ``api.execute_jobs(workers=0)`` run, one job per call on
    one session (what a single call does), with reference samples between
    jobs."""
    from repro import api

    session = api.Session(name="batch")
    reference = []
    for spec in _stamp(specs, "solo"):
        run.clock.maybe_sample()
        [result] = api.execute_jobs([spec], workers=0, session=session).results
        if not result.ok:
            raise RuntimeError(f"corpus job {result.id} fails solo: {result.error}")
        reference.append(_canonical(result.to_dict()))
    return reference


def _one_by_one(run, submit, jobs: list[dict]) -> list[dict]:
    """Set-up's cold pass: one job at a time, sampling while the pool is idle.

    Sequential jobs make the pass cost the sum of its jobs, whichever
    worker each lands on; a parallel burst would cost its most loaded
    worker's share, which moves with the seed's key layout.
    """
    documents = []
    for job in jobs:
        run.clock.maybe_sample()
        documents.append(submit(job))
    return documents


def _new_store(path) -> str:
    """Create a persistent memo store before any worker opens it.

    Workers that open a store file that does not exist yet race to switch
    it to WAL mode, and SQLite fails the loser at once ("database is
    locked") instead of waiting; a store already in WAL mode opens cleanly.
    """
    from repro.wire.persist import PersistentMemoStore

    PersistentMemoStore(str(path)).close()
    return str(path)


def _require_solo(documents: list[dict], reference: list[str], what: str) -> None:
    """Set-up's warming pass must already agree with the solo run."""
    for index, document in enumerate(documents):
        if _canonical(document) != reference[index]:
            raise RuntimeError(f"{what} job {index} disagrees with the solo run")


def _payload_counters(document: dict) -> dict:
    """The deterministic counters (fuel, steps, allocations) of a payload."""
    return {key: value for key, value in document.get("payload", {}).items()
            if isinstance(value, int)}


# ---------------------------------------------------------------------------
# pool_warm
# ---------------------------------------------------------------------------


def pool_warm(run) -> None:
    """Closed-loop rounds of the whole corpus through a warm worker pool."""
    run.import_repro(*_IMPORTS)
    from repro.service.dispatcher import Dispatcher

    def build(rep):
        # The pool forks first, from a parent that holds little more than
        # the import, so a worker's peak RSS is its own and not an
        # inherited copy of the solo run's heap.
        with run.phase("spawn"):
            pool = Dispatcher(workers=WORKERS, name=f"perfbench-{rep}",
                              memo_store=_new_store(run.work_dir / f"memo-{rep}.sqlite"))
            run.on_exit(pool.shutdown)
            for slot in range(WORKERS):
                if not pool.ping(slot, timeout=WAIT_S):
                    raise RuntimeError(f"pool worker {slot} did not answer")
        with run.phase("inputs"):
            specs = inputs.pool_corpus(run.seed)
        with run.phase("solo"):
            reference = _solo_reference(run, specs)
        with run.phase("cold"):
            cold = _one_by_one(run, lambda job: pool.run_batch([job])[0].to_dict(),
                               _stamp(specs, f"cold{rep}"))
        _require_solo(cold, reference, "cold pass")
        return specs, reference, pool

    specs, reference, pool = run.setup(build, teardown=lambda value: value[2].shutdown())
    rounds = max(3, round(run.seconds * POOL_ROUNDS_PER_S))
    if run.trace:
        _pool_traced(run, pool, specs, reference, rounds)
        return
    run.clock.sample()
    for index in range(rounds):
        _round(run, pool, specs, reference, f"r{index}")
    run.clock.sample()
    run.peak_rss_mb = _worker_peak_rss_mb(run, os.getpid())
    run.report["pool_stats"] = pool.stats().to_dict()


def _round(run, pool, specs, reference, prefix, trace=False):
    """Stream the whole corpus through a window of :data:`WINDOW` jobs in
    flight and wait for every job; returns per-job records."""
    from repro.service.jobs import Job

    # Each round submits the corpus in its own seeded order, so which jobs
    # queue behind which averages out over the run instead of being fixed
    # by one draw.
    order = list(range(len(specs)))
    random.Random(f"{run.seed}:{prefix}").shuffle(order)
    stamped = _stamp(specs, prefix, trace)
    jobs = [Job.from_dict(stamped[index]) for index in order]
    done_at: dict[str, float] = {}
    finished = threading.Event()
    window = threading.Semaphore(WINDOW)
    left = [len(jobs)]

    def on_done(pending) -> None:  # collector thread, under the pool lock
        done_at[pending.job.id] = time.perf_counter()
        window.release()
        left[0] -= 1
        if not left[0]:
            finished.set()

    run.clock.maybe_sample()
    submitted = []
    pendings = []
    for job in jobs:
        if not window.acquire(timeout=WAIT_S):
            raise RuntimeError(f"round {prefix} stalled for {WAIT_S}s")
        submitted.append(time.perf_counter())
        pendings.append(pool.submit(job, on_done=on_done))
    if not finished.wait(WAIT_S):
        raise RuntimeError(f"round {prefix} did not finish within {WAIT_S}s")
    end = max(done_at.values())
    run.attempted += len(jobs)
    run.list_spans.append((submitted[0], end))
    records = []
    for position, pending in enumerate(pendings):
        index = order[position]
        start, stop = submitted[position], done_at[pending.job.id]
        run.ops.append((start, stop))
        document = pending.result.to_dict()
        run.record(f"{index}:{specs[index]['kind']}", start, stop, _payload_counters(document))
        if _canonical(document) != reference[index]:
            run.fail(f"{prefix} job {index}: payload differs from the solo run",
                     op=f"{prefix}-{index}")
        records.append((start, stop, pending, document))
    return records


def _pool_traced(run, pool, specs, reference, rounds) -> None:
    spans = run.spans = Spans()
    offset = time.perf_counter() - time.monotonic()
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    hits_before = sum(pool.stats().cache_hits.values())
    jobs = 0
    run.clock.sample()
    for index in range(rounds):
        traced = index % 2 == 1
        records = _round(run, pool, specs, reference, f"t{index}", trace=traced)
        for start, stop, pending, document in records:
            (traced_ms if traced else untraced_ms).append(run.clock.normalize(start, stop) * 1e3)
            if not traced:
                continue
            jobs += 1
            spans.op = document["id"]
            root = spans.add("job", start, stop)
            timeline = document["meta"]["trace"]["timeline"]
            dispatched = next(e["at"] for e in timeline if e["ev"] == "dispatch") + offset
            begun = (pending.begun_at + offset) if pending.begun_at is not None else dispatched
            begun = min(max(begun, dispatched), stop)
            busy_end = min(begun + document["meta"]["elapsed_seconds"], stop)
            spans.add("service.queue_wait", max(start, dispatched), begun, root)
            spans.add("service.worker_busy", begun, busy_end, root)
    run.clock.sample()
    stats = pool.stats()
    means = spans.layer_means(run.clock)["job"]
    run.layers["service.queue_wait_ms"] = means.get("service.queue_wait", 0.0)
    run.layers["service.worker_busy_ms"] = means.get("service.worker_busy", 0.0)
    run.layers["service.transport_ms"] = means.get("job", 0.0)
    run.layers["service.requeued"] = float(stats.requeued)
    run.layers["kernel.memo_hits"] = (sum(stats.cache_hits.values()) - hits_before) / (2 * jobs)
    run.layers["wire.store_hit_ratio"] = _store_hit_ratio(stats.persist)
    run.layers["harness.trace_overhead"] = median(traced_ms) / median(untraced_ms) - 1.0
    run.report["round_trip_ms"] = means["_total"]
    _replay(run, spans, specs, reference)


# ---------------------------------------------------------------------------
# endpoint_rtt
# ---------------------------------------------------------------------------


def endpoint_rtt(run) -> None:
    """Sequential single-job round trips over one persistent connection.

    One round trip at a time never keeps two processes busy at once, so the
    harness, the server and its workers (which inherit the affinity) share
    one core.
    """
    run.pin_one_core()
    run.import_repro(*_IMPORTS)
    from repro.service.client import ServiceClient

    def build(rep):
        with run.phase("inputs"):
            specs = inputs.pool_corpus(run.seed)
        with run.phase("solo"):
            reference = _solo_reference(run, specs)
        with run.phase("spawn"):
            server, host, port = _start_server(run, rep)
            client = ServiceClient(host, port, window=32, timeout=WAIT_S)
            run.on_exit(client.close)
        with run.phase("cold"):
            warm = _one_by_one(run, lambda job: client.run_batch([job])[0],
                               _stamp(specs, f"warm{rep}"))
        _require_solo(warm, reference, "warm pass")
        return specs, reference, server, client

    def teardown(value):
        value[3].close()
        _stop_server(value[2])

    specs, reference, server, client = run.setup(build, teardown)
    count = max(len(specs), round(run.seconds * ENDPOINT_OPS_PER_S))
    order = [index % len(specs) for index in range(count)]
    if run.trace:
        _endpoint_traced(run, client, specs, reference, order)
        return
    jobs = [dict(specs[index], id=f"o{position}") for position, index in enumerate(order)]
    run.clock.sample()
    for position, index in enumerate(order):
        run.clock.maybe_sample()
        run.attempted += 1
        start = time.perf_counter()
        [document] = client.run_batch([jobs[position]])
        end = time.perf_counter()
        run.ops.append((start, end))
        run.list_spans.append((start, end))
        run.record(f"{index}:{specs[index]['kind']}", start, end, _payload_counters(document))
        if _canonical(document) != reference[index]:
            run.fail(f"round trip {position} (job {index}): payload differs from the solo run",
                     op=position)
    run.clock.sample()
    run.peak_rss_mb = _worker_peak_rss_mb(run, server.pid)
    run.report["pool_stats"] = client.stats().get("meta", {}).get("stats", {}).get("pool", {})


def _endpoint_traced(run, client, specs, reference, order) -> None:
    spans = run.spans = Spans()
    offset = time.perf_counter() - time.monotonic()
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    overhead = 0.0
    hits_before = _pool_hits(client)
    run.clock.sample()
    for position, index in enumerate(order[: len(order) // 2]):
        # Each job runs untraced and traced, in alternating order, so the
        # overhead compares like with like.
        for traced in ((False, True) if position % 2 else (True, False)):
            spec = dict(specs[index], id=f"t{position}{'t' if traced else 'u'}")
            if traced:
                spec["trace"] = True
            run.clock.maybe_sample()
            run.attempted += 1
            start = time.perf_counter()
            [document] = client.run_batch([spec])
            end = time.perf_counter()
            run.ops.append((start, end))
            if _canonical(document) != reference[index]:
                run.fail(f"traced round trip {position} (job {index}): payload differs",
                         op=spec["id"])
            (traced_ms if traced else untraced_ms).append(run.clock.normalize(start, end) * 1e3)
            if traced:
                spans.op = spec["id"]
                root = spans.add("rtt", start, end)
                meta = document["meta"]
                timeline = meta["trace"]["timeline"]
                dispatched = next(e["at"] for e in timeline if e["ev"] == "dispatch")
                dispatched = min(max(dispatched + offset, start), end)
                busy = min(meta["elapsed_seconds"], end - dispatched)
                spans.add("endpoint.ingress", start, dispatched, root)
                spans.add("service.worker_busy", dispatched, dispatched + busy, root)
                overhead += (end - start - busy) * run.clock.scale((start + end) / 2) * 1e3
    run.clock.sample()
    means = spans.layer_means(run.clock)["rtt"]
    run.layers["kernel.memo_hits"] = (_pool_hits(client) - hits_before) / len(run.ops)
    stats = client.stats().get("meta", {}).get("stats", {}).get("pool", {})
    run.layers["service.worker_busy_ms"] = means.get("service.worker_busy", 0.0)
    run.layers["service.transport_ms"] = means.get("rtt", 0.0)
    run.layers["endpoint.overhead_ms"] = overhead / means["_count"]
    run.layers["service.requeued"] = float(stats.get("requeued", 0))
    run.layers["wire.store_hit_ratio"] = _store_hit_ratio(stats.get("persist"))
    run.layers["harness.trace_overhead"] = median(traced_ms) / median(untraced_ms) - 1.0
    run.report["round_trip_ms"] = means["_total"]
    _replay(run, spans, specs, reference)


def _pool_hits(client) -> int:
    """Cumulative kernel cache hits across the endpoint's workers."""
    pool = client.stats().get("meta", {}).get("stats", {}).get("pool", {})
    return sum(pool.get("cache_hits", {}).values())


def _start_server(run, rep: int):
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    store = _new_store(run.work_dir / f"serve-{rep}.sqlite")
    command = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
               "--min-workers", str(WORKERS), "--memo-store", store]
    with open(run.work_dir / f"serve-{rep}.log", "wb") as log:
        server = subprocess.Popen(command, cwd=str(ROOT), env=env,
                                  stdout=subprocess.PIPE, stderr=log)
    run.on_exit(lambda: _stop_server(server))
    ready, _, _ = select.select([server.stdout], [], [], WAIT_S)
    line = server.stdout.readline().decode("utf-8", "replace") if ready else ""
    match = re.search(r"listening on ([0-9.]+):([0-9]+)", line)
    if match is None:
        raise RuntimeError(f"the endpoint did not start (said {line!r})")
    return server, match.group(1), int(match.group(2))


def _stop_server(server) -> None:
    """Drain the endpoint with SIGTERM, then make sure its workers are gone."""
    if server.returncode is not None:
        return
    workers = child_pids(server.pid)
    server.send_signal(signal.SIGTERM)
    try:
        server.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.communicate()
    for pid in workers:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"repro" in handle.read():
                    os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _replay(run, spans: Spans, specs: list[dict], reference: list[str]) -> None:
    """The worker-side layer split: the corpus replayed in a warm session.

    A worker's busy time is not visible from outside its process, so the
    traced run replays each job layer by layer in one in-process session
    warmed by a first untraced pass, exactly as an affinity-keyed worker is
    warm after the cold pass.  Fuel and counters must equal the solo
    payloads.  Each replayed job counts as an operation of the traced run;
    the replay roots are the traced operations whose time the layer
    metrics split (the round-trip split is in the ``service.*`` metrics).
    """
    from repro import api, cccc

    session = api.Session(name="perfbench-replay")
    warmup = Spans()
    for spec in specs:
        decompose(warmup, session, spec["kind"], spec.get("program"), spec.get("term_b64"), True)
    counts = {"cc.check_steps": 0.0, "cccc.verify_steps": 0.0, "closconv.target_nodes": 0.0,
              "machine.steps": 0.0, "machine.env_allocs": 0.0}
    hits = lookups = 0
    run.clock.sample()
    for index, spec in enumerate(specs):
        run.clock.maybe_sample()
        run.attempted += 1
        spans.op = f"replay-{index}"
        with spans.span("replay"):
            got = decompose(spans, session, spec["kind"], spec.get("program"),
                            spec.get("term_b64"), True)
        payload = json.loads(reference[index])["payload"]
        expected_steps = {
            "check": ("steps", "check_steps"),
            "normalize": ("check_steps", "check_steps"),
            "compile": ("verify_steps", "verify_steps"),
        }.get(spec["kind"])
        if expected_steps is not None:
            ok = payload[expected_steps[0]] == got[expected_steps[1]]
        else:
            ok = (payload["machine_steps"] == got["counters"]["steps"]
                  and payload["env_allocs"] == got["counters"]["env_allocs"]
                  and payload["compile_steps"] == got["check_steps"] + got["verify_steps"])
        if not ok:
            run.fail(f"replay of job {index} ({spec['kind']}) disagrees with its solo payload",
                     op=spans.op)
        counts["cc.check_steps"] += got["check_steps"]
        counts["cccc.verify_steps"] += got.get("verify_steps", 0)
        if "target" in got:
            counts["closconv.target_nodes"] += cccc.term_size(got["target"])
        if "counters" in got:
            counts["machine.steps"] += got["counters"]["steps"]
            counts["machine.env_allocs"] += got["counters"]["env_allocs"]
        if "artifact_hit" in got:
            lookups += 1
            hits += got["artifact_hit"]
    run.clock.sample()
    time_wire_codec(run, spans, [(spec.get("program"), spec.get("term_b64")) for spec in specs])
    run.clock.sample()
    means = spans.layer_means(run.clock)
    run.take_layers(means["replay"], "replay")
    run.layers["wire.codec_ms"] = means["wire.codec"]["wire.codec"]
    run.layers["backend.artifact_hit_ratio"] = hits / lookups if lookups else 0.0
    run.layers["kernel.cache_entries"] = float(sum(session.cache_stats().values()))
    for name, total in counts.items():
        run.layers[name] = total / len(specs)


def _worker_peak_rss_mb(run, parent: int) -> float:
    """The mean of the pool workers' peak RSS; the report lists each one.

    The mean, not the largest: how the corpus's memory splits between
    workers follows the seed's key layout, which moves the largest worker
    by a fifth from seed to seed while the workers' sum barely moves.
    """
    peaks = [peak_rss_mb_of(pid) for pid in child_pids(parent)]
    run.report["worker_peak_rss_mb"] = peaks
    return sum(peaks) / len(peaks)


def _store_hit_ratio(persist: dict | None) -> float:
    if not persist:
        return 0.0
    hits = persist.get("hits", 0) + persist.get("artifact_hits", 0)
    lookups = hits + persist.get("misses", 0) + persist.get("artifact_misses", 0)
    return hits / lookups if lookups else 0.0
