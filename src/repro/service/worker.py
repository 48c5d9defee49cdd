"""The pool worker: one process, one session, one job loop.

A worker is spawned (or forked) by the dispatcher with two queues — its
private job queue and the pool-shared result queue — and a slot/generation
identity.  Everything crossing either queue is a JSON *string*; the wire
format of :mod:`repro.service.jobs` is enforced by construction.

Startup runs the **worker-side state bootstrap**
(:func:`repro.kernel.state.bootstrap_worker_state`): a forked child
inherits the parent's process-default kernel state — warm caches, an
advanced fresh-name counter, accumulated hit counters — and serving jobs
against that would make results depend on parent history and double-count
the parent's statistics in every pool report.  The bootstrap installs a
pristine :class:`~repro.kernel.state.KernelState` as the process default
and the worker's session wraps *that same state*, so the session and every
legacy shim observe one cold, deterministic world.

Protocol (worker → dispatcher on the result queue):

* ``{"op": "begin", "id", "at", "slot", "generation"}`` — sent before
  executing each job, so the dispatcher knows exactly which job was in
  flight if this process dies (crash culpability and timeout tracking);
  ``at`` is the worker's ``time.monotonic()`` when the job began (the
  system-wide clock ``deadline_at`` uses), so ``job_timeout`` does not wait
  for the ack to arrive; a job whose
  ``deadline_at`` passed while it was queued is skipped, never begun;
* ``{"op": "result", "slot", "generation", "result", "hits", "jobs"}`` —
  the job's result document plus the session's *cumulative* hit counters
  (the dispatcher keeps the latest snapshot per worker generation);
* ``{"op": "pong", "token", ...}`` — health-check reply;
* ``{"op": "hb", ...}`` — idle heartbeat (posted when the job queue stays
  empty for a beat), carrying the same cumulative counters as a result;
* ``{"op": "bye", ...}`` — graceful-shutdown acknowledgement with final
  counters.

Every post also carries ``"persist"``: the persistent tier's in-memory
counters (None when no store is attached), so the dispatcher can aggregate
store health — errors, breaker trips, buffer drops — across the pool
without ever touching the workers' SQLite connections.

A ``crash`` job acknowledges ``begin`` and then hard-exits the process
(``os._exit``) — no result, no cleanup — which is exactly the failure the
dispatcher's requeue-on-fresh-worker machinery exists for.  A chaos plan
(``fault_plan``, see :mod:`repro.service.faults`) turns *scheduled* jobs
into exactly that failure: an injected kill dies after the begin-ack with
the tier's unflushed write-buffer still in memory, so recovery is
exercised against genuinely lost cache warmth.
"""

from __future__ import annotations

import json
import os
import queue
import time
from typing import Any

from repro.service.executor import execute_job
from repro.service.jobs import Job

__all__ = ["worker_main"]

#: Seconds of empty job queue before an idle worker posts a heartbeat.
_HEARTBEAT_SECONDS = 2.0


def worker_main(
    slot: int,
    generation: int,
    name: str,
    job_queue: Any,
    result_queue: Any,
    engine: str,
    fuel: int | None,
    memo_store: str | None = None,
    fault_plan: dict[str, Any] | None = None,
) -> None:
    """The worker process entry point (top-level, so ``spawn`` can import it).

    ``memo_store`` is the path of the pool's shared persistent memo tier;
    each worker opens its own SQLite connection (WAL arbitrates the
    cross-process traffic) and batches write-backs in its own append
    transactions — flushed at a size threshold and on graceful shutdown.
    A crash loses only unflushed cache warmth, never correctness: the
    store is an append-only cache of fuel-replaying, content-keyed entries.

    ``fault_plan`` is a :class:`~repro.service.faults.FaultPlan` wire dict;
    when present the worker installs a process-wide
    :class:`~repro.service.faults.FaultInjector` so the executor (and the
    store underneath it) fire the scheduled faults.
    """
    from repro.api import Session
    from repro.kernel.state import bootstrap_worker_state

    state = bootstrap_worker_state(name, engine=engine, fuel=fuel, memo_store=memo_store)
    session = Session(_state=state)
    jobs_done = 0

    injector = None
    if fault_plan:
        from repro.service import faults

        injector = faults.FaultInjector(faults.FaultPlan.from_dict(fault_plan))
        faults.install(injector)

    def flush_tier() -> None:
        if state.persistent is not None:
            state.persistent.store.flush()

    def post(document: dict[str, Any]) -> None:
        document.setdefault("slot", slot)
        document.setdefault("generation", generation)
        document.setdefault("worker", name)
        document.setdefault(
            "persist",
            state.persistent.counters() if state.persistent is not None else None,
        )
        result_queue.put(json.dumps(document))

    while True:
        try:
            raw = job_queue.get(timeout=_HEARTBEAT_SECONDS)
        except queue.Empty:
            post({"op": "hb", "jobs": jobs_done, "hits": state.hit_counts()})
            continue
        message = json.loads(raw)
        op = message.get("op")
        if op == "stop":
            flush_tier()
            post({"op": "bye", "hits": state.hit_counts(), "jobs": jobs_done})
            return
        if op == "ping":
            post(
                {
                    "op": "pong",
                    "token": message.get("token"),
                    "pid": os.getpid(),
                    "jobs": jobs_done,
                    "hits": state.hit_counts(),
                }
            )
            continue
        if op != "job":  # pragma: no cover - protocol misuse
            post({"op": "error", "message": f"unknown op {op!r}"})
            continue
        expires = message.get("deadline_at")
        if expires is not None and time.monotonic() > expires:
            # Expired in the queue: the dispatcher dead-letters it by the
            # same rule (never begun, so no begin-ack), and running it would
            # only keep this worker from the jobs behind it.
            continue
        job = Job.from_dict(message["spec"])
        if injector is not None:
            injector.begin(job.id, message.get("attempt", 0))
        # Stamped here: the post leaves through the queue's feeder thread,
        # which cannot run while the job holds the GIL.
        post({"op": "begin", "id": job.id, "at": time.monotonic()})
        if job.kind == "crash" or (injector is not None and injector.kill(job.id)):
            # Flush the begin-ack before dying: ``put`` hands the message
            # to a feeder thread, and ``os._exit`` would race it.  (A real
            # SIGKILL *can* lose the ack — the dispatcher's recovery blames
            # the queue head in that case, so the retry loop stays bounded.)
            # The tier is deliberately NOT flushed: an injected kill must
            # lose its unflushed store entries, like any real crash.
            result_queue.close()
            result_queue.join_thread()
            os._exit(3)
        result = execute_job(session, job)
        jobs_done += 1
        result.meta["slot"] = slot
        result.meta["generation"] = generation
        post(
            {
                "op": "result",
                "result": result.to_dict(),
                "hits": state.hit_counts(),
                "jobs": jobs_done,
            }
        )
