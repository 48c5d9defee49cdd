"""The sharded normalization service: a process-pool dispatch layer.

PR 4 made :class:`repro.api.Session` the unit of isolation — interleaved
sessions are byte-identical to solo runs — but every session still shares
one interpreter and one GIL.  This subsystem is the next scaling step the
ROADMAP names: batches of independent kernel jobs (``check`` /
``normalize`` / ``compile`` / ``run`` / ``link``) dispatched across a pool
of **worker processes**, one session per worker.

The paper makes the sharding sound: Bowman & Ahmed's separate-compilation
story (Theorem 5.8) means each ``compile``/``link``/``run`` job carries no
shared mutable state, and closure-converted evaluation is embarrassingly
parallel across independent programs.  Operationally:

* :mod:`repro.service.jobs` — the JSON wire format: job specs in, split
  deterministic payloads / nondeterministic telemetry out;
* :mod:`repro.service.executor` — one job against one session, used
  identically by pool workers and by the in-process solo path, so pooled
  results are byte-identical to solo runs by construction;
* :mod:`repro.service.worker` — the worker process: state bootstrap, job
  loop, health and stats reporting;
* :mod:`repro.service.dispatcher` — the pool: bounded queue,
  round-robin-with-affinity sharding, crash detection with requeue onto a
  fresh worker, per-job timeouts, graceful shutdown, aggregated stats —
  and the hardened failure domains: poison-job quarantine (dead-letter
  documents), exponential respawn backoff with deterministic jitter, and
  a per-slot crash-loop breaker;
* :mod:`repro.service.faults` — the seeded deterministic fault-injection
  harness (:class:`~repro.service.faults.FaultPlan`): worker kills, hung
  jobs, persistent-tier errors, wire corruption, and connection faults
  (dropped/stalled/truncated deliveries) scheduled at exact jobs,
  reproducible from one seed, zero-cost when off;
* :mod:`repro.service.endpoint` — the socket front door: an asyncio
  NDJSON server with admission control (windowed backpressure, hard-limit
  shedding), per-client fair share (each connection admits one job per
  turn of the event loop, straight into the pool), deadlines, graceful
  drain, and elastic pool scaling, which the dispatcher runs on its
  collector's tick (:class:`~repro.service.dispatcher.ScalingRule`);
* :mod:`repro.service.client` — the bundled windowed client: retry with
  deterministic backoff jitter, reconnect-and-resubmit keyed by job id.

The CLI front ends are ``python -m repro batch`` (local pool, or
``--connect HOST:PORT`` against a running server) and ``python -m repro
serve``; the programmatic front end is :func:`repro.api.execute_jobs`,
which runs the same executor pooled (``workers > 0``), solo
(``workers = 0``), or remotely (``connect=...``).
"""

import importlib

#: Each submodule and the names it exports, imported on first use: loading
#: one submodule (``repro.service.jobs`` for the entrypoint table, say)
#: loads neither the pool nor the socket endpoint.
_EXPORTS = {
    "client": ("ServiceClient",),
    "dispatcher": ("Dispatcher", "PoolStats"),
    "endpoint": ("Endpoint", "EndpointServer", "serve_background"),
    "executor": ("execute_job",),
    "faults": ("Fault", "FaultInjector", "FaultPlan"),
    "jobs": ("Job", "JobResult"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
