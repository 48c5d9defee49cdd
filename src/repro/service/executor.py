"""Execute one wire job against one session — pooled and solo alike.

This is the single definition of what a job *means*.  Pool workers call it
from their process-private session; the in-process solo path
(:func:`repro.api.execute_jobs` with ``workers=0``) calls the same function
against a local session.  Pooled results are therefore byte-identical to
solo runs by construction — there is exactly one executor.

The executor handles the four service kinds itself.  A program kind calls
its ``Session`` method through the entrypoint table of
:mod:`repro.service.jobs`, and its payload is the result's own
``payload()`` plus the kind's extra keys.

Determinism across shard assignments comes from two mechanisms:

* **α-canonical ingest and egress.**  The program — surface text, or a
  binary DAG buffer when the job speaks wire version 2 — is decoded and
  then *interned* (:func:`repro.kernel.intern.intern`), so α-equivalent
  jobs resolve to the same canonical term object — which is what lets a
  warm worker's identity-keyed memo caches hit across repeated jobs.  Every
  term in the payload is rendered from its interned representative, whose
  binder names are a pure function of the α-class: machine-freshened
  names (which depend on execution history) can never reach the wire.
  The rendering runs under the session's ``activate()``, since interning
  reads the session's tables.  A warm job is ingested and rendered once:
  the session's ingest memo (:func:`_ingest`, which also holds a link
  job's parsed interface and import texts) and payload-text memo
  (:data:`repro.api.PAYLOAD_TEXT`) hold pure functions of their keys, so
  it reaches neither the parser, the decoder, the printer nor the
  encoder, and its payload is the cold one byte for byte.
* **Fuel replay.**  Step counts come from :class:`~repro.kernel.budget.Budget`
  totals, and every cache in the kernel replays recorded fuel on a hit —
  a warm worker reports exactly the steps a cold solo run reports,
  including the position of a fuel-exhaustion error.

Failures of kernel work (parse errors, type errors, fuel exhaustion, link
errors) are *results*, not exceptions: they travel the wire as the
deterministic ``error`` half of the result document.  A program kind runs
on the deep-stack runner (:mod:`repro.common.deep`), so a deep input gets
its result whatever the worker's stack, and an input above the ingest cap
is a ``DepthLimit`` document.

Fault injection (:mod:`repro.service.faults`) hooks in exactly here,
because here is where solo and pooled execution coincide: when an injector
is active the job is first run through ``mutate`` (scheduled wire
corruption — the resulting decode/parse failure is a deterministic error
document like any other), stalled by ``stall_seconds`` (scheduled hangs),
and dispatched inside ``store_window`` (scheduled persistent-tier
read/write errors).  Worker kills live in ``worker.py`` — there is no
process to kill solo.  The off path costs one module-global ``None`` check.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any

from repro import cc
from repro.common.errors import ReproError
from repro.kernel.state import current_state
from repro.service import faults
from repro.service.jobs import ENTRYPOINTS, INGESTED, Job, JobResult, call
from repro.surface import parse_term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

__all__ = ["execute_job"]


def _ingest(job: Job) -> cc.Term:
    """The job's program as an interned CC term — binary or text path.

    Binary ingest is O(new nodes): the decoder adopts every node whose
    content hash the session already knows, and interning the decoded DAG
    memoizes per unique (node, depth).  Both paths land on the same
    α-canonical representative, so payloads are byte-identical whichever
    wire the job arrived on.

    The session's ingest memo (:data:`INGESTED`) maps the wire source
    exactly (:attr:`Job.source`) to the interned term, so a warm job is
    neither lexed, parsed nor decoded.  The entry is a pure function of its
    key; a failure (a parse error, a ``DepthLimit``, a bad buffer) raises
    before anything is stored.  The table is charged the source's length,
    which bounds the term's nodes too.  Runs under the session's
    ``activate()``.
    """
    memo = current_state().dict_cache(INGESTED)
    source = job.source
    found = memo.get(source)
    if found is None:
        if job.term_b64 is not None:
            from repro.wire.codec import term_from_b64

            term = term_from_b64(cc.ast.LANGUAGE, job.term_b64)
        else:
            term = parse_term(job.program)
        found = memo[source] = cc.intern(term)
        memo.chars += len(source[1])
    return found


@contextmanager
def _fuel_override(session: "Session", fuel: int | None):
    """Run the body under a per-job fuel limit, restoring the session's."""
    if fuel is None:
        yield
        return
    state = session.state
    saved = state.fuel
    state.fuel = fuel
    try:
        yield
    finally:
        state.fuel = saved


_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _internal_error_message(failure: BaseException) -> str:
    """A stable one-line message for an unexpected exception.

    No traceback, and hexadecimal addresses (object reprs) are masked, so
    the same input yields the same bytes in every process.
    """
    text = _ADDRESS.sub("0x?", str(failure)).splitlines()
    detail = text[0][:200] if text else ""
    name = type(failure).__name__
    return f"{name}: {detail}" if detail else name


def execute_job(session: "Session", job: Job) -> JobResult:
    """Run ``job`` against ``session``; never raises for a failure of the job."""
    injector = faults.active()
    store_window = nullcontext()
    if injector is not None:
        job = injector.mutate(job)
        stall = injector.stall_seconds(job.id)
        if stall:
            time.sleep(stall)
        store_window = injector.store_window(job.id)
    job_id = job.id if job.id is not None else job.kind
    started = time.perf_counter()
    hits_before = session.state.hit_counts()
    try:
        with _fuel_override(session, job.fuel), store_window:
            payload = _dispatch(session, job)
        ok, error = True, {}
    except ReproError as failure:
        # Deterministic kernel failures: part of the job's defined result.
        payload, ok = {}, False
        error = {"type": type(failure).__name__, "message": str(failure)}
    except Exception as failure:  # noqa: BLE001 - the executor is total
        # Anything else is still a deterministic result, never an escaped
        # exception or a dead worker: class name plus text, with addresses
        # scrubbed.
        payload, ok = {}, False
        error = {"type": "InternalError", "message": _internal_error_message(failure)}
    hits_after = session.state.hit_counts()
    meta = {
        "session": session.name,
        "elapsed_seconds": time.perf_counter() - started,
        "cache_hits": {
            name: hits_after[name] - hits_before.get(name, 0) for name in hits_after
        },
    }
    if ok and job.kind == "stats":
        meta["stats"] = {
            "cache_stats": session.cache_stats(),
            "hit_counts": dict(hits_after),
        }
    if job.trace:
        # The trace rides the telemetry half, never the payload, so traced
        # results stay byte-identical to untraced ones.  ``events`` holds
        # only deterministic fields; wall-clock and warmth-dependent data
        # (elapsed time, cache-hit deltas) go to ``timeline``.  Schema:
        # repro.obs.trace.
        meta["trace"] = {
            "events": [
                {"ev": "execute", "kind": job.kind},
                {"ev": "complete", "ok": ok},
            ],
            "timeline": [
                {
                    "ev": "memo",
                    "elapsed_seconds": meta["elapsed_seconds"],
                    "cache_hits": dict(meta["cache_hits"]),
                }
            ],
        }
    return JobResult(id=job_id, ok=ok, payload=payload, error=error, meta=meta)


def _dispatch(session: "Session", job: Job) -> dict[str, Any]:
    """One wire job → one deterministic payload dict.

    The service kinds are handled here; every program kind goes through
    the entrypoint table (:data:`repro.service.jobs.ENTRYPOINTS`) and its
    result's own rendering.
    """
    if job.kind == "reset":
        # Service policy: a reset returns the session to its cold
        # deterministic zero but keeps the worker *configured* — the shared
        # persistent tier (attached at bootstrap) is re-attached after the
        # state-level detach, because the store holds only content-keyed,
        # fuel-replaying entries that are byte-identical to cold recomputes.
        tier = getattr(session.state, "persistent", None)
        session.reset()
        if tier is not None:
            session.state.attach_memo_store(tier.store)
        return {"reset": True}
    if job.kind == "stats":
        # The deterministic payload is a constant: a telemetry poll must be
        # able to ride any job stream without perturbing the byte-identical
        # pooled-vs-solo differentials.  The actual numbers (session cache
        # stats here; aggregated PoolStats when an endpoint answers the
        # poll itself) travel in the result's telemetry half — see
        # ``execute_job``, which stamps ``meta["stats"]``.
        return {"stats": True}
    if job.kind == "sleep":
        time.sleep(job.seconds)
        return {"slept": job.seconds}
    if job.kind == "crash":
        # Only a pool worker turns this into a real process death (see
        # repro.service.worker); in-process it is a plain failed job.
        raise ReproError("crash job executed outside a worker process")

    return call(
        session, ENTRYPOINTS[job.kind], job, lambda: _ingest(job),
        lambda result, extras: result.payload(binary=job.wire >= 2, **extras),
    )
