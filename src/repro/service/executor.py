"""Execute one wire job against one session — pooled and solo alike.

This is the single definition of what a job *means*.  Pool workers call it
from their process-private session; the in-process solo path
(:func:`repro.api.execute_jobs` with ``workers=0``) calls the same function
against a local session.  Pooled results are therefore byte-identical to
solo runs by construction — there is exactly one executor.

Determinism across shard assignments comes from two mechanisms:

* **α-canonical ingest and egress.**  The program — surface text, or a
  binary DAG buffer when the job speaks wire version 2 — is decoded and
  then *interned* (:func:`repro.kernel.intern.intern`), so α-equivalent
  jobs resolve to the same canonical term object — which is what lets a
  warm worker's identity-keyed memo caches hit across repeated jobs.  Every
  term in the payload is rendered from its interned representative, whose
  binder names are a pure function of the α-class: machine-freshened
  names (which depend on execution history) can never reach the wire.
* **Fuel replay.**  Step counts come from :class:`~repro.kernel.budget.Budget`
  totals, and every cache in the kernel replays recorded fuel on a hit —
  a warm worker reports exactly the steps a cold solo run reports,
  including the position of a fuel-exhaustion error.

Failures of kernel work (parse errors, type errors, fuel exhaustion, link
errors) are *results*, not exceptions: they travel the wire as the
deterministic ``error`` half of the result document.

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
from types import ModuleType
from typing import TYPE_CHECKING, Any

from repro import cc, cccc
from repro.common.errors import ReproError
from repro.service import faults
from repro.service.jobs import Job, JobResult
from repro.surface import parse_term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

__all__ = ["execute_job"]


def _canon(calculus: ModuleType, term: Any) -> str:
    """α-canonical rendering of a ``calculus`` term (deterministic across sessions)."""
    return calculus.pretty(calculus.intern(term))


def _b64(calculus: ModuleType, term: Any) -> str:
    """Binary DAG rendering of a ``calculus`` term's interned representative.

    As deterministic as the pretty text: the encoder is canonical and the
    interned representative is a pure function of the α-class.
    """
    from repro.wire.codec import term_to_b64

    return term_to_b64(calculus.ast.LANGUAGE, calculus.intern(term))


def _ingest(job: Job) -> cc.Term:
    """The job's program as an interned CC term — binary or text path.

    Binary ingest is O(new nodes): the decoder adopts every node whose
    content hash the session already knows, and interning the decoded DAG
    memoizes per unique (node, depth).  Both paths land on the same
    α-canonical representative, so payloads are byte-identical whichever
    wire the job arrived on.
    """
    if job.term_b64 is not None:
        from repro.wire.codec import term_from_b64

        return cc.intern(term_from_b64(cc.ast.LANGUAGE, job.term_b64))
    return cc.intern(parse_term(job.program))


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
    if isinstance(failure, RecursionError):
        # Where the limit trips (and so the interpreter's wording) depends
        # on the caller's stack depth, which differs between solo and pool.
        return "RecursionError: input nesting exceeds the interpreter's recursion limit"
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
        # Anything else (e.g. RecursionError on a very deep input) is still
        # a deterministic result, never an escaped exception or a dead
        # worker: class name plus text, with addresses scrubbed.
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


def _run_payload(result: Any) -> dict[str, Any]:
    """The deterministic payload both run backends share.

    Built from the flat :class:`~repro.api.RunResult` fields (never
    ``compile_result``, which is None on a warm compile-memo or artifact hit),
    so a warm pooled run renders byte-for-byte what a cold solo run renders.
    """
    return {
        "term": _canon(cc, result.source),
        "value": result.observed,
        "code_blocks": result.code_count,
        "machine_steps": result.machine_steps,
        "closure_allocs": result.closure_allocs,
        "tuple_allocs": result.tuple_allocs,
        "projections": result.projections,
        "env_allocs": result.env_allocs,
        "max_env_size": result.max_env_size,
        "verified": result.verified,
        "compile_steps": result.compile_steps,
        "backend": result.backend,
    }


def _dispatch(session: "Session", job: Job) -> dict[str, Any]:
    """The kind table: one wire job → one deterministic payload dict."""
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

    binary = job.wire >= 2
    with session.activate():
        term = _ingest(job)
        if job.kind == "parse":
            payload = {"term": _canon(cc, term)}
            if binary:
                payload["term_b64"] = _b64(cc, term)
            return payload
        if job.kind == "check":
            result = session.check(term)
            payload = {
                "term": _canon(cc, result.term),
                "type": _canon(cc, result.type_),
                "steps": result.steps,
            }
            if binary:
                payload["term_b64"] = _b64(cc, result.term)
                payload["type_b64"] = _b64(cc, result.type_)
            return payload
        if job.kind == "normalize":
            result = session.normalize(term, engine=job.engine)
            payload = {
                "term": _canon(cc, result.term),
                "normal": _canon(cc, result.value),
                "type": _canon(cc, result.type_),
                "steps": result.steps,
                "check_steps": result.check_steps,
                "engine": result.engine,
            }
            if binary:
                payload["term_b64"] = _b64(cc, result.term)
                payload["normal_b64"] = _b64(cc, result.value)
            return payload
        if job.kind == "compile":
            result = session.compile(term, verify=job.verify)
            payload = {
                "term": _canon(cc, result.compilation.source),
                "type": _canon(cc, result.compilation.source_type),
                "target": _canon(cccc, result.target),
                "target_type": _canon(cccc, result.target_type),
                "verified": result.verified,
                "steps": result.steps,
                "check_steps": result.check_steps,
                "verify_steps": result.verify_steps,
            }
            if binary:
                payload["term_b64"] = _b64(cc, result.compilation.source)
                payload["target_b64"] = _b64(cccc, result.target)
            return payload
        if job.kind == "run":
            result = session.run(term, verify=job.verify)
            return _run_payload(result)
        if job.kind == "compile_py":
            # The differential contract: this payload equals the machine
            # "run" payload for the same spec once the two backend-only
            # keys ("backend", "artifact") are dropped — values, counters,
            # fuel, and error documents alike.
            result = session.run(term, verify=job.verify, engine="compiled")
            payload = _run_payload(result)
            payload["artifact"] = result.artifact
            return payload
        if job.kind == "link":
            ctx = cc.Context.empty()
            for name, type_text in job.interface:
                ctx = ctx.extend(name, parse_term(type_text))
            imports = {
                name: parse_term(text) for name, text in job.imports.items()
            }
            result = session.link(ctx, term, imports)
            payload = {
                "term": _canon(cc, result.term),
                "type": _canon(cc, result.type_),
                "steps": result.steps,
                "imports_linked": len(job.imports),
            }
            if binary:
                payload["term_b64"] = _b64(cc, result.term)
            return payload
    raise AssertionError(f"unhandled job kind {job.kind!r}")  # pragma: no cover
