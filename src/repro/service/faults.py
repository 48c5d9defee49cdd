"""Seeded, deterministic fault injection for the service and the store.

A :class:`FaultPlan` schedules failures at exact *jobs* — worker kills,
hung/slow executions, persistent-tier read/write errors, wire-payload
corruption — reproducibly from one seed.  The plan is pure JSON-safe data
(it crosses the fork boundary in the worker spawn args), and the same seed
always yields the same schedule, which is what lets the chaos benchmark use
Bowman–Ahmed determinism as its oracle: under any plan, every job the
faults do not *semantically* poison must produce a payload byte-identical
to a fault-free solo run, and two chaos runs of the same seed must agree on
every byte — dead-letter documents included.

Fault kinds and where they fire:

* ``kill`` — the worker hard-exits (``os._exit``) right after the job's
  ``begin`` ack, exactly like a ``crash`` job but aimed at a *real* job so
  its requeued retries exercise the recovery path.  ``attempts`` bounds
  which dispatch attempts die: ``1`` is a transient crasher (the retry
  survives), ``-1`` is a **poison job** that kills every attempt and must
  end as a dead-letter document.  In-process (solo) execution has no
  worker to kill, so ``kill`` faults are inert there.
* ``delay`` — the executor sleeps ``seconds`` before running the job.
  With ``seconds`` beyond the dispatcher's ``job_timeout`` this is a hung
  job: the worker is recycled and the retry (no longer delayed when
  ``attempts=1``) completes normally.
* ``store_read_error`` / ``store_write_error`` — every persistent-tier
  SQLite read/write issued *while this job executes* raises, via the
  :data:`repro.wire.persist.FAULT_HOOK` seam.  The store's error counting
  and circuit breaker absorb them; payloads must not change.
* ``wire_corrupt`` — the job's payload is deterministically corrupted
  before ingest (one byte of ``term_b64``, or one character of
  ``program``).  The decoder/lexer rejects it with a deterministic error
  document; like poison jobs, corrupted jobs are *expected* to diverge
  from the fault-free run, and :meth:`FaultPlan.divergent_ids` names them.
* ``conn_drop`` / ``conn_stall`` / ``conn_truncate`` — **connection**
  faults, fired by the service endpoint at the exact (connection, job)
  coordinate where a result is about to be delivered: the connection is
  aborted before the result line (``drop``), the delivery stalls for
  ``seconds`` (``stall``), or half the line is written and the connection
  closed mid-document (``truncate``).  The client's reconnect-and-resubmit
  machinery recovers every one of them — results stay byte-identical, so
  connection faults never enter :meth:`FaultPlan.divergent_ids`.  Delivery
  attempts are counted separately from dispatch attempts (a resubmitted
  job is a fresh delivery), and generated plans keep connection faults
  transient (``attempts=1``) so retries terminate.

The hook is zero-cost when off: the executor and the store consult one
module-level slot (:func:`active`, :data:`~repro.wire.persist.FAULT_HOOK`)
that is ``None`` outside chaos runs.
"""

from __future__ import annotations

import random
import sqlite3
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterable, Mapping

from repro.service.jobs import Job

__all__ = [
    "CONNECTION_KINDS",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "activate",
    "active",
    "install",
    "retry_delay",
]

#: Every fault kind a plan may schedule.
FAULT_KINDS = (
    "kill",
    "delay",
    "store_read_error",
    "store_write_error",
    "wire_corrupt",
    "conn_drop",
    "conn_stall",
    "conn_truncate",
)

#: The connection-category kinds: fired at result-delivery time by the
#: service endpoint, recovered by the client's resubmit machinery.
CONNECTION_KINDS = frozenset({"conn_drop", "conn_stall", "conn_truncate"})


def retry_delay(base: float, cap: float, streak: int, key: str) -> float:
    """The backoff before retry ``streak``: capped exponential, jittered.

    ``base`` doubles per streak up to ``cap``, times a jitter factor in
    [0.75, 1.25) taken from a blake2b hash of ``key`` — no random source,
    so two runs of the same failure history back off the same.  The client
    (reconnects, shed retries) and the dispatcher (slot respawns) share it.
    """
    digest = blake2b(key.encode("utf-8"), digest_size=2).digest()
    jitter = 0.75 + int.from_bytes(digest, "little") / 65536 * 0.5
    return min(cap, base * (2 ** (streak - 1))) * jitter


@dataclass(frozen=True)
class Fault:
    """One scheduled failure, bound to one job id.

    ``attempts`` bounds the dispatch attempts the fault fires on: it fires
    while ``attempt < attempts``, and ``-1`` means every attempt (poison).
    ``seconds`` is the stall length for ``delay`` faults.
    """

    kind: str
    job_id: str
    attempts: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if type(self.kind) is not str:
            raise ValueError("fault field 'kind' must be a string")
        if type(self.job_id) is not str:
            raise ValueError("fault field 'job_id' must be a string")
        if type(self.attempts) is not int:
            raise ValueError("fault field 'attempts' must be an integer")
        if type(self.seconds) not in (int, float):
            raise ValueError("fault field 'seconds' must be a number")
        if self.kind not in FAULT_KINDS:
            expected = ", ".join(FAULT_KINDS)
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {expected})")
        if self.attempts == 0 or self.attempts < -1:
            raise ValueError("fault attempts must be positive or -1 (every attempt)")

    def fires_on(self, attempt: int) -> bool:
        """Does this fault fire on dispatch attempt ``attempt`` (0-based)?"""
        return self.attempts < 0 or attempt < self.attempts

    def to_dict(self) -> dict[str, Any]:
        spec: dict[str, Any] = {"kind": self.kind, "job_id": self.job_id}
        if self.attempts != 1:
            spec["attempts"] = self.attempts
        if self.seconds:
            spec["seconds"] = self.seconds
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "Fault":
        """Parse a wire spec; a missing or mistyped field is a ValueError."""
        if not isinstance(spec, Mapping):
            raise ValueError("a fault must be an object")
        for name in ("kind", "job_id"):
            if name not in spec:
                raise ValueError(f"fault spec is missing {name!r}")
        return cls(
            kind=spec["kind"],
            job_id=spec["job_id"],
            attempts=spec.get("attempts", 1),
            seconds=spec.get("seconds", 0.0),
        )


class FaultPlan:
    """A deterministic schedule of faults, keyed by job id.

    Build one explicitly from :class:`Fault` records, or derive one from a
    seed with :meth:`generate` — the same seed over the same job-id list
    always yields the same schedule (``random.Random`` is stable across
    runs and platforms for the operations used here).
    """

    def __init__(self, faults: Iterable[Fault] = (), seed: int | None = None) -> None:
        self.seed = seed
        self._by_job: dict[str, tuple[Fault, ...]] = {}
        for fault in faults:
            self._by_job[fault.job_id] = self._by_job.get(fault.job_id, ()) + (fault,)

    @classmethod
    def generate(
        cls,
        seed: int,
        job_ids: Iterable[str],
        *,
        kills: int = 0,
        poisons: int = 0,
        delays: int = 0,
        store_read_errors: int = 0,
        store_write_errors: int = 0,
        corruptions: int = 0,
        conn_drops: int = 0,
        conn_stalls: int = 0,
        conn_truncates: int = 0,
        delay_seconds: float = 0.05,
        stall_seconds: float = 0.05,
        corruptible_ids: Iterable[str] | None = None,
    ) -> "FaultPlan":
        """A seeded schedule over ``job_ids``; each job gets at most one fault.

        Categories draw disjoint victims in a fixed order, so the schedule
        is a pure function of (seed, job id list, counts).  ``poisons`` are
        ``kill`` faults with ``attempts=-1`` (they die on every attempt and
        must dead-letter); plain ``kills`` are transient (first attempt
        only).  ``corruptible_ids`` restricts ``wire_corrupt`` victims
        (e.g. to the jobs that actually carry a payload).  The connection
        categories (``conn_drops``/``conn_stalls``/``conn_truncates``) draw
        from the same single-seed stream, after the worker/store/wire
        categories, and are always transient — a dropped or truncated
        delivery is retried by the client, so connection faults never
        extend :meth:`divergent_ids`.
        """
        rng = random.Random(seed)
        pool = list(dict.fromkeys(job_ids))  # stable order, no duplicates
        faults: list[Fault] = []

        def draw(count: int, candidates: list[str]) -> list[str]:
            count = min(count, len(candidates))
            chosen = rng.sample(candidates, count) if count else []
            for job_id in chosen:
                pool.remove(job_id)
            return chosen

        for job_id in draw(poisons, list(pool)):
            faults.append(Fault("kill", job_id, attempts=-1))
        for job_id in draw(kills, list(pool)):
            faults.append(Fault("kill", job_id, attempts=1))
        for job_id in draw(delays, list(pool)):
            faults.append(Fault("delay", job_id, attempts=1, seconds=delay_seconds))
        for job_id in draw(store_read_errors, list(pool)):
            faults.append(Fault("store_read_error", job_id, attempts=-1))
        for job_id in draw(store_write_errors, list(pool)):
            faults.append(Fault("store_write_error", job_id, attempts=-1))
        corrupt_pool = list(pool)
        if corruptible_ids is not None:
            allowed = set(corruptible_ids)
            corrupt_pool = [job_id for job_id in corrupt_pool if job_id in allowed]
        for job_id in draw(corruptions, corrupt_pool):
            faults.append(Fault("wire_corrupt", job_id, attempts=-1))
        for job_id in draw(conn_drops, list(pool)):
            faults.append(Fault("conn_drop", job_id, attempts=1))
        for job_id in draw(conn_stalls, list(pool)):
            faults.append(Fault("conn_stall", job_id, attempts=1, seconds=stall_seconds))
        for job_id in draw(conn_truncates, list(pool)):
            faults.append(Fault("conn_truncate", job_id, attempts=1))
        return cls(faults, seed=seed)

    # -- queries --------------------------------------------------------------

    def for_job(self, job_id: str | None) -> tuple[Fault, ...]:
        if job_id is None:
            return ()
        return self._by_job.get(job_id, ())

    def __len__(self) -> int:
        return sum(len(faults) for faults in self._by_job.values())

    def faulted_ids(self) -> frozenset[str]:
        """Every job id the plan touches at all."""
        return frozenset(self._by_job)

    def poisoned_ids(self, max_attempts: int) -> frozenset[str]:
        """Jobs whose kill faults exhaust ``max_attempts`` → dead letters."""
        return frozenset(
            job_id
            for job_id, faults in self._by_job.items()
            if any(
                fault.kind == "kill"
                and (fault.attempts < 0 or fault.attempts >= max_attempts)
                for fault in faults
            )
        )

    def corrupted_ids(self) -> frozenset[str]:
        return frozenset(
            job_id
            for job_id, faults in self._by_job.items()
            if any(fault.kind == "wire_corrupt" for fault in faults)
        )

    def divergent_ids(self, max_attempts: int) -> frozenset[str]:
        """Jobs whose *payloads* legitimately differ from a fault-free run.

        Poison jobs end as dead-letter documents; corrupted jobs end as
        decode/parse error documents.  Every other faulted job (transient
        kills, delays, store errors, and every connection-category fault —
        dropped, stalled, or truncated deliveries are resubmitted by the
        client) must still be byte-identical to the fault-free solo run —
        that is the harness's whole point, and why this set is *complete*:
        anything outside it diverging is a bug.
        """
        return self.poisoned_ids(max_attempts) | self.corrupted_ids()

    def summary(self, max_attempts: int = 2) -> dict[str, Any]:
        """A JSON-safe digest for batch reports and benchmark artifacts."""
        by_kind: dict[str, int] = {}
        for faults in self._by_job.values():
            for fault in faults:
                by_kind[fault.kind] = by_kind.get(fault.kind, 0) + 1
        return {
            "seed": self.seed,
            "faults": len(self),
            "by_kind": dict(sorted(by_kind.items())),
            "faulted_ids": sorted(self.faulted_ids()),
            "divergent_ids": sorted(self.divergent_ids(max_attempts)),
        }

    # -- wire form ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        faults = [
            fault.to_dict()
            for job_id in sorted(self._by_job)
            for fault in self._by_job[job_id]
        ]
        spec: dict[str, Any] = {"faults": faults}
        if self.seed is not None:
            spec["seed"] = self.seed
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FaultPlan":
        """Parse a plan's wire form; a malformed plan is a ValueError."""
        if not isinstance(spec, Mapping):
            raise ValueError("a fault plan must be an object")
        faults = spec.get("faults", ())
        if not isinstance(faults, (list, tuple)):
            raise ValueError("fault plan field 'faults' must be a list")
        return cls((Fault.from_dict(entry) for entry in faults), seed=spec.get("seed"))

    @classmethod
    def coerce(cls, plan: "FaultPlan | Mapping[str, Any] | None") -> "FaultPlan | None":
        """A :class:`FaultPlan` from a plan, its wire dict, or None."""
        if plan is None or isinstance(plan, FaultPlan):
            return plan
        return cls.from_dict(plan)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, FaultPlan) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed!r}, faults={len(self)})"


def _corrupt_position(job_id: str, length: int) -> int:
    """A deterministic byte position to corrupt — a pure function of the id."""
    digest = blake2b(job_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % max(length, 1)


class FaultInjector:
    """The runtime face of a plan: what actually fires, where, and when.

    One injector lives per worker process (installed by ``worker_main``)
    or per solo batch (activated around the executor loop).  The worker
    reports each job's dispatch attempt via :meth:`begin`; solo execution
    never calls it, so every fault behaves as attempt 0 there.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._attempts: dict[str, int] = {}
        self._deliveries: dict[str, int] = {}
        #: (kind, job_id, attempt) for every fault that actually fired —
        #: telemetry for tests; never part of a deterministic payload.
        self.fired: list[tuple[str, str, int]] = []

    def begin(self, job_id: str | None, attempt: int) -> None:
        """Record the dispatch attempt the worker is about to run."""
        if job_id is not None:
            self._attempts[job_id] = attempt

    def _attempt(self, job_id: str | None) -> int:
        return self._attempts.get(job_id, 0) if job_id is not None else 0

    def _firing(self, job_id: str | None, kind: str) -> Fault | None:
        attempt = self._attempt(job_id)
        for fault in self.plan.for_job(job_id):
            if fault.kind == kind and fault.fires_on(attempt):
                return fault
        return None

    # -- worker-level faults --------------------------------------------------

    def kill(self, job_id: str | None) -> bool:
        """Should the worker hard-exit instead of running this job?"""
        fault = self._firing(job_id, "kill")
        if fault is None:
            return False
        self.fired.append(("kill", fault.job_id, self._attempt(job_id)))
        return True

    # -- executor-level faults ------------------------------------------------

    def stall_seconds(self, job_id: str | None) -> float:
        """How long the executor must sleep before running this job."""
        fault = self._firing(job_id, "delay")
        if fault is None:
            return 0.0
        self.fired.append(("delay", fault.job_id, self._attempt(job_id)))
        return fault.seconds

    def mutate(self, job: Job) -> Job:
        """The job with its wire payload corrupted, when the plan says so.

        Corruption is a pure function of the job id: one base64 character
        of ``term_b64`` (or one character of ``program``) is replaced at a
        position derived from the id's hash, so the same job corrupts the
        same way in every run of the plan — the decode error document it
        produces is deterministic.
        """
        fault = self._firing(job.id, "wire_corrupt")
        if fault is None:
            return job
        self.fired.append(("wire_corrupt", fault.job_id, self._attempt(job.id)))
        spec = job.to_dict()
        if job.term_b64:
            position = _corrupt_position(job.id or "", len(job.term_b64))
            original = job.term_b64[position]
            flipped = "A" if original != "A" else "B"
            spec["term_b64"] = (
                job.term_b64[:position] + flipped + job.term_b64[position + 1 :]
            )
        elif job.program:
            position = _corrupt_position(job.id or "", len(job.program))
            # The lexer rejects this control character with a deterministic
            # ParseError carrying the corruption position.
            spec["program"] = (
                job.program[:position] + "\x07" + job.program[position + 1 :]
            )
        return Job.from_dict(spec)

    # -- endpoint-level (connection) faults -----------------------------------

    def delivery_fault(self, job_id: str | None) -> Fault | None:
        """The connection fault to apply to this job's result delivery.

        Called by the service endpoint exactly once per delivery attempt —
        the call *is* the attempt counter, separate from dispatch attempts:
        a resubmitted job (same id, fresh connection) is delivery attempt 1
        and a transient fault (``attempts=1``) no longer fires, which is
        what makes client reconnect-and-resubmit terminate.
        """
        if job_id is None:
            return None
        attempt = self._deliveries.get(job_id, 0)
        self._deliveries[job_id] = attempt + 1
        for fault in self.plan.for_job(job_id):
            if fault.kind in CONNECTION_KINDS and fault.fires_on(attempt):
                self.fired.append((fault.kind, fault.job_id, attempt))
                return fault
        return None

    def store_window(self, job_id: str | None):
        """Context manager arming store faults for this job's duration.

        Installs :data:`repro.wire.persist.FAULT_HOOK` so every SQLite
        read/write the persistent tier issues while the job executes
        raises ``sqlite3.OperationalError`` for the scheduled kinds.  The
        hook is restored on exit; when the job has no store faults this is
        a :func:`~contextlib.nullcontext`.
        """
        ops = set()
        for kind, op in (("store_read_error", "read"), ("store_write_error", "write")):
            fault = self._firing(job_id, kind)
            if fault is not None:
                ops.add(op)
                self.fired.append((kind, fault.job_id, self._attempt(job_id)))
        if not ops:
            return nullcontext()
        return self._armed(job_id, frozenset(ops))

    @contextmanager
    def _armed(self, job_id: str | None, ops: frozenset[str]):
        from repro.wire import persist

        def hook(op: str) -> None:
            if op in ops:
                raise sqlite3.OperationalError(
                    f"injected {op} fault (job {job_id})"
                )

        previous = persist.FAULT_HOOK
        persist.FAULT_HOOK = hook
        try:
            yield
        finally:
            persist.FAULT_HOOK = previous


# --------------------------------------------------------------------------
# The active injector: one module-level slot, None outside chaos runs.
# --------------------------------------------------------------------------

_ACTIVE: FaultInjector | None = None


def active() -> FaultInjector | None:
    """The injector in force for this process, or None (the fast path)."""
    return _ACTIVE


def install(injector: FaultInjector | None) -> None:
    """Install ``injector`` process-wide (worker bootstrap; None uninstalls)."""
    global _ACTIVE
    _ACTIVE = injector


@contextmanager
def activate(injector: FaultInjector):
    """Scope ``injector`` to a block — the solo chaos path."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
