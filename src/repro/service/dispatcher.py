"""The pool dispatcher: sharded queues, crash recovery, aggregated stats.

One :class:`Dispatcher` owns an array of worker *slots*.  Each slot
holds one worker process (:mod:`repro.service.worker`) with a private job
queue; all workers share one result queue.  Everything on either queue is
a JSON string — the wire format of :mod:`repro.service.jobs`.

**Sharding** is round-robin-with-affinity: the first job carrying a new
affinity key claims the next slot round-robin, and every later job with
the same key goes to that slot — so a stream of related jobs keeps
hitting one worker's warm memo caches, while distinct streams spread
evenly (hashing keys instead can collide several hot streams onto one
worker and leave others idle).  A job without a key takes the next slot
round-robin, unpinned.  Key assignments live for the dispatcher's
lifetime and survive worker restarts: a requeued job lands on the fresh
worker in its original slot.

**Lifecycle.**  Each slot is one ``_Slot`` — its current worker, its
``state``, the respawn ``due_at``, the crash ``streak`` and the last
heartbeat — whose state moves only along ``_TRANSITIONS``::

    LIVE              death -> BACKOFF, trip -> BROKEN, shrink -> RETIRING
    BACKOFF           respawn -> LIVE, shrink -> RETIRING_BACKOFF
    RETIRING          death -> RETIRING_BACKOFF, trip -> BROKEN, empty -> RETIRED
    RETIRING_BACKOFF  respawn -> RETIRING, empty -> RETIRED
    RETIRED           grow -> LIVE
    BROKEN            terminal

New work lands only on ``LIVE`` and ``BACKOFF`` slots (a job sharded to a
slot in backoff rides its respawn), the collector thread's health scan
watches ``LIVE`` and ``RETIRING`` workers for death, and the backoff
states wait for ``due_at``.  A respawn replaces the dead worker with a
*fresh* one — new process, new generation, new queue, cold session — and
requeues every unfinished job of the slot onto it.  The job that was in
flight at the moment of death (the worker ``begin``-acks each job
precisely so this is known) is the culprit: its attempt counter rises,
and when attempts are exhausted it completes as a failed result instead
of looping forever.  Requeued jobs produce results byte-identical to an
uninterrupted run — cold caches change timing, never payloads, because
every term renders α-canonically and every step count replays from the
fuel caches.

**Failure domains.**  Worker death is contained at three escalating
levels, all deterministic in everything but timing:

* *Quarantine* — the in-flight job is the culprit; when its attempts are
  exhausted it completes as a structured **dead-letter** document
  (``error["dead_letter"] is True``, counted under ``exhausted``) instead
  of consuming another worker.  A slot whose crash ``streak`` passes
  ``suspect_after`` is treated as facing a poison stream: each new
  culprit dead-letters immediately, so a sequence of poison jobs cannot
  serially recycle the pool one ``max_attempts`` cycle at a time.
* *Backoff* — a ``death`` moves the slot to a backoff state instead of
  refilling it at once: ``due_at`` lies an exponentially growing delay
  ahead (``respawn_backoff`` doubling per streak up to
  ``respawn_backoff_cap``) with deterministic jitter derived from the
  slot and generation, never from a random source.  The collector thread
  never sleeps for it; the health scan fires ``respawn`` once it is due.
* *Breaker* — ``max_slot_respawns`` consecutive crashes of one slot
  ``trip`` it to ``BROKEN``, which is terminal: every job stranded on it
  dead-letters with ``CrashLoopBreaker``, new keys shard around it, no
  ``grow`` revives it, and the batch completes cleanly on the surviving
  slots (all slots broken is a hard ``RuntimeError`` — nothing could make
  progress).

**Elasticity.**  The slot array is no longer fixed: :meth:`Dispatcher.grow`
adds a worker slot (reviving the lowest retired slot as a new generation —
a scale event is just a controlled respawn — or appending a brand-new one)
and :meth:`Dispatcher.shrink` retires the highest active slot: new keys
shard around it immediately, its pending jobs finish where they are, and
once empty it is stopped gracefully.  Because every worker attaches the
shared persistent memo store at bootstrap, a freshly grown slot starts
*warm* from the fleet's accumulated entries.  A pool built with
``max_workers`` above ``workers`` scales itself: the collector's health
tick asks a :class:`ScalingRule` (queue-depth watermarks, a cooldown and a
stall rule) and performs its answer under the lock, as it performs a
respawn, so the collector is the pool's only thread.

**Deadlines and timeouts.**  One rule, ``Dispatcher._overrun``, decides
every overrun: a job's ``deadline`` (wall-clock seconds) counts from
acceptance, the pool's ``job_timeout`` from the current attempt's
``begin``-ack.  An overdue running job has its worker killed and is
handled as a death with a known culprit (a timeout consumes an attempt, a
missed deadline never retries); an expired queued job is dead-lettered in
place, and its worker skips it by the same rule — each job message
carries ``deadline_at`` on the system-wide monotonic clock — so a
dead-lettered job never keeps a worker busy.  The ``JobTimeout``
document is a pure function of the job spec and the pool configuration,
never of timing.

**Stats.**  Pool-level aggregation sums per-worker counters without double
counting: each worker's session *is* its process-default state (the
bootstrap guarantees it), so the legacy-shim counters and the session
counters are one set of numbers, and the dispatcher keeps exactly one
cumulative snapshot per worker generation (the latest) and sums those.
The same latest-snapshot rule aggregates the workers' persistent-tier
counters into ``PoolStats.persist``, and per-slot health (generation,
liveness, crash streak, breaker state, heartbeat age) is surfaced under
``PoolStats.slots`` — workers post idle heartbeats precisely so this view
stays fresh between jobs.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Iterable, Mapping

from repro.kernel.state import validate_engine
from repro.service.faults import FaultPlan, retry_delay
from repro.service.jobs import Job, JobResult
from repro.service.worker import worker_main

__all__ = ["Dispatcher", "PoolStats", "ScalingRule"]

_POOL_IDS = itertools.count(1)


@dataclass
class PoolStats:
    """Aggregated pool-level statistics, JSON-ready via :meth:`to_dict`."""

    workers: int = 0
    active: int = 0
    pending: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    requeued: int = 0
    restarts: int = 0
    timeouts: int = 0
    exhausted: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    jobs_per_slot: dict[int, int] = field(default_factory=dict)
    cache_hits: dict[str, int] = field(default_factory=dict)
    persist: dict[str, Any] | None = None
    slots: dict[str, dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The JSON wire form, built by field introspection.

        Iterating ``dataclasses.fields`` (rather than hand-listing keys)
        means a newly added counter reaches the wire automatically — the
        drift test in ``tests/test_obs.py`` asserts the key set matches
        the field set, so a counter can never again be silently dropped
        from the endpoint's stats payload.
        """
        document: dict[str, Any] = {}
        for spec in dataclass_fields(self):
            value = getattr(self, spec.name)
            if spec.name == "jobs_per_slot":
                value = {str(slot): n for slot, n in sorted(value.items())}
            elif spec.name == "slots":
                value = {slot: dict(health) for slot, health in sorted(value.items())}
            elif isinstance(value, dict):
                value = dict(value)
            document[spec.name] = value
        return document


# Slot states; ``_Slot.move`` changes them only along ``_TRANSITIONS``.
LIVE, BACKOFF, RETIRING, RETIRING_BACKOFF, RETIRED, BROKEN = (
    "live", "backoff", "retiring", "retiring_backoff", "retired", "broken"
)
_TRANSITIONS: dict[tuple[str, str], str] = {
    (LIVE, "death"): BACKOFF, (LIVE, "trip"): BROKEN, (LIVE, "shrink"): RETIRING,
    (BACKOFF, "respawn"): LIVE, (BACKOFF, "shrink"): RETIRING_BACKOFF,
    (RETIRING, "death"): RETIRING_BACKOFF, (RETIRING, "trip"): BROKEN,
    (RETIRING, "empty"): RETIRED,
    (RETIRING_BACKOFF, "respawn"): RETIRING, (RETIRING_BACKOFF, "empty"): RETIRED,
    (RETIRED, "grow"): LIVE,
}
_AVAILABLE = frozenset({LIVE, BACKOFF})  # new work may land here
_RUNNING = frozenset({LIVE, RETIRING})  # a worker the health scan watches
_WAITING = frozenset({BACKOFF, RETIRING_BACKOFF})  # a respawn is due at due_at
_DRAINING = frozenset({RETIRING, RETIRING_BACKOFF})  # retired once empty

# The exhausted dead-letter documents, by cause: a missed deadline, a pool
# timeout or a crash on the last attempt, and a crash on a slot whose streak
# marks a poison stream.
_QUARANTINE = {
    "deadline": ("JobTimeout", "job missed its {deadline}s deadline"),
    "timeout": ("JobTimeout", "job exceeded the {timeout}s timeout ({attempts} attempt(s))"),
    "crash": ("WorkerCrash", "worker died while executing this job ({attempts} attempt(s))"),
    "suspect": (
        "WorkerCrash",
        "worker died while executing this job and the slot's crash streak "
        "exceeded {suspect_after}; quarantined after {attempts} attempt(s)",
    ),
}


@dataclass
class _Pending:
    """Dispatcher-side record of one submitted, not-yet-completed job."""

    job: Job
    slot: int
    sequence: int
    attempts: int = 0
    begun_at: float | None = None
    deadline_at: float | None = None
    on_done: Any = None
    done: threading.Event = field(default_factory=threading.Event)
    result: JobResult | None = None
    # Wall-clock trace entries (dispatch/requeue), populated only for
    # traced jobs; merged into the result meta's trace timeline section.
    trace_timeline: list = field(default_factory=list)


class _WorkerHandle:
    """One live worker process bound to a slot."""

    __slots__ = ("slot", "generation", "process", "queue", "bye")

    def __init__(self, slot: int, generation: int, process: Any, jobs: Any):
        self.slot = slot
        self.generation = generation
        self.process = process
        self.queue = jobs
        self.bye = threading.Event()


class _Slot:
    """One worker slot: its current worker and its lifecycle state."""

    __slots__ = ("handle", "state", "due_at", "streak", "last_seen")

    def __init__(self, handle: Any) -> None:
        self.handle = handle
        self.state = LIVE
        self.due_at = 0.0  # when a backoff state's respawn fires
        self.streak = 0  # consecutive crashes without a completed job
        self.last_seen: float | None = None  # the current worker's last post

    def move(self, event: str) -> None:
        """Apply one lifecycle event; an unlisted transition is a bug."""
        try:
            self.state = _TRANSITIONS[self.state, event]
        except KeyError:
            raise RuntimeError(
                f"no {event!r} transition from slot state {self.state!r}"
            ) from None


class Dispatcher:
    """A bounded-queue dispatcher over a pool of session workers.

    Args:
        workers: number of worker slots (processes).
        engine: normalization engine every worker session boots with.
        fuel: default fuel for worker sessions (None = kernel default).
        max_pending: bound on unfinished jobs; :meth:`submit` blocks at it.
        job_timeout: seconds one attempt may run after its begin-ack before
            its worker is killed and the job handled as a crash (None disables).
        max_attempts: dispatch attempts per job before it completes as a
            failed result (a crash/timeout consumes one attempt).
        name: pool label used in worker session names.
        memo_store: path of a shared persistent memo store every worker
            attaches at bootstrap (None disables the tier).  Workers open
            independent connections and batch their own write-backs, so
            the tier adds no cross-process locking to the job hot path.
        fault_plan: a :class:`~repro.service.faults.FaultPlan` (or its wire
            dict) every worker installs at bootstrap — chaos testing only.
        respawn_backoff: base delay before refilling a dead slot; doubles
            per consecutive crash of that slot, capped at
            ``respawn_backoff_cap``, with deterministic jitter.
        suspect_after: consecutive crashes of one slot after which each new
            culprit dead-letters immediately (poison-stream fast fail).
        max_slot_respawns: consecutive crashes of one slot that trip its
            crash-loop breaker — the slot is abandoned, its stranded jobs
            dead-letter, and the batch finishes on the surviving slots.
        max_workers: the most active slots the pool scales up to; the
            collector's tick runs :attr:`scaling` (a :class:`ScalingRule`)
            between ``workers`` and ``max_workers``.  None (or
            ``workers``) is a fixed pool, whose ``scaling`` is None.
    """

    def __init__(
        self,
        workers: int = 4,
        engine: str = "nbe",
        fuel: int | None = None,
        max_pending: int = 256,
        job_timeout: float | None = None,
        max_attempts: int = 2,
        name: str | None = None,
        memo_store: str | None = None,
        fault_plan: FaultPlan | Mapping[str, Any] | None = None,
        respawn_backoff: float = 0.05,
        respawn_backoff_cap: float = 2.0,
        suspect_after: int = 3,
        max_slot_respawns: int = 8,
        max_workers: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        if max_workers is not None and max_workers < workers:
            raise ValueError("max_workers must be at least workers")
        if max_pending < workers:
            raise ValueError("max_pending must be at least the worker count")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive seconds")
        if suspect_after < 1 or max_slot_respawns < 1:
            raise ValueError("suspect_after and max_slot_respawns must be positive")
        validate_engine(engine)
        self.name = name or f"pool-{next(_POOL_IDS)}"
        self.engine = engine
        self.fuel = fuel
        self.memo_store = None if memo_store is None else str(memo_store)
        self.max_pending = max_pending
        self.job_timeout = job_timeout
        self.max_attempts = max_attempts
        self.fault_plan = FaultPlan.coerce(fault_plan)
        self._fault_plan_spec = (
            None if self.fault_plan is None else self.fault_plan.to_dict()
        )
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_cap = respawn_backoff_cap
        self.suspect_after = suspect_after
        self.max_slot_respawns = max_slot_respawns
        self.scaling = (
            None if max_workers is None or max_workers == workers
            else ScalingRule(workers, max_workers)
        )
        # fork where available, else the platform default.
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
        self._results = self._mp.Queue()
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._pending: dict[str, _Pending] = {}
        self._key_slots: dict[str, int] = {}
        self._hit_snapshots: dict[tuple[int, int], dict[str, int]] = {}
        self._persist_snapshots: dict[tuple[int, int], dict[str, Any]] = {}
        self._jobs_per_slot: dict[int, int] = {}
        self._pings: dict[Any, threading.Event] = {}
        self._counts = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "requeued": 0,
            "restarts": 0,
            "timeouts": 0,
            "exhausted": 0,
            "scale_ups": 0,
            "scale_downs": 0,
        }
        self._sequence = itertools.count()
        self._round_robin = itertools.count()
        self._closing = False
        self._draining = False
        self._slots = [_Slot(self._spawn(index, generation=0)) for index in range(workers)]
        self._collector = threading.Thread(
            target=self._collect, name=f"{self.name}-collector", daemon=True
        )
        self._collector.start()

    # -- context management ---------------------------------------------------

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- sharding -------------------------------------------------------------

    def slot_for(self, job: Job) -> int:
        """The slot ``job`` shards to: round-robin with key affinity.

        A new key claims the next slot in rotation and keeps it for the
        dispatcher's lifetime; unkeyed jobs just take the rotation.  The
        assignment is deterministic in arrival order — and deterministic
        *payloads* never depend on it at all, which the service benchmark's
        reshard differential enforces.
        """
        key = job.shard_key
        if key is None:
            return self._next_slot()
        slot = self._key_slots.get(key)
        if slot is None or self._slots[slot].state not in _AVAILABLE:
            # New key — or a key whose slot tripped its crash-loop breaker
            # or was retired by a scale-down: the stream migrates to a
            # healthy slot (cold caches, same bytes).
            slot = self._key_slots[key] = self._next_slot()
        return slot

    def _next_slot(self) -> int:
        """The next available slot in rotation."""
        for _ in range(len(self._slots)):
            slot = next(self._round_robin) % len(self._slots)
            if self._slots[slot].state in _AVAILABLE:
                return slot
        raise RuntimeError(
            "no worker slot is available (crash-loop breakers or retirement "
            "took every slot); the pool cannot make progress"
        )

    def _available(self) -> list[int]:
        """Indices of the slots new work can land on (caller holds the lock)."""
        return [index for index, slot in enumerate(self._slots) if slot.state in _AVAILABLE]

    # -- submission -----------------------------------------------------------

    def submit(self, job: Job | Mapping[str, Any], on_done: Any = None) -> _Pending:
        """Queue one job; blocks while ``max_pending`` jobs are unfinished.

        ``on_done`` is an optional completion callback invoked (with the
        finished ``_Pending``) the moment the job completes — result, dead
        letter, or shutdown document alike.  It runs on the collector
        thread under the dispatcher lock, so it must be non-blocking (the
        service endpoint passes a ``call_soon_threadsafe`` trampoline).
        """
        if not isinstance(job, Job):
            job = Job.from_dict(job)
        with self._space:
            if self._closing:
                raise RuntimeError("dispatcher is shut down")
            if self._draining:
                raise RuntimeError("dispatcher is draining; not accepting jobs")
            sequence = next(self._sequence)
            if job.id is None:
                job = Job.from_dict({**job.to_dict(), "id": f"job-{sequence}"})
            if job.id in self._pending:
                raise ValueError(f"duplicate in-flight job id {job.id!r}")
            while len(self._pending) >= self.max_pending:
                self._space.wait()
                if self._closing:
                    raise RuntimeError("dispatcher is shut down")
                if self._draining:
                    raise RuntimeError("dispatcher is draining; not accepting jobs")
            slot = self.slot_for(job)
            pending = _Pending(
                job=job,
                slot=slot,
                sequence=sequence,
                deadline_at=(
                    None if job.deadline is None
                    else time.monotonic() + job.deadline
                ),
                on_done=on_done,
            )
            self._pending[job.id] = pending
            self._counts["submitted"] += 1
            # A slot in backoff is between workers: the job is registered and
            # rides the respawn's requeue instead of landing on the dead
            # worker's abandoned queue.
            if self._slots[slot].state is LIVE:
                self._send(self._slots[slot].handle, pending)
        return pending

    def run_batch(self, jobs: Iterable[Job | Mapping[str, Any]]) -> list[JobResult]:
        """Dispatch ``jobs`` and block until every result is in.

        Results come back in submission order regardless of which workers
        finished first — the stable shape batch clients (and the
        determinism differential) want.  If a later ``submit`` raises (a
        duplicate job id, a shutdown racing the batch), the already
        submitted prefix is not abandoned: its jobs are waited out — every
        accepted job still resolves to a result document — before the
        failure propagates.
        """
        pendings: list[_Pending] = []
        try:
            for job in jobs:
                pendings.append(self.submit(job))
        finally:
            for pending in pendings:
                pending.done.wait()
        return [pending.result for pending in pendings]  # type: ignore[misc]

    # -- elasticity -----------------------------------------------------------

    def queue_depth(self) -> int:
        """Unfinished jobs currently held by the dispatcher."""
        with self._lock:
            return len(self._pending)

    def active_workers(self) -> int:
        """Slots new work can land on (not broken, retiring, or retired)."""
        with self._lock:
            return len(self._available())

    def grow(self) -> int | None:
        """Add one worker slot; returns its index, or None if refused.

        Prefers reviving the lowest retired slot at a fresh generation — a
        scale-up is just a controlled respawn, so all the existing
        crash-containment machinery applies to it — and appends a
        brand-new slot otherwise.  A broken slot is never revived.  The
        new worker attaches the shared persistent memo store at
        bootstrap, so it starts warm.
        """
        with self._space:
            return self._grow_locked()

    def shrink(self) -> int | None:
        """Retire the highest active slot; returns its index, or None.

        New keys shard around the slot immediately; its pending jobs
        finish where they are (warm caches), and once the slot is empty it
        is stopped gracefully.  Refuses to retire the last active slot.
        """
        with self._space:
            return self._shrink_locked()

    def _grow_locked(self) -> int | None:
        if self._closing or self._draining:
            return None
        index = next(
            (index for index, slot in enumerate(self._slots) if slot.state is RETIRED),
            None,
        )
        if index is None:
            index = len(self._slots)
            self._slots.append(_Slot(self._spawn(index, generation=0)))
        else:
            slot = self._slots[index]
            slot.move("grow")
            slot.handle = self._spawn(index, slot.handle.generation + 1)
            slot.last_seen = None
        self._counts["scale_ups"] += 1
        return index

    def _shrink_locked(self) -> int | None:
        candidates = self._available()
        if self._closing or len(candidates) <= 1:
            return None
        index = candidates[-1]
        self._slots[index].move("shrink")
        self._counts["scale_downs"] += 1
        self._finish_retire_locked(index)
        return index

    def _finish_retire_locked(self, index: int) -> None:
        """Complete a retiring slot's scale-down once it has no pending work."""
        if any(pending.slot == index for pending in self._pending.values()):
            return
        slot = self._slots[index]
        slot.move("empty")
        slot.streak = 0
        if slot.handle.process.is_alive():
            try:
                slot.handle.queue.put(json.dumps({"op": "stop"}))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass

    # -- health ---------------------------------------------------------------

    def ping(self, slot: int, timeout: float = 5.0) -> bool:
        """True if the worker in ``slot`` answers a health probe in time."""
        token = f"ping-{slot}-{time.monotonic_ns()}"
        event = threading.Event()
        self._pings[token] = event
        try:
            with self._lock:
                self._slots[slot].handle.queue.put(
                    json.dumps({"op": "ping", "token": token})
                )
            return event.wait(timeout)
        finally:
            self._pings.pop(token, None)

    def alive_workers(self) -> list[bool]:
        """Liveness of each slot's current worker process."""
        return [slot.handle.process.is_alive() for slot in self._slots]

    def kill_worker(self, slot: int) -> None:
        """Hard-kill the worker in ``slot`` (chaos hook for failure tests)."""
        self._slots[slot].handle.process.kill()

    # -- statistics -----------------------------------------------------------

    def stats(self) -> PoolStats:
        """A consistent snapshot of the aggregated pool statistics."""
        with self._lock:
            hits: dict[str, int] = {}
            # One cumulative snapshot per worker generation: the worker's
            # session *is* its process default (bootstrap_worker_state), so
            # this is each counter counted exactly once — never session
            # plus legacy-shim double counting, never per-job double sums.
            for snapshot in self._hit_snapshots.values():
                for cache, count in snapshot.items():
                    hits[cache] = hits.get(cache, 0) + count
            # Same rule for the persistent tier: each generation is its own
            # process with its own store connection, so summing the latest
            # snapshot of every generation counts each op exactly once.
            persist: dict[str, Any] | None = None
            if self._persist_snapshots:
                persist = {}
                breakers_open = 0
                for snapshot in self._persist_snapshots.values():
                    for counter, value in snapshot.items():
                        if counter == "breaker":
                            breakers_open += value == "open"
                        elif isinstance(value, (int, float)):
                            persist[counter] = persist.get(counter, 0) + value
                persist["breakers_open"] = breakers_open
            now = time.monotonic()
            slots: dict[str, dict[str, Any]] = {}
            for index, slot in enumerate(self._slots):
                state, seen = slot.state, slot.last_seen
                slots[str(index)] = {
                    "generation": slot.handle.generation,
                    "alive": slot.handle.process.is_alive(),
                    "crash_streak": slot.streak,
                    "broken": state is BROKEN,
                    "retiring": state in _DRAINING,
                    "retired": state is RETIRED,
                    "respawn_pending": state in _WAITING,
                    "last_seen_seconds": None if seen is None else round(now - seen, 3),
                }
            return PoolStats(
                workers=len(self._slots),
                active=len(self._available()),
                pending=len(self._pending),
                jobs_per_slot=dict(self._jobs_per_slot),
                cache_hits=hits,
                persist=persist,
                slots=slots,
                **self._counts,
            )

    # -- shutdown -------------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> None:
        """Stop accepting, flush every accepted job, then shut down.

        Zero accepted-and-lost by construction: every job in the pending
        table either completes normally (crash recovery and dead-lettering
        included) or — past the drain deadline — completes as a
        ``DrainTimeout`` dead-letter document.  Either way its completion
        callback fires; nothing accepted goes silent.
        """
        deadline = time.monotonic() + timeout
        with self._space:
            if self._closing:
                return
            self._draining = True
            if self.scaling is not None:
                self.scaling.close()
            self._space.notify_all()
            # Every completion notifies the condition (_complete_locked).
            self._space.wait_for(lambda: not self._pending, timeout)
            for pending in list(self._pending.values()):
                self._dead_letter_locked(
                    pending,
                    "DrainTimeout",
                    f"dispatcher drained before the job completed "
                    f"(drain timeout {timeout}s)",
                    exhausted=False,
                )
        # The drain deadline bounds shutdown too: past it, a worker still
        # busy with a straggler is killed at once instead of getting
        # shutdown's default grace period.
        self.shutdown(max(0.0, deadline - time.monotonic()))

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker gracefully; escalate to kill on the deadline."""
        with self._space:
            if self._closing:
                return
            self._closing = True
            if self.scaling is not None:
                self.scaling.close()
            self._space.notify_all()
            handles = [slot.handle for slot in self._slots]
        stop = json.dumps({"op": "stop"})
        for handle in handles:
            try:
                handle.queue.put(stop)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            # A slot that died and never respawned (backoff pending when the
            # pool closed, or crash-loop broken) has no worker to say "bye" —
            # waiting for one would burn the whole deadline.
            if not handle.process.is_alive():
                continue
            handle.bye.wait(max(0.0, deadline - time.monotonic()))
        for handle in handles:
            handle.process.join(max(0.05, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
        self._collector.join(timeout=2.0)
        with self._space:
            for pending in self._pending.values():
                pending.result = JobResult(
                    id=pending.job.id or "?",
                    ok=False,
                    error={
                        "type": "DispatcherShutdown",
                        "message": "dispatcher shut down before the job completed",
                    },
                    meta={"slot": pending.slot, "attempts": pending.attempts},
                )
                self._complete_locked(pending)
            self._pending.clear()

    # -- internals ------------------------------------------------------------

    def _spawn(self, slot: int, generation: int) -> _WorkerHandle:
        """Start a fresh worker process for ``slot``."""
        worker_name = f"{self.name}-w{slot}g{generation}"
        jobs = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(
                slot,
                generation,
                worker_name,
                jobs,
                self._results,
                self.engine,
                self.fuel,
                self.memo_store,
                self._fault_plan_spec,
            ),
            name=worker_name,
            daemon=True,
        )
        process.start()
        return _WorkerHandle(slot, generation, process, jobs)

    def _complete_locked(self, pending: _Pending) -> None:
        """Mark ``pending`` finished, fire its callback, wake every waiter.

        Caller holds the lock.  The callback runs on the collector (or
        shutdown) thread and must be non-blocking; a callback exception is
        swallowed so a client bug can never kill the collector.  The
        notification frees a ``max_pending`` seat for blocked submitters
        and lets :meth:`drain` re-check for an empty pending table.
        """
        pending.done.set()
        if pending.on_done is not None:
            try:
                pending.on_done(pending)
            except Exception:  # pragma: no cover - client callback bug
                pass
        self._space.notify_all()

    def _send(self, handle: _WorkerHandle, pending: _Pending) -> None:
        """Put one job on a worker queue (caller holds the lock).

        The job's ``deadline_at`` rides along so the worker can skip a job
        that expired in its queue (the dispatcher dead-letters it by the
        same rule, :meth:`_overrun`), and the attempt's timeout is measured
        afresh from its next ``begin``-ack.
        """
        pending.begun_at = None
        if pending.job.trace:
            # Slot assignment and timing are scheduling-dependent: timeline
            # section, never the deterministic events.
            pending.trace_timeline.append(
                {"ev": "dispatch", "slot": handle.slot, "at": time.monotonic()}
            )
        message = {"op": "job", "spec": pending.job.to_dict(),
                   "attempt": pending.attempts, "deadline_at": pending.deadline_at}
        handle.queue.put(json.dumps(message))

    def _collect(self) -> None:
        """Collector thread: drain results, watch health, enforce overruns.

        Health runs on the idle branch *and* at a bounded interval while
        results are flowing — a continuous stream from healthy workers
        must not starve the detection of a dead or overdue one.  The 20ms
        tick bounds failure-detection latency: a killed worker costs one
        tick to notice plus its respawn backoff, so recovery time is
        dominated by the (configurable) backoff, not by polling.
        """
        last_health = time.monotonic()
        while True:
            try:
                raw = self._results.get(timeout=0.02)
            except queue_module.Empty:
                if self._closing and all(
                    slot.handle.bye.is_set() or not slot.handle.process.is_alive()
                    for slot in self._slots
                ):
                    return
                self._watch_health()
                last_health = time.monotonic()
                continue
            message = json.loads(raw)
            with self._lock:
                self._on_message_locked(message)
            if time.monotonic() - last_health > 0.02:
                self._watch_health()
                last_health = time.monotonic()

    def _on_message_locked(self, message: Mapping[str, Any]) -> None:
        """Route one worker post (caller holds the lock)."""
        op = message.get("op")
        # The sender's slot, if it is still that slot's current worker: a
        # replaced generation's late posts never touch the slot's health.
        index = message.get("slot")
        slot = self._slots[index]
        if slot.handle.generation == message.get("generation"):
            slot.last_seen = time.monotonic()
        else:
            slot = None
        if op == "begin":
            pending = self._pending.get(message.get("id"))
            if slot is not None and pending is not None and pending.slot == index:
                pending.begun_at = message["at"]  # the worker's clock: when the job began
        elif op == "result":
            self._on_result(message, slot)
        elif op in ("hb", "pong", "bye"):
            self._store_snapshot(message)
            if op == "pong":
                event = self._pings.get(message.get("token"))
                if event is not None:
                    event.set()
            elif op == "bye" and slot is not None:
                slot.handle.bye.set()

    def _store_snapshot(self, message: Mapping[str, Any]) -> None:
        """Record a worker generation's cumulative counters (latest wins).

        Caller holds the lock.
        """
        key = (message.get("slot"), message.get("generation"))
        hits = message.get("hits")
        if hits is not None:
            self._hit_snapshots[key] = dict(hits)
        persist = message.get("persist")
        if persist is not None:
            self._persist_snapshots[key] = dict(persist)

    def _on_result(self, message: Mapping[str, Any], slot: _Slot | None) -> None:
        """Complete a job from its result post (caller holds the lock)."""
        self._store_snapshot(message)
        if slot is not None:
            # A completed job from the *current* worker proves the slot
            # healthy again: its crash streak is over.
            slot.streak = 0
        document = message["result"]
        pending = self._pending.pop(document["id"], None)
        if pending is None:
            return  # duplicate (a retired worker's late result): drop
        index = message.get("slot")
        self._jobs_per_slot[index] = self._jobs_per_slot.get(index, 0) + 1
        result = JobResult.from_dict(document)
        result.meta["attempts"] = pending.attempts + 1
        if pending.job.trace:
            self._stamp_trace_locked(pending, result)
        pending.result = result
        self._counts["completed"] += 1
        if not result.ok:
            self._counts["failed"] += 1
        self._complete_locked(pending)
        if self._slots[pending.slot].state in _DRAINING:
            self._finish_retire_locked(pending.slot)

    def _overrun(self, pending: _Pending, now: float) -> str | None:
        """Whether ``pending`` is overdue at ``now``: the one overrun rule.

        ``"deadline"`` once its ``deadline`` has passed since acceptance,
        ``"timeout"`` once ``job_timeout`` has passed since the current
        attempt's begin-ack (a requeue clears the ack, so every attempt is
        timed afresh), None otherwise.
        """
        if pending.deadline_at is not None and now > pending.deadline_at:
            return "deadline"
        begun, limit = pending.begun_at, self.job_timeout
        if begun is not None and limit is not None and now - begun > limit:
            return "timeout"
        return None

    def _watch_health(self) -> None:
        """Expire overruns, absorb deaths, finish retirements, fire respawns, scale."""
        now = time.monotonic()
        overdue: set[int] = set()
        with self._lock:
            for pending in list(self._pending.values()):
                if self._overrun(pending, now) is None:
                    continue
                if pending.begun_at is None:
                    # Expired while queued (behind other work, or waiting out
                    # a respawn backoff): dead-letter in place.  The worker
                    # skips it by the same rule, and any late duplicate
                    # result is dropped.
                    self._counts["timeouts"] += 1
                    self._quarantine_locked(pending, "deadline")
                elif self._slots[pending.slot].handle.process.is_alive():
                    # Overdue while running: recycle the worker; the death
                    # handler re-applies the rule to the culprit, so no
                    # innocent job is blamed.
                    overdue.add(pending.slot)
        for index in overdue:
            self._counts["timeouts"] += 1
            process = self._slots[index].handle.process
            process.kill()
            process.join(2.0)
        if self._closing:
            return
        with self._lock:
            now = time.monotonic()
            for index, slot in enumerate(self._slots):
                if slot.state in _RUNNING and not slot.handle.process.is_alive():
                    # A dying worker flushes its posts first: route them before
                    # blaming, or a job whose result is still queued is charged.
                    while True:
                        try:
                            self._on_message_locked(json.loads(self._results.get_nowait()))
                        except queue_module.Empty:
                            break
                    if slot.state in _RUNNING:  # a drained last result may retire it
                        self._on_worker_death_locked(index, now)
                if slot.state in _DRAINING:
                    self._finish_retire_locked(index)
                if slot.state in _WAITING and now >= slot.due_at:
                    self._respawn_locked(index)
            if self.scaling is not None:
                direction = self.scaling.evaluate(
                    now, len(self._pending), len(self._available()), self._counts["completed"]
                )
                if direction == "up":
                    self._grow_locked()
                elif direction == "down":
                    self._shrink_locked()

    def _stamp_trace_locked(self, pending: _Pending, result: JobResult) -> None:
        """Assemble a traced job's final trace document in its result meta.

        Deterministic ``events``: the dispatcher's submit (sequence number
        — a pure function of submission order), the executor's events, and
        a completion record whose attempt count is a pure function of the
        failure history (same-seed chaos runs agree byte for byte).  The
        wall-clock ``timeline`` prepends the dispatcher's dispatch/requeue
        entries to the executor's.
        """
        trace = result.meta.get("trace") or {"events": [], "timeline": []}
        events = [{"ev": "submit", "seq": pending.sequence}]
        events.extend(trace.get("events", ()))
        attempts = result.meta.get("attempts", pending.attempts + 1)
        if events and events[-1].get("ev") == "complete":
            events[-1] = {**events[-1], "attempts": attempts}
        else:
            events.append({"ev": "complete", "ok": result.ok, "attempts": attempts})
        result.meta["trace"] = {
            "events": events,
            "timeline": list(pending.trace_timeline) + list(trace.get("timeline", ())),
        }

    def _dead_letter_locked(
        self, pending: _Pending, error_type: str, message: str, exhausted: bool
    ) -> None:
        """Complete a quarantined job as a structured dead-letter document.

        The document is deterministic: type, message, and attempt count
        are pure functions of the job's failure history and the pool
        configuration — never of timing or slot assignment.
        """
        self._pending.pop(pending.job.id, None)
        pending.result = JobResult(
            id=pending.job.id or "?",
            ok=False,
            error={
                "type": error_type,
                "message": message,
                "dead_letter": True,
                "attempts": pending.attempts,
            },
            meta={"slot": pending.slot, "attempts": pending.attempts},
        )
        if pending.job.trace:
            self._stamp_trace_locked(pending, pending.result)
        self._counts["completed"] += 1
        self._counts["failed"] += 1
        if exhausted:
            self._counts["exhausted"] += 1
        self._complete_locked(pending)

    def _quarantine_locked(self, pending: _Pending, cause: str) -> None:
        """Dead-letter a culprit or expired job with its ``_QUARANTINE`` document.

        A missed ``"deadline"`` never retries, and its attempt count pins to
        1 so the document is a pure function of the job spec wherever the
        overrun caught it.
        """
        if cause == "deadline":
            pending.attempts = 1
        error_type, template = _QUARANTINE[cause]
        message = template.format(
            deadline=pending.job.deadline, timeout=self.job_timeout,
            attempts=pending.attempts, suspect_after=self.suspect_after,
        )
        self._dead_letter_locked(pending, error_type, message, exhausted=True)

    def _stranded_locked(self, index: int) -> list[_Pending]:
        """The unfinished jobs assigned to slot ``index``, oldest first."""
        return sorted(
            (pending for pending in self._pending.values() if pending.slot == index),
            key=lambda pending: pending.sequence,
        )

    def _on_worker_death_locked(self, index: int, now: float) -> None:
        """Contain one worker death: blame, quarantine, schedule the refill.

        The job that was in flight (its ``begin`` arrived, its result never
        did) is the culprit.  An overdue culprit is judged by
        :meth:`_overrun`: a missed deadline dead-letters at once; otherwise
        one attempt is consumed, and when attempts run out — or the slot's
        crash streak marks it a poison stream — it completes as a
        dead-letter document.  Everything else stranded on the slot stays
        pending and is requeued when the slot respawns after its backoff;
        cold caches change timing only, payloads and fuel-replay step
        counts are byte-identical to an uninterrupted run.  A streak
        reaching ``max_slot_respawns`` trips the crash-loop breaker
        instead: the slot is abandoned and all its jobs dead-letter.
        """
        slot = self._slots[index]
        slot.streak += 1
        stranded = self._stranded_locked(index)
        # The culprit is the job whose begin-ack arrived without a result.
        # A hard kill can lose the ack in the worker's queue feeder; the
        # slot queue is FIFO, so the oldest stranded job is the one that was
        # (or was about to be) in flight — blaming it keeps every crash loop
        # bounded by max_attempts.
        culprit = next(
            (p for p in stranded if p.begun_at is not None), stranded[0] if stranded else None
        )
        if culprit is not None:
            cause = self._overrun(culprit, now)
            if cause != "deadline":
                culprit.attempts += 1
                culprit.begun_at = None
                if culprit.attempts >= self.max_attempts:
                    cause = cause or "crash"
                else:
                    # Poison-stream fast fail: once the slot is crashing job
                    # after job, each new culprit stops burning workers
                    # immediately instead of cycling through max_attempts.
                    cause = "suspect" if slot.streak > self.suspect_after else None
            if cause is not None:
                self._quarantine_locked(culprit, cause)
        if slot.streak >= self.max_slot_respawns:
            # Crash-loop breaker: abandon the slot, fail its remaining
            # jobs cleanly, and let the batch finish elsewhere.
            slot.move("trip")
            for pending in stranded:
                if pending.done.is_set():
                    continue
                self._dead_letter_locked(
                    pending,
                    "CrashLoopBreaker",
                    f"worker slot crash-looped {slot.streak} times and was "
                    f"abandoned; job not retried",
                    exhausted=False,
                )
        else:
            slot.move("death")
            # Jitter keyed on the (slot, generation) being replaced, so
            # concurrent dead slots desynchronize their refills.
            slot.due_at = now + retry_delay(
                self.respawn_backoff,
                self.respawn_backoff_cap,
                slot.streak,
                f"{index}:{slot.handle.generation}",
            )

    def _respawn_locked(self, index: int) -> None:
        """Refill a slot whose backoff has elapsed and requeue its jobs."""
        slot = self._slots[index]
        slot.move("respawn")
        slot.handle = replacement = self._spawn(index, slot.handle.generation + 1)
        self._counts["restarts"] += 1
        for pending in self._stranded_locked(index):
            self._counts["requeued"] += 1
            if pending.job.trace:
                # Which non-culprit jobs get stranded depends on where
                # the crash caught the queue: timeline, not events.
                pending.trace_timeline.append(
                    {"ev": "requeue", "slot": index, "at": time.monotonic()}
                )
            self._send(replacement, pending)


#: The scaling rule's constants: pending jobs per active slot above which
#: the pool grows and below which it shrinks, the seconds between two
#: evaluations and after a scale event, and the consecutive evaluations
#: without a completion after which a backlog grows the pool anyway.
HIGH_WATERMARK, LOW_WATERMARK = 2.0, 0.5
SCALE_INTERVAL, SCALE_COOLDOWN = 0.05, 0.2
STALL_EVALUATIONS = 5


class ScalingRule:
    """When an elastic pool grows or shrinks, from the inputs it is fed alone.

    The collector's tick feeds :meth:`evaluate` the time, the queue depth
    (unfinished jobs), the active slots and the pool's completed count.
    Every ``SCALE_INTERVAL`` seconds the rule answers ``"up"`` above
    ``HIGH_WATERMARK`` pending jobs per active slot (up to
    ``max_workers``) and ``"down"`` below ``LOW_WATERMARK`` (down to
    ``min_workers``), at most once per ``SCALE_COOLDOWN``, so a bursty
    stream does not thrash the pool.  A *stalled* pool — more queued work
    than active slots and ``STALL_EVALUATIONS`` evaluations in a row
    without a completion — grows below the watermark too: depth alone
    cannot tell "busy" from "stuck behind long jobs".  After
    :meth:`close` (the pool drains or shuts down) it answers None.

    Scaling changes capacity and timing only: payloads never depend on
    slot assignment, so an elastic pool returns the bytes a fixed one does.
    """

    def __init__(self, min_workers: int, max_workers: int) -> None:
        self.min_workers = min_workers
        self.max_workers = max_workers
        self._closed = False
        self._evaluated = (float("-inf"), 0)  # when, and the completed count then
        self._scaled_at = float("-inf")
        self._stalled = 0
        self._events = {"up": 0, "down": 0}
        self._latest = {"depth": 0, "active": 0, "completion_rate": 0.0}

    def close(self) -> None:
        """No scale event from now on."""
        self._closed = True

    def evaluate(self, now: float, depth: int, active: int, completed: int) -> str | None:
        """``"up"``, ``"down"`` or None at ``now``; the caller performs the event."""
        last, done = self._evaluated
        if self._closed or now - last < SCALE_INTERVAL:
            return None
        self._evaluated = (now, completed)
        finished = completed - done
        self._stalled = self._stalled + 1 if depth > active and not finished else 0
        # One reference swap: signals() reads it without a lock.
        self._latest = {
            "depth": depth, "active": active,
            "completion_rate": round(finished / (now - last), 3),
        }
        if active == 0 or now - self._scaled_at < SCALE_COOLDOWN:
            return None
        stalled = depth > active and self._stalled >= STALL_EVALUATIONS
        if (depth > HIGH_WATERMARK * active or stalled) and active < self.max_workers:
            direction, self._stalled = "up", 0
        elif depth < LOW_WATERMARK * active and active > self.min_workers:
            direction = "down"
        else:
            return None
        self._events[direction] += 1
        self._scaled_at = now
        return direction

    def signals(self, persist: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The scaling signals as of the latest evaluation (JSON-safe).

        ``completion_rate`` is jobs per second between the last two
        evaluations; ``memo_hit_rate`` is the persistent tier's hits over
        its lookups in ``persist`` (``PoolStats.persist``), None without
        a store.  The tier's ``tier_hits`` repeats the memo table's
        ``hits``, so only the table counters count.
        """
        persist = persist or {}
        hits = persist.get("hits", 0) + persist.get("artifact_hits", 0)
        lookups = hits + persist.get("misses", 0) + persist.get("artifact_misses", 0)
        return {
            **self._latest,
            "memo_hit_rate": hits / lookups if lookups else None,
            "high_watermark": HIGH_WATERMARK,
            "low_watermark": LOW_WATERMARK,
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "scale_ups": self._events["up"],
            "scale_downs": self._events["down"],
            "stalled_ticks": self._stalled,
        }
