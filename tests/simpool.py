"""The pool dispatcher in simulated time: fake workers, one clock.

:class:`SimPool` is the real :class:`~repro.service.dispatcher.Dispatcher`
with its transport replaced, and nothing else: ``_spawn`` starts a
:class:`FakeWorker` instead of a process, ``_results`` is an in-memory
queue, ``_start_collector`` starts no collector thread, and ``_clock``
reads :class:`Sim`'s clock.  Submission, routing (``_on_message_locked``), the health scan
(``_watch_health``), ``drain`` and ``shutdown`` are the dispatcher's own.

Time passes only when the harness moves it.  A test either steps events
one by one (:meth:`FakeWorker.take`, :meth:`FakeWorker.finish`,
:meth:`FakeWorker.die`, :meth:`Sim.route`, :meth:`Sim.tick`) or lets
:meth:`Sim.run_until` play the pool forward: route every post, let each
live worker take its next message or finish its job, and otherwise
advance the clock to the next ``TICK`` and scan health, as the real
collector loop does.  Every wait of the dispatcher (``submit`` at
``max_pending``, ``drain``, ``shutdown``'s wait for a worker's "bye")
plays the pool forward the same way, so a test never sleeps.

A fake worker follows :mod:`repro.service.worker`'s protocol: it skips a
job whose ``deadline_at`` has passed, posts ``begin`` stamped with the
clock, dies on a ``crash`` job or a scheduled ``kill`` fault, and posts
``result``; a ``sleep`` job takes its ``seconds`` of simulated time and
any other kind runs on the real executor in an in-process session.
"""

from __future__ import annotations

import json
import queue
import threading
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable

from repro.service import dispatcher
from repro.service.dispatcher import Dispatcher, _WorkerHandle
from repro.service.executor import execute_job
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.jobs import Job, JobResult


class Clock:
    """Simulated seconds; the dispatcher reads it through ``_clock``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeProcess:
    """The process handle of a fake worker; a kill is the dispatcher's."""

    def __init__(self, worker: "FakeWorker") -> None:
        self.worker = worker
        self.alive = True

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.worker.die("kill")

    def join(self, timeout: float | None = None) -> None:
        pass


class FakeWorker:
    """One simulated worker: its job queue, its job in flight, its posts."""

    def __init__(self, sim: "Sim", slot: int, generation: int, plan: Any) -> None:
        self.sim = sim
        self.slot = slot
        self.generation = generation
        self.process = FakeProcess(self)
        self.inbox: deque[dict[str, Any]] = deque()
        self.running: Job | None = None
        self.attempt: Job | None = None  # the job begun last, until its result
        self.begun_at = self.finish_at = 0.0
        self.jobs = 0
        self.injector = None if plan is None else FaultInjector(FaultPlan.from_dict(plan))
        self._session = None

    @property
    def alive(self) -> bool:
        return self.process.alive

    # The dispatcher's side: its job queue.
    def put(self, raw: str) -> None:
        if self.alive:
            self.inbox.append(json.loads(raw))

    def post(self, document: dict[str, Any]) -> None:
        document.update(slot=self.slot, generation=self.generation, persist=None)
        self.sim.results.put(json.dumps(document))

    def can_take(self) -> bool:
        return self.alive and self.running is None and bool(self.inbox)

    def take(self) -> None:
        """Read the next message of the job queue, as the worker loop does."""
        message = self.inbox.popleft()
        op, now = message["op"], self.sim.clock.now
        if op == "stop":
            self.post({"op": "bye", "hits": {}, "jobs": self.jobs})
            self.process.alive = False
            return
        if op == "ping":
            self.post({"op": "pong", "token": message["token"], "hits": {}, "jobs": self.jobs})
            return
        expires = message.get("deadline_at")
        if expires is not None and now > expires:
            self.sim.record("skip", self.slot, message["spec"]["id"])
            return
        job = Job.from_dict(message["spec"])
        if self.injector is not None:
            self.injector.begin(job.id, message.get("attempt", 0))
        self.post({"op": "begin", "id": job.id, "at": now})
        self.sim.record("begin", self.slot, job.id)
        self.running = self.attempt = job
        if job.kind == "crash" or (self.injector is not None and self.injector.kill(job.id)):
            self.die()
            return
        self.begun_at = now
        self.finish_at = now + (job.seconds if job.kind == "sleep" else 0.0)

    def finish(self) -> None:
        """Post the running job's result."""
        job, self.running = self.running, None
        self.attempt = None
        if job.kind == "sleep":
            result = JobResult(id=job.id, ok=True, payload={"slept": job.seconds})
        else:
            if self._session is None:
                from repro.api import Session

                self._session = Session(name=f"sim-w{self.slot}g{self.generation}")
            result = execute_job(self._session, job)
        self.jobs += 1
        result.meta.update(slot=self.slot, generation=self.generation)
        self.post({"op": "result", "result": result.to_dict(), "hits": {}, "jobs": self.jobs})
        self.sim.record("result", self.slot, job.id)

    def die(self, cause: str = "death") -> None:
        """The process dies (``"kill"``: by the dispatcher's hand): its posts
        stay queued, its job in flight and its job queue are lost."""
        if self.alive:
            queued = [m["spec"]["id"] for m in self.inbox if m["op"] == "job"]
            running = None if self.running is None else self.running.id
            self.sim.record(cause, self.slot, running, tuple(queued))
        self.process.alive = False
        self.running = None
        self.inbox.clear()


class Posts(deque):
    """The result queue: the posts in flight, oldest first."""

    def put(self, raw: str) -> None:
        self.append(raw)

    def get_nowait(self) -> str:
        if not self:
            raise queue.Empty
        return self.popleft()


class SimEvent:
    """A worker's "bye" flag; waiting on it plays the pool forward."""

    def __init__(self, sim: "Sim") -> None:
        self.sim = sim
        self.flag = False

    def set(self) -> None:
        self.flag = True

    def is_set(self) -> bool:
        return self.flag

    def wait(self, timeout: float | None = None) -> bool:
        self.sim.run_until(self.is_set, timeout)
        return self.flag


class SimCondition:
    """The dispatcher's condition: each wait plays the pool forward one step."""

    def __init__(self, lock: Any, sim: "Sim") -> None:
        self.lock = lock
        self.sim = sim

    def __enter__(self) -> Any:
        return self.lock.__enter__()

    def __exit__(self, *exc_info: Any) -> None:
        self.lock.__exit__(*exc_info)

    def notify_all(self) -> None:
        pass

    def wait(self, timeout: float | None = None) -> bool:
        self.sim.step()
        return True


class Sim:
    """The simulation: one clock, the posts in flight, every worker, a log."""

    #: Steps one :meth:`run_until` may take before the harness calls it a hang.
    STEP_LIMIT = 100_000

    def __init__(self) -> None:
        self.clock = Clock()
        self.results = Posts()
        self.workers: list[FakeWorker] = []
        self.log: list[tuple] = []
        self.pool: "SimPool | None" = None

    def record(self, *event: Any) -> None:
        self.log.append((round(self.clock.now, 6), *event))

    def worker(self, slot: int) -> FakeWorker:
        """The current worker of ``slot``."""
        return self.pool._slots[slot].handle.queue

    def route(self) -> bool:
        """The collector routes every waiting post; True if there was one."""
        routed = bool(self.results)
        if routed:
            self.record("route", None)
        while self.results:
            with self.pool._lock:
                self.pool._on_message_locked(json.loads(self.results.popleft()))
        return routed

    def advance(self, to: float) -> None:
        """Move the clock to ``to``, logging each deadline and job timeout
        it passes: a job's overruns are part of its failure history."""
        before, self.clock.now = self.clock.now, to
        for pending in self.pool._pending.values():
            if pending.deadline_at is not None and before <= pending.deadline_at < to:
                self.record("deadline", pending.slot, pending.job.id)
        limit = self.pool.job_timeout
        for worker in self.workers:
            # An attempt is in flight until its result, or until the
            # dispatcher notices its worker's death.
            slot = self.pool._slots[worker.slot]
            in_flight = worker.attempt is not None and (
                worker.alive or slot.handle.queue is worker and slot.state in dispatcher._RUNNING
            )
            if in_flight and limit is not None and before <= worker.begun_at + limit < to:
                self.record("timeout", worker.slot, worker.attempt.id)

    def tick(self, to: float | None = None) -> None:
        """Advance the clock one ``TICK`` (or to ``to``) and scan health."""
        self.advance(self.clock.now + dispatcher.TICK if to is None else to)
        self.record("scan", None)
        self.pool._watch_health()

    def step(self) -> None:
        """One step of the pool: route, else let workers act, else tick."""
        if self.route():
            return
        acted = False
        for worker in self.workers:
            if worker.alive and worker.running is not None and worker.finish_at <= self.clock.now:
                worker.finish()
                acted = True
            elif worker.can_take():
                worker.take()
                acted = True
        if acted:
            return
        finishes = [w.finish_at for w in self.workers if w.alive and w.running is not None]
        if finishes and min(finishes) < self.clock.now + dispatcher.TICK:
            self.advance(min(finishes))
        else:
            self.tick()

    def run_until(self, done: Callable[[], bool], timeout: float | None = None) -> None:
        """Play the pool forward until ``done()`` or ``timeout`` simulated seconds."""
        deadline = None if timeout is None else self.clock.now + timeout
        for _ in range(self.STEP_LIMIT):
            if done() or (deadline is not None and self.clock.now >= deadline):
                return
            self.step()
        raise AssertionError(f"the simulated pool made no progress by t={self.clock.now}")


class SimPool(Dispatcher):
    """The real dispatcher over :class:`Sim`'s fake transport and clock."""

    def __init__(self, sim: Sim | None = None, **options: Any) -> None:
        self.sim = sim = sim or Sim()
        sim.pool = self
        self._clock = sim.clock
        self._results = sim.results
        super().__init__(**options)
        # One thread plays every part, so the lock must be re-entrant.
        self._lock = threading.RLock()
        self._space = SimCondition(self._lock, sim)

    def _spawn(self, slot: int, generation: int) -> _WorkerHandle:
        worker = FakeWorker(self.sim, slot, generation, self._fault_plan_spec)
        self.sim.workers.append(worker)
        handle = _WorkerHandle(slot, generation, worker.process, worker)
        handle.bye = SimEvent(self.sim)
        return handle

    def _start_collector(self) -> Any:
        """No collector thread: the simulation routes and ticks."""
        return SimpleNamespace(join=lambda timeout=None: None)

    def settle(self, pending: Any, timeout: float | None = 60.0) -> None:
        """Play forward until ``pending`` (one or a list) has resolved."""
        waits = pending if isinstance(pending, list) else [pending]
        self.sim.run_until(lambda: all(p.done.is_set() for p in waits), timeout)

    def run_batch(self, jobs):  # type: ignore[override]
        """The results of ``jobs`` in submission order, in simulated time."""
        pendings = [self.submit(job) for job in jobs]
        self.settle(pendings)
        return [pending.result for pending in pendings]
