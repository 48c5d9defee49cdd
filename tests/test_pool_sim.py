"""The pool's slot state machine, checked over every small schedule.

The real :class:`~repro.service.dispatcher.Dispatcher` runs on the fake
transport of :mod:`tests.simpool`, in simulated time.  The explorer
submits three jobs to two slots and then enumerates every schedule of at
most ``EVENTS`` events, each one of:

* ``take s`` — slot ``s``'s worker reads its next message (it posts
  ``begin``, or skips an expired job, or dies on a scheduled kill);
* ``finish s`` — that worker posts its job's result;
* ``die s`` — that worker's process dies;
* ``route`` — the collector routes every waiting post;
* ``scan`` — the clock moves one ``TICK`` and the health scan runs, when a
  dead worker waits to be noticed;
* ``due`` — the clock passes the next deadline, job timeout or respawn
  backoff, and the health scan runs.

After each schedule the pool drains, every wait of the drain playing the
pool forward fairly, and four invariants are asserted:

1. no job is accepted and then lost: the pending table ends empty and the
   pool's counters account for every accepted job;
2. every job resolves, once: its completion callback fires exactly once,
   with a result document under its own id, and never by the drain's
   deadline (the drain plays fair, so a job it has to time out was stuck);
3. a dead-letter document is a pure function of the job's failure
   history: across all schedules, one history never yields two documents;
4. a job is never blamed for a death after it posted its result.

``test_explores_every_schedule`` asserts the number of schedules, so a
shrunken bound (or a transition that stops being reachable) fails.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.service import dispatcher
from repro.service.jobs import Job
from tests.simpool import SimPool

#: The bound: at most this many events per schedule, over these jobs
#: (keys "a" and "b" shard to slots 0 and 1), on a two-slot pool.
EVENTS = 6
JOBS = (
    Job(id="j0", kind="sleep", seconds=0.0, key="a", deadline=1.0),
    Job(id="j1", kind="sleep", seconds=0.0, key="b"),
    Job(id="j2", kind="sleep", seconds=0.0, key="a"),
)
POOL = dict(workers=2, job_timeout=0.5, max_attempts=2)
#: Recovery constants small enough that quarantine, the poison-stream
#: fast fail and the crash-loop breaker are all reachable in the bound.
RECOVERY = dict(SUSPECT_AFTER=1, MAX_SLOT_RESPAWNS=2)
DRAIN_TIMEOUT = 30.0
#: The schedules of at most EVENTS events (the empty one included).
SCHEDULES = 6854

_DEATHS = ("death", "kill")


def _due(pool: SimPool) -> list[float]:
    """The times ahead at which the health scan has something to do."""
    dues = []
    for pending in pool._pending.values():
        if pending.deadline_at is not None:
            dues.append(pending.deadline_at)
        if pending.begun_at is not None:
            dues.append(pending.begun_at + pool.job_timeout)
    dues.extend(slot.due_at for slot in pool._slots if slot.state in dispatcher._WAITING)
    return [due for due in dues if due >= pool.sim.clock.now]


def _enabled(pool: SimPool) -> list[tuple]:
    events: list[tuple] = []
    for index in range(len(pool._slots)):
        worker = pool.sim.worker(index)
        if worker.can_take():
            events.append(("take", index))
        if worker.alive and worker.running is not None:
            events.append(("finish", index))
        if worker.alive:
            events.append(("die", index))
    if pool.sim.results:
        events.append(("route",))
    if any(
        slot.state in dispatcher._RUNNING and not slot.handle.process.is_alive()
        for slot in pool._slots
    ):
        events.append(("scan",))
    if _due(pool):
        events.append(("due",))
    return events


def _apply(pool: SimPool, event: tuple) -> None:
    sim = pool.sim
    if event[0] == "take":
        sim.worker(event[1]).take()
    elif event[0] == "finish":
        sim.worker(event[1]).finish()
    elif event[0] == "die":
        sim.worker(event[1]).die()
    elif event[0] == "route":
        sim.route()
    elif event[0] == "scan":
        sim.tick()
    else:
        sim.tick(min(_due(pool)) + 1e-3)


def _play(schedule: tuple) -> tuple[SimPool, list, Counter]:
    calls: Counter = Counter()
    pool = SimPool(**POOL)
    accepted = [
        pool.submit(job, on_done=lambda pending: calls.update([pending.job.id]))
        for job in JOBS
    ]
    for event in schedule:
        _apply(pool, event)
    return pool, accepted, calls


def _history(log: list[tuple], slot: int) -> tuple:
    """The failure history of a job on ``slot``, in order, without times.

    It is the slot's story: each job's begin, result or skip there, the
    clock passing a job's deadline or its attempt's timeout, each death of
    the slot's worker (a ``kill`` is the dispatcher's) with the job it was
    running and the jobs queued behind it, and where the pool routed posts
    or scanned health.  Times, the other slot's events, generations and
    the clock's exact readings are left out: a dead letter must not depend
    on them.
    """
    return tuple(entry[1:] for entry in log if entry[2] in (slot, None))


def _check(schedule: tuple, letters: dict) -> list[tuple]:
    """Play ``schedule``, drain, assert the invariants; the enabled events."""
    pool, accepted, calls = _play(schedule)
    events = _enabled(pool)
    pool.drain(timeout=DRAIN_TIMEOUT)
    log = pool.sim.log
    stats = pool.stats()
    # 1. Nothing accepted is lost.
    assert not pool._pending, schedule
    assert stats.submitted == len(JOBS) == stats.completed, (schedule, stats)
    for pending in accepted:
        job_id, result = pending.job.id, pending.result
        # 2. Every job resolves, exactly once, under its own id, and by the
        # pool's own recovery: a fair drain never has to time a job out.
        assert pending.done.is_set() and result is not None, (schedule, job_id)
        assert calls[job_id] == 1 and result.id == job_id, (schedule, job_id)
        assert result.error.get("type") != "DrainTimeout", (schedule, job_id)
        history = _history(log, pending.slot)
        # 3. A dead letter is a pure function of the failure history.
        if not result.ok and result.error.get("dead_letter"):
            seen = letters.setdefault((job_id, history), result.canonical())
            assert seen == result.canonical(), (schedule, job_id, history, seen, result.canonical())
        # 4. Never blamed for a death after posting its result.
        posted = next(
            (i for i, entry in enumerate(log) if entry[1] == "result" and entry[3] == job_id),
            None,
        )
        if posted is not None:
            assert result.ok or result.error["type"] == "JobTimeout" and (
                "deadline" in result.error["message"]
            ), (schedule, job_id, result.error)
            deaths_before = sum(
                1 for entry in log[:posted] if entry[1] in _DEATHS and entry[2] == pending.slot
            )
            assert result.meta["attempts"] <= 1 + deaths_before, (schedule, job_id)
    return events


def _explore(prefix: tuple, letters: dict) -> int:
    events = _check(prefix, letters)
    if len(prefix) == EVENTS:
        return 1
    return 1 + sum(_explore(prefix + (event,), letters) for event in events)


def test_explores_every_schedule(recovery):
    recovery(**RECOVERY)
    letters: dict = {}
    explored = _explore((), letters)
    assert explored == SCHEDULES
    # The bound reaches every dead-letter document the pool can write.
    causes = {
        (letter["error"]["type"], letter["error"]["message"].split()[2])
        for letter in letters.values()
    }
    assert causes == {
        ("JobTimeout", "its"),  # missed its deadline
        ("JobTimeout", "the"),  # exceeded the timeout
        ("WorkerCrash", "while"),  # attempts exhausted, or a poison stream
        ("CrashLoopBreaker", "crash-looped"),
    }
    assert any("crash streak" in letter["error"]["message"] for letter in letters.values())


def test_an_idle_slots_age_grows_with_the_clock_and_a_result_resets_it():
    # Workers post nothing while idle: last_seen_seconds is the age of the
    # worker's last post of any kind.
    with SimPool(workers=1) as pool:
        def age():
            return pool.stats().slots["0"]["last_seen_seconds"]

        assert age() is None  # the fresh worker has posted nothing yet
        pool.settle(pool.submit(Job(id="a", kind="sleep", seconds=0.25)))
        posted = pool.sim.clock()
        assert age() == 0.0
        for _ in range(3):
            pool.sim.tick()
        assert age() == pytest.approx(3 * dispatcher.TICK)
        pool.sim.tick(to=posted + 7.5)
        assert age() == 7.5
        pool.settle(pool.submit(Job(id="b", kind="sleep", seconds=0.0)))
        assert age() == 0.0
