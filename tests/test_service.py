"""Tests for the sharded normalization service (``repro.service``).

The load-bearing contract: the deterministic half of every job result
(``JobResult.canonical()``) is **byte-identical** no matter where the job
ran — in-process, on any worker, after any crash/requeue, behind any shard
assignment.  Term renderings are α-canonical and step counts replay from
the fuel caches, so payloads cannot observe session history.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import api
from repro.gen.jobs import build_stream, close_over, job_corpus
from repro.service import Dispatcher, Job, JobResult, execute_job
from repro.service.dispatcher import (
    SCALE_COOLDOWN, SCALE_INTERVAL, STALL_EVALUATIONS, ScalingRule, _Pending,
)
from repro.service.jobs import JOB_KINDS
from tests.simpool import SimPool

IDENTITY = r"\ (A : Type) (x : A). x"
REDEX = r"(\ (x : Nat). succ x) 41"
ILL_TYPED = "0 0"
# Deep enough that the recursive-descent parser exhausts the default stack:
# the deep-stack runner retries it, so it checks like any other program.
DEEP_NEST = "".join(f"\\(x{i}:Nat). " for i in range(1600)) + "x0"


def _mixed_jobs() -> list[dict]:
    """A small stream covering every deterministic kind, errors included."""
    return [
        {"id": "m0", "kind": "parse", "program": IDENTITY},
        {"id": "m1", "kind": "check", "program": IDENTITY, "key": "a"},
        {"id": "m2", "kind": "normalize", "program": REDEX, "key": "b"},
        {"id": "m3", "kind": "normalize", "program": REDEX, "engine": "subst"},
        {"id": "m4", "kind": "compile", "program": r"\ (x : Nat). x", "key": "a"},
        {"id": "m5", "kind": "run", "program": REDEX, "key": "b"},
        {
            "id": "m6",
            "kind": "link",
            "program": "n",
            "interface": [["n", "Nat"]],
            "imports": {"n": "41"},
        },
        {"id": "m7", "kind": "check", "program": ILL_TYPED, "key": "a"},
        {"id": "m8", "kind": "normalize", "program": REDEX, "fuel": 0, "key": "b"},
        {"id": "m9", "kind": "reset", "key": "a"},
        {"id": "m10", "kind": "normalize", "program": REDEX, "key": "a"},
        {"id": "m11", "kind": "stats"},
        {"id": "m12", "kind": "compile_py", "program": REDEX, "key": "b"},
    ]


class TestWireFormat:
    def test_job_roundtrip(self):
        job = Job.from_dict(
            {
                "kind": "link",
                "id": "j1",
                "program": "n",
                "interface": [["n", "Nat"]],
                "imports": {"n": "41"},
                "key": "build-0",
            }
        )
        assert Job.from_dict(job.to_dict()) == job
        # The wire form is honest JSON.
        assert Job.from_dict(json.loads(json.dumps(job.to_dict()))) == job

    def test_sparse_wire_form(self):
        spec = Job(kind="check", program="0").to_dict()
        assert spec == {"kind": "check", "program": "0"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            Job(kind="frobnicate")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job fields"):
            Job.from_dict({"kind": "check", "program": "0", "bogus": 1})

    def test_program_kinds_require_program(self):
        with pytest.raises(ValueError, match="needs a 'program'"):
            Job(kind="normalize")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("deadline", "5"),
            ("interface", 5),
            ("interface", [["n", 1]]),
            ("imports", [1, 2]),
            ("imports", {"n": 41}),
            ("verify", "no"),
            ("trace", "no"),
            ("fuel", True),
            ("wire", True),
            ("seconds", "x"),
            ("program", 5),
            ("id", 7),
        ],
    )
    def test_mistyped_field_rejected_by_name(self, field, value):
        spec = {"kind": "link", "id": "j", "program": "n", field: value}
        with pytest.raises(ValueError, match=f"job field '{field}'"):
            Job.from_dict(spec)

    def test_json_types_accepted(self):
        job = Job.from_dict(
            {"kind": "sleep", "seconds": 1, "deadline": 2.5, "fuel": 10,
             "verify": False, "trace": True}
        )
        assert (job.seconds, job.deadline, job.fuel) == (1, 2.5, 10)
        assert job.verify is False and job.trace is True

    def test_non_object_spec_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            Job.from_dict([1, 2])

    def test_result_split_and_roundtrip(self):
        result = JobResult(
            id="r", ok=True, payload={"steps": 3}, meta={"session": "w0", "attempts": 1}
        )
        assert result.canonical() == {"id": "r", "ok": True, "payload": {"steps": 3}}
        assert "meta" not in result.canonical()
        assert JobResult.from_dict(result.to_dict()) == result


class TestExecutor:
    def test_unexpected_exception_is_a_deterministic_error_document(self, monkeypatch):
        def broken(session, *args):
            raise RuntimeError(f"no table at {hex(id(session))}\nsecond line")

        monkeypatch.setattr("repro.service.executor.call", broken)
        report = api.execute_jobs([{"id": "x", "kind": "check", "program": IDENTITY}], workers=0)
        (result,) = report.results
        assert not result.ok
        assert result.error == {"type": "InternalError", "message": "RuntimeError: no table at 0x?"}

    def test_deep_input_is_checked(self):
        report = api.execute_jobs(
            [{"id": "deep", "kind": "check", "program": DEEP_NEST}], workers=0
        )
        (result,) = report.results
        assert result.ok, result.error
        assert result.payload["steps"] == 0

    def test_every_deterministic_kind_executes(self):
        report = api.execute_jobs(_mixed_jobs(), workers=0)
        by_id = {result.id: result for result in report.results}
        assert by_id["m2"].payload["normal"] == "42"
        assert by_id["m2"].payload["steps"] == 1
        assert by_id["m3"].payload["engine"] == "subst"
        assert by_id["m4"].payload["verified"] is True
        assert by_id["m5"].payload["value"] == 42
        assert by_id["m6"].payload["type"] == "Nat"
        assert by_id["m7"].ok is False
        assert by_id["m7"].error["type"] == "TypeCheckError"
        assert by_id["m8"].error["type"] == "NormalizationDepthExceeded"
        assert by_id["m9"].payload == {"reset": True}
        # stats: constant deterministic payload, telemetry rides in meta.
        assert by_id["m11"].payload == {"stats": True}
        assert "cache_stats" in by_id["m11"].meta["stats"]
        # compile_py is run through the host backend: same payload modulo
        # the backend-only keys.
        assert by_id["m12"].payload["value"] == 42
        assert by_id["m12"].payload["backend"] == "compiled"
        machine = {
            key: value
            for key, value in by_id["m5"].payload.items()
            if key != "backend"
        }
        compiled = {
            key: value
            for key, value in by_id["m12"].payload.items()
            if key not in ("backend", "artifact")
        }
        assert compiled == machine

    def test_payloads_are_alpha_canonical(self):
        # α-variants of one program produce byte-identical payloads.
        session = api.Session()
        left = execute_job(session, Job(kind="normalize", id="l", program=REDEX))
        right = execute_job(
            session,
            Job(kind="normalize", id="l", program=r"(\ (y : Nat). succ y) 41"),
        )
        assert left.canonical() == right.canonical()

    def test_warm_repeat_is_byte_identical_with_replayed_fuel(self):
        session = api.Session()
        job = Job(kind="normalize", id="j", program=REDEX)
        cold = execute_job(session, job)
        warm = execute_job(session, job)
        assert warm.canonical() == cold.canonical()
        assert warm.payload["steps"] == cold.payload["steps"] == 1
        # The repeat really was warm: the memo cache hit.
        assert warm.meta["cache_hits"]["kernel.normalization"] >= 1

    def test_fuel_override_restores_session_default(self):
        session = api.Session()
        default = session.fuel
        result = execute_job(session, Job(kind="normalize", id="f", program=REDEX, fuel=0))
        assert not result.ok
        assert session.fuel == default

    def test_crash_in_process_is_a_failed_result(self):
        result = api.default_session().execute({"kind": "crash", "id": "c"})
        assert not result.ok and "worker process" in result.error["message"]

    def test_all_kinds_covered(self):
        # Every wire kind is either exercised above or chaos-only.
        deterministic = {job["kind"] for job in _mixed_jobs()}
        assert set(JOB_KINDS) - deterministic == {"sleep", "crash"}


class TestBatchAPI:
    def test_results_in_submission_order_with_assigned_ids(self):
        report = api.execute_jobs(
            [{"kind": "check", "program": IDENTITY}, {"kind": "normalize", "program": REDEX}]
        )
        assert [result.id for result in report.results] == ["job-0", "job-1"]
        assert report.workers == 0
        assert report.ok is False or report.ok is True  # property computes

    def test_session_fuel_zero_matches_pooled(self):
        # fuel=0 must not fall back to the default on the solo path (0 is
        # falsy!) — the pooled worker honors it, and the two must agree.
        jobs = [{"id": "z", "kind": "normalize", "program": REDEX}]
        solo = api.execute_jobs(jobs, workers=0, fuel=0)
        pooled = api.execute_jobs(jobs, workers=1, fuel=0)
        assert not solo.results[0].ok
        assert solo.results[0].error["type"] == "NormalizationDepthExceeded"
        assert pooled.canonical() == solo.canonical()

    def test_interleave_round_robin_and_uneven_streams(self):
        from repro.gen.jobs import interleave

        assert interleave([[1, 2, 3], ["a"], ["x", "y"]]) == [1, "a", "x", 2, "y", 3]
        assert interleave([]) == []

    def test_batch_report_to_dict_is_json_safe(self):
        report = api.execute_jobs([{"kind": "normalize", "program": REDEX}])
        document = json.loads(json.dumps(report.to_dict()))
        assert document["results"][0]["payload"]["normal"] == "42"
        assert document["ok"] is True


class TestDispatcher:
    def test_pooled_byte_identical_to_solo(self):
        jobs = _mixed_jobs()
        solo = api.execute_jobs(jobs, workers=0)
        pooled = api.execute_jobs(jobs, workers=2)
        assert pooled.canonical() == solo.canonical()

    def test_any_shard_assignment_is_byte_identical(self):
        # The same stream under different pool shapes (hence different
        # job→worker assignments and per-worker warmth) yields the same
        # deterministic results.
        jobs = _mixed_jobs()
        reference = api.execute_jobs(jobs, workers=0).canonical()
        for workers in (1, 3):
            assert api.execute_jobs(jobs, workers=workers).canonical() == reference

    def test_affinity_is_stable_and_round_robin_rotates(self):
        with Dispatcher(workers=3) as pool:
            keyed = Job(kind="check", program=IDENTITY, key="build-7")
            slots = {pool.slot_for(keyed) for _ in range(5)}
            assert len(slots) == 1  # affinity: same key, same slot, always
            unkeyed = Job(kind="check", program=IDENTITY)
            rotation = [pool.slot_for(unkeyed) for _ in range(6)]
            assert sorted(set(rotation)) == [0, 1, 2]  # round-robin rotates

    def test_distinct_keys_spread_across_all_slots(self):
        # Round-robin-with-affinity: N fresh keys claim N distinct slots
        # (a key *hash* can collide hot streams onto one worker).
        with Dispatcher(workers=4) as pool:
            slots = [
                pool.slot_for(Job(kind="check", program=IDENTITY, key=f"build-{index}"))
                for index in range(4)
            ]
            assert sorted(slots) == [0, 1, 2, 3]
            # And the assignment is sticky.
            again = [
                pool.slot_for(Job(kind="check", program=IDENTITY, key=f"build-{index}"))
                for index in range(4)
            ]
            assert again == slots

    def test_ping_and_liveness(self):
        with Dispatcher(workers=2) as pool:
            assert pool.alive_workers() == [True, True]
            assert pool.ping(0, timeout=30.0)
            assert pool.ping(1, timeout=30.0)

    def test_bounded_queue_still_completes(self):
        jobs = [
            {"id": f"q{index}", "kind": "normalize", "program": REDEX}
            for index in range(12)
        ]
        solo = api.execute_jobs(jobs, workers=0)
        pooled = api.execute_jobs(jobs, workers=2, max_pending=2)
        assert pooled.canonical() == solo.canonical()

    def test_duplicate_inflight_ids_rejected(self):
        with Dispatcher(workers=1) as pool:
            pool.submit({"id": "dup", "kind": "sleep", "seconds": 0.5})
            with pytest.raises(ValueError, match="duplicate in-flight job id"):
                pool.submit({"id": "dup", "kind": "check", "program": IDENTITY})

    def test_pool_cache_stats_sum_without_double_counting(self):
        # A 1-worker pool serves the stream in submission order, exactly
        # like a solo session.  Its aggregated hit counters must equal the
        # solo session's — the worker's session IS its process default, so
        # naively adding the legacy-shim counters on top would report 2x.
        jobs = [
            {"id": f"s{index}", "kind": "normalize", "program": REDEX, "key": "one"}
            for index in range(6)
        ]
        solo_session = api.Session(name="stats-ref")
        solo = api.execute_jobs(jobs, workers=0, session=solo_session)
        assert solo.ok
        with Dispatcher(workers=1) as pool:
            results = pool.run_batch(jobs)
            assert all(result.ok for result in results)
            pooled_hits = pool.stats().cache_hits
        assert pooled_hits == solo_session.hit_counts()
        # Cross-check: per-job telemetry deltas sum to the same totals.
        delta_sum: dict[str, int] = {}
        for result in results:
            for cache, hits in result.meta["cache_hits"].items():
                delta_sum[cache] = delta_sum.get(cache, 0) + hits
        assert delta_sum == pooled_hits

    def test_deep_input_completes_in_a_worker(self):
        jobs = [
            {"id": "deep", "kind": "check", "program": DEEP_NEST},
            {"id": "after", "kind": "check", "program": IDENTITY},
        ]
        solo = api.execute_jobs(jobs, workers=0)
        with Dispatcher(workers=1) as pool:
            deep, after = pool.run_batch(jobs)
            stats = pool.stats()
        assert deep.ok and after.ok
        assert [deep.canonical(), after.canonical()] == solo.canonical()
        assert stats.restarts == 0
        assert stats.exhausted == 0

    def test_stats_shape(self):
        with Dispatcher(workers=2) as pool:
            pool.run_batch([{"id": "x", "kind": "check", "program": IDENTITY}])
            stats = pool.stats().to_dict()
        assert stats["workers"] == 2
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["failed"] == stats["restarts"] == stats["timeouts"] == 0
        assert sum(int(n) for n in stats["jobs_per_slot"].values()) == 1

    def test_graceful_shutdown_reaps_workers(self):
        # In simulated time: the fake workers read their stop message.
        pool = SimPool(workers=2)
        processes = [slot.handle.process for slot in pool._slots]
        pool.run_batch([{"id": "g", "kind": "check", "program": IDENTITY}])
        pool.shutdown()
        assert not any(process.is_alive() for process in processes)
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit({"kind": "check", "program": IDENTITY})


class TestWorkerFailure:
    def test_crash_mid_batch_completes_byte_identical(self):
        # The satellite contract: kill a worker mid-batch; the batch still
        # completes, requeued jobs land on a fresh worker with cold caches,
        # and every surviving result — values, types, steps, diagnostics —
        # is byte-identical to a solo run.
        key = "doomed-build"
        jobs: list[dict] = [
            {"id": "pre", "kind": "normalize", "program": REDEX, "key": key},
            {"id": "boom", "kind": "crash", "key": key},
        ] + [
            {"id": f"post{index}", "kind": kind, "program": program, "key": key}
            for index, (kind, program) in enumerate(
                [
                    ("normalize", REDEX),
                    ("check", IDENTITY),
                    ("compile", r"\ (x : Nat). x"),
                    ("normalize", ILL_TYPED),
                ]
            )
        ]
        survivors = [job for job in jobs if job["kind"] != "crash"]
        solo = {result.id: result.canonical() for result in api.execute_jobs(survivors).results}
        with Dispatcher(workers=2, max_attempts=2) as pool:
            results = pool.run_batch(jobs)
            stats = pool.stats()
        by_id = {result.id: result for result in results}
        assert not by_id["boom"].ok
        assert by_id["boom"].error["type"] == "WorkerCrash"
        for job in survivors:
            assert by_id[job["id"]].canonical() == solo[job["id"]]
        # The pre-crash job has identical replayed steps to the post-crash
        # requeues of the same program on the cold fresh worker.
        assert by_id["pre"].payload["steps"] == by_id["post0"].payload["steps"] == 1
        assert stats.restarts >= 1
        assert stats.requeued >= 1

    def test_hard_kill_recovers_without_begin_ack(self):
        # SIGKILL can eat the begin-ack; the dispatcher blames the queue
        # head, so recovery stays bounded and the batch still completes.
        with Dispatcher(workers=1, max_attempts=3) as pool:
            first = pool.submit({"id": "k0", "kind": "sleep", "seconds": 2.0})
            time.sleep(0.3)  # let the worker start sleeping
            pool.kill_worker(0)
            rest = [
                pool.submit({"id": f"k{index}", "kind": "normalize", "program": REDEX})
                for index in (1, 2)
            ]
            for pending in [first, *rest]:
                assert pending.done.wait(60.0)
            stats = pool.stats()
        assert stats.restarts >= 1
        assert all(pending.result.ok for pending in rest)

    @pytest.mark.parametrize("max_attempts", [1, 2])
    def test_job_timeout_kills_and_fails_the_culprit(self, max_attempts):
        # Every attempt is timed from its own begin-ack: the retry of a
        # timed-out job is killed again, not left to run to completion.
        # In simulated time.
        with SimPool(workers=1, job_timeout=0.4, max_attempts=max_attempts) as pool:
            results = pool.run_batch(
                [
                    {"id": "slow", "kind": "sleep", "seconds": 30.0},
                    {"id": "after", "kind": "normalize", "program": REDEX},
                ]
            )
            stats = pool.stats()
        by_id = {result.id: result for result in results}
        assert not by_id["slow"].ok
        assert by_id["slow"].error["type"] == "JobTimeout"
        assert by_id["slow"].error["message"] == (
            f"job exceeded the 0.4s timeout ({max_attempts} attempt(s))"
        )
        assert by_id["after"].ok and by_id["after"].payload["normal"] == "42"
        assert stats.timeouts == max_attempts
        assert stats.restarts >= 1


class TestGenJobStreams:
    def test_corpus_is_deterministic_and_closed(self):
        corpus = job_corpus(11, count=5)
        assert corpus == job_corpus(11, count=5)
        assert len(corpus) == 5
        report = api.execute_jobs(corpus, workers=0)
        assert report.ok  # every candidate survived close-over + re-check

    def test_close_over_preserves_typability(self):
        from repro import cc
        from repro.gen.generator import TermGenerator

        generator = TermGenerator(5)
        session = api.Session()
        with session.activate():
            triple = generator.well_typed_term()
            assert triple is not None
            ctx, term, _ = triple
            closed = close_over(ctx, term)
            assert not cc.free_vars(closed)
            cc.infer(cc.Context.empty(), closed)  # must not raise

    def test_build_stream_shape(self):
        stream = build_stream(3, seed=1, iterations=2, passes=2, corpus_size=2)
        assert [job["kind"] for job in stream[:1]] == ["reset"]
        assert len(stream) == 2 * (1 + 2 * 2)
        assert len({job["id"] for job in stream}) == len(stream)
        assert {job["key"] for job in stream} == {"build-3"}

    def test_build_streams_pooled_match_solo(self):
        streams = [build_stream(build, seed=20 + build, iterations=1, passes=2,
                                corpus_size=2) for build in range(2)]
        interleaved = [job for pair in zip(*streams) for job in pair]
        solo = api.execute_jobs(interleaved, workers=0)
        pooled = api.execute_jobs(interleaved, workers=2)
        assert pooled.canonical() == solo.canonical()


class TestFailureDomains:
    """The hardened failure domains: quarantine, backoff, breaker, health.

    In simulated time (:mod:`tests.simpool`), beside real-process smokes:
    the poison job's byte-identical survivors and the slot health view."""

    def test_poison_job_dead_letters_and_survivors_match_solo(self, recovery):
        # A job that kills its worker on *every* attempt must exhaust
        # max_attempts and complete as a structured dead-letter document —
        # while every other job in the batch stays byte-identical to solo.
        from repro.service.faults import Fault, FaultPlan

        survivors = [
            {"id": f"s{index}", "kind": "normalize", "program": REDEX, "key": "fine"}
            for index in range(4)
        ]
        jobs = survivors + [
            {"id": "poison", "kind": "normalize", "program": REDEX, "key": "bad"}
        ]
        solo = {doc["id"]: doc for doc in api.execute_jobs(survivors).canonical()}
        plan = FaultPlan([Fault("kill", "poison", attempts=-1)], seed=2)
        recovery(RESPAWN_BACKOFF=0.01, RESPAWN_BACKOFF_CAP=0.1)
        with Dispatcher(workers=2, max_attempts=3, fault_plan=plan) as pool:
            results = pool.run_batch(jobs)
            stats = pool.stats()
        by_id = {result.id: result for result in results}
        letter = by_id["poison"]
        assert not letter.ok
        assert letter.error["dead_letter"] is True
        assert letter.error["type"] == "WorkerCrash"
        assert letter.error["attempts"] == 3
        for job in survivors:
            assert by_id[job["id"]].canonical() == solo[job["id"]]
        # Quarantine bounds the damage: at most max_attempts respawns for
        # the poison (the final crash's respawn may still be pending when
        # the batch drains), not one per queued job behind it.
        assert stats.exhausted == 1
        assert 2 <= stats.restarts <= 3

    def test_suspect_streak_fast_fails_new_culprits(self, recovery):
        # After SUSPECT_AFTER consecutive crashes of one slot, each new
        # culprit dead-letters immediately instead of burning max_attempts
        # worth of respawns per job — a poison *stream* cannot serially
        # recycle the pool.
        from repro.service.faults import Fault, FaultPlan

        poisons = [f"p{index}" for index in range(4)]
        plan = FaultPlan([Fault("kill", job_id, attempts=-1) for job_id in poisons])
        jobs = [
            {"id": job_id, "kind": "normalize", "program": REDEX, "key": "stream"}
            for job_id in poisons
        ]
        recovery(RESPAWN_BACKOFF=0.01, RESPAWN_BACKOFF_CAP=0.1,
                 SUSPECT_AFTER=2, MAX_SLOT_RESPAWNS=50)
        with SimPool(workers=1, max_attempts=3, fault_plan=plan) as pool:
            results = pool.run_batch(jobs)
            stats = pool.stats()
        assert all(not result.ok and result.error["dead_letter"] is True
                   for result in results)
        # The first culprit exhausts 3 attempts (3 crashes); from then on the
        # streak exceeds SUSPECT_AFTER, so each later culprit costs a single
        # crash instead of max_attempts respawns.
        crashes = 3 + (len(poisons) - 1)
        assert crashes - 1 <= stats.restarts <= crashes
        assert stats.exhausted == len(poisons)

    def test_crash_loop_breaker_abandons_the_slot_cleanly(self, recovery):
        from repro.service.faults import Fault, FaultPlan

        plan = FaultPlan([Fault("kill", "p", attempts=-1)])
        recovery(RESPAWN_BACKOFF=0.01, RESPAWN_BACKOFF_CAP=0.05,
                 SUSPECT_AFTER=100, MAX_SLOT_RESPAWNS=3)
        with SimPool(workers=1, max_attempts=100, fault_plan=plan) as pool:
            results = pool.run_batch([
                {"id": "p", "kind": "normalize", "program": REDEX},
                {"id": "stranded", "kind": "normalize", "program": REDEX},
            ])
            stats = pool.stats()
            # Every slot is broken: the pool refuses new work instead of
            # accepting jobs it can never run.
            with pytest.raises(RuntimeError):
                pool.submit({"id": "next", "kind": "normalize", "program": REDEX})
        assert all(result.error["type"] == "CrashLoopBreaker" for result in results)
        assert stats.restarts == 2  # MAX_SLOT_RESPAWNS - 1: the breaker stops the churn
        assert stats.slots["0"]["broken"] is True

    def test_timeout_exhaustion_is_a_dead_letter(self, recovery):
        recovery(RESPAWN_BACKOFF=0.01)
        with SimPool(workers=1, job_timeout=0.4, max_attempts=1) as pool:
            results = pool.run_batch([
                {"id": "slow", "kind": "sleep", "seconds": 30.0},
                {"id": "after", "kind": "normalize", "program": REDEX},
            ])
            stats = pool.stats()
        by_id = {result.id: result for result in results}
        assert by_id["slow"].error["type"] == "JobTimeout"
        assert by_id["slow"].error["dead_letter"] is True
        assert by_id["after"].ok
        assert stats.exhausted == 1
        assert stats.to_dict()["exhausted"] == 1

    def test_stats_surface_slot_health_and_persist(self):
        with Dispatcher(workers=2) as pool:
            pool.run_batch([{"id": "j", "kind": "normalize", "program": REDEX}])
            stats = pool.stats()
        assert set(stats.slots) == {"0", "1"}
        for health in stats.slots.values():
            assert health["alive"] is True
            assert health["broken"] is False
            assert health["crash_streak"] == 0
        assert stats.to_dict()["slots"] == stats.slots

    def test_transient_kill_retries_to_byte_identical_payload(self, recovery):
        # One injected crash, then the requeued attempt succeeds on the
        # fresh worker — and the payload is byte-identical to solo.
        from repro.service.faults import Fault, FaultPlan

        jobs = [{"id": "flaky", "kind": "normalize", "program": REDEX}]
        solo = api.execute_jobs(jobs).canonical()
        plan = FaultPlan([Fault("kill", "flaky", attempts=1)])
        recovery(RESPAWN_BACKOFF=0.01)
        with SimPool(workers=1, max_attempts=3, fault_plan=plan) as pool:
            results = pool.run_batch(jobs)
            stats = pool.stats()
        assert [result.canonical() for result in results] == solo
        assert stats.restarts == 1
        assert stats.exhausted == 0


class TestSlotStateMachine:
    # The lifecycle as specified: every transition listed here must exist,
    # and nothing else may.
    LISTED = {
        ("live", "death"): "backoff",
        ("live", "trip"): "broken",
        ("live", "shrink"): "retiring",
        ("backoff", "respawn"): "live",
        ("backoff", "shrink"): "retiring_backoff",
        ("retiring", "empty"): "retired",
        ("retiring", "death"): "retiring_backoff",
        ("retiring", "trip"): "broken",
        ("retiring_backoff", "respawn"): "retiring",
        ("retiring_backoff", "empty"): "retired",
        ("retired", "grow"): "live",
    }

    def test_every_listed_transition_moves_the_slot(self):
        from repro.service.dispatcher import _Slot

        for (state, event), target in self.LISTED.items():
            slot = _Slot(None)
            slot.state = state
            slot.move(event)
            assert slot.state == target, (state, event)

    def test_unlisted_transitions_raise(self):
        from repro.service.dispatcher import _Slot

        states = {state for state, _ in self.LISTED} | {"broken"}
        events = {event for _, event in self.LISTED}
        for state in states:
            for event in events - {e for s, e in self.LISTED if s == state}:
                slot = _Slot(None)
                slot.state = state
                with pytest.raises(RuntimeError, match="no .* transition"):
                    slot.move(event)
                assert slot.state == state  # a refused event changes nothing


class TestRunBatchPartialFailure:
    def test_failed_submit_still_resolves_the_accepted_prefix(self):
        # Satellite contract: when a later submit raises (here a duplicate
        # in-flight id), the already-accepted prefix is waited out — every
        # accepted job resolves to a result — before the error propagates.
        with Dispatcher(workers=1) as pool:
            first = pool.submit({"id": "dup", "kind": "sleep", "seconds": 0.3})
            with pytest.raises(ValueError, match="duplicate in-flight"):
                pool.run_batch(
                    [
                        {"id": "p0", "kind": "normalize", "program": REDEX},
                        {"id": "p1", "kind": "normalize", "program": REDEX},
                        {"id": "dup", "kind": "normalize", "program": REDEX},
                    ]
                )
            # The prefix was not abandoned: both jobs already resolved by
            # the time run_batch raised (no sleeping on done events here).
            with pool._lock:
                settled = {
                    pending.job.id
                    for pending in pool._pending.values()
                    if pending.done.is_set()
                } | {"p0", "p1"} - set(pool._pending)
            assert {"p0", "p1"} <= settled
            assert first.done.wait(30.0) and first.result.ok


class TestDispatcherDeadlines:
    """Deadlines in simulated time, beside one real-process smoke: the
    worker's own skip of an expired job."""

    def test_begin_ack_is_stamped_with_the_workers_clock(self):
        # The worker's begin post leaves through its queue's feeder thread,
        # which can wait as long as the job holds the GIL; the attempt's
        # job_timeout clock starts at the ``at`` the worker stamped, not
        # when the ack arrives.
        with SimPool(workers=1) as pool:
            with pool._lock:
                pool._pending["probe"] = _Pending(Job(kind="sleep", id="probe"), slot=0, sequence=-1)
                pool._on_message_locked({
                    "op": "begin", "id": "probe", "at": 12.5,
                    "slot": 0, "generation": pool._slots[0].handle.generation,
                })
                begun_at = pool._pending.pop("probe").begun_at
        assert begun_at == 12.5

    def test_queued_past_deadline_dead_letters_without_running(self):
        # One worker is pinned by a sleeper; the queued job's deadline
        # lapses before it ever starts and it dead-letters in place with
        # the deterministic JobTimeout document (attempts pinned to 1).
        with SimPool(workers=1) as pool:
            slow = pool.submit({"id": "pin", "kind": "sleep", "seconds": 1.0, "key": "k"})
            queued = pool.submit(
                {"id": "q", "kind": "normalize", "program": REDEX, "key": "k",
                 "deadline": 0.1}
            )
            pool.settle(queued)
            assert queued.done.is_set()
            pool.settle(slow)
            assert slow.done.is_set()
        assert not queued.result.ok
        assert queued.result.error["type"] == "JobTimeout"
        assert queued.result.error["message"] == "job missed its 0.1s deadline"
        assert queued.result.error["attempts"] == 1
        assert slow.result.ok  # the innocent sleeper is never blamed

    def test_running_past_deadline_is_killed_and_dead_lettered(self):
        with SimPool(workers=1) as pool:
            late = pool.submit({"id": "late", "kind": "sleep", "seconds": 30.0,
                                "deadline": 0.2})
            after = pool.submit({"id": "after", "kind": "normalize", "program": REDEX})
            pool.settle([late, after])
            assert late.done.is_set() and after.done.is_set()
            stats = pool.stats()
        assert not late.result.ok
        assert late.result.error["type"] == "JobTimeout"
        assert late.result.error["message"] == "job missed its 0.2s deadline"
        assert late.result.error["attempts"] == 1
        assert after.result.ok and after.result.payload["normal"] == "42"
        assert stats.restarts >= 1  # the overdue worker was killed

    def test_deadline_document_is_deterministic_across_paths(self):
        # Queued-expired and running-expired produce the same canonical
        # error halves for the same spec: a pure function of the job.
        def run(pin_first: bool):
            with SimPool(workers=1) as pool:
                if pin_first:
                    pool.submit({"id": "pin", "kind": "sleep", "seconds": 0.6,
                                 "key": "k"})
                doomed = pool.submit({"id": "d", "kind": "sleep", "seconds": 30.0,
                                      "key": "k", "deadline": 0.2})
                pool.settle(doomed)
                assert doomed.done.is_set()
                return doomed.result.canonical()

        assert run(pin_first=True) == run(pin_first=False)

    def test_expired_queued_job_never_keeps_the_worker_busy(self):
        # A job dead-lettered while queued is skipped by the worker too, so
        # the next job on its key runs right after the pin, not after the
        # 30s the expired job would have slept.
        with Dispatcher(workers=1) as pool:
            pool.submit({"id": "pin", "kind": "sleep", "seconds": 0.6, "key": "k"})
            doomed = pool.submit({"id": "d", "kind": "sleep", "seconds": 30.0,
                                  "key": "k", "deadline": 0.2})
            after = pool.submit({"id": "after", "kind": "normalize",
                                 "program": REDEX, "key": "k"})
            assert after.done.wait(5.0), "the expired job kept the worker busy"
            assert after.result.ok
            assert doomed.result.error["type"] == "JobTimeout"


class TestElasticity:
    def test_grow_adds_capacity_and_shrink_retires_warmly(self):
        with Dispatcher(workers=1) as pool:
            assert pool.active_workers() == 1
            slot = pool.grow()
            assert slot == 1 and pool.active_workers() == 2
            results = pool.run_batch(
                [{"id": f"e{i}", "kind": "normalize", "program": REDEX,
                  "key": f"k{i}"} for i in range(4)]
            )
            assert all(result.ok for result in results)
            assert pool.shrink() == 1
            assert pool.active_workers() == 1
            assert pool.shrink() is None  # never retires the last slot
            # Work keeps landing on the surviving slot.
            [tail] = pool.run_batch(
                [{"id": "tail", "kind": "normalize", "program": REDEX}]
            )
            assert tail.ok
            stats = pool.stats()
        assert stats.scale_ups == 1 and stats.scale_downs == 1
        assert stats.slots["1"]["retired"] is True

    def test_grow_revives_the_lowest_retired_slot(self):
        with Dispatcher(workers=2) as pool:
            assert pool.shrink() == 1
            # Wait for the retirement to finish (no pending work → instant).
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if pool.stats().slots["1"]["retired"]:
                    break
                time.sleep(0.01)
            assert pool.grow() == 1  # revived, not appended
            assert pool.active_workers() == 2
            [doc] = pool.run_batch(
                [{"id": "r", "kind": "normalize", "program": REDEX}]
            )
            assert doc.ok

    def test_grow_never_revives_a_slot_broken_while_retiring(self, recovery):
        # The breaker trips on a retiring slot: BROKEN is terminal, so a
        # later grow appends a fresh slot that really takes work.
        recovery(MAX_SLOT_RESPAWNS=1)
        with Dispatcher(workers=2) as pool:
            assert pool.slot_for(Job(kind="check", program=IDENTITY, key="a")) == 0
            assert pool.slot_for(Job(kind="check", program=IDENTITY, key="b")) == 1
            pool.submit({"id": "nap", "kind": "sleep", "seconds": 0.3, "key": "b"})
            crash = pool.submit({"id": "boom", "kind": "crash", "key": "b"})
            assert pool.shrink() == 1
            assert crash.done.wait(30.0)
            assert crash.result.error["type"] == "CrashLoopBreaker"
            assert pool.stats().slots["1"]["broken"] is True
            slot = pool.grow()
            assert slot is not None and slot != 1
            assert pool.active_workers() == 2
            assert pool.stats().slots[str(slot)]["broken"] is False
            results = pool.run_batch(
                [{"id": f"n{i}", "kind": "normalize", "program": REDEX}
                 for i in range(4)]
            )
            assert all(result.ok for result in results)
            assert pool.stats().jobs_per_slot.get(slot, 0) >= 1

    def test_shrinking_slot_finishes_its_pending_jobs(self):
        with Dispatcher(workers=2) as pool:
            # Key "b" shards to slot 1; give it work, then retire it.
            keyed = [
                pool.submit({"id": f"w{i}", "kind": "sleep", "seconds": 0.15,
                             "key": "b"})
                for i in range(2)
            ]
            slot = pool.shrink()
            assert slot is not None
            for pending in keyed:
                assert pending.done.wait(30.0)
                assert pending.result.ok  # finished on the retiring slot
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if pool.stats().slots[str(slot)]["retired"]:
                    break
                time.sleep(0.01)
            assert pool.stats().slots[str(slot)]["retired"] is True

    def test_supervisor_scales_up_under_burst_and_back_down(self):
        # The real-process smoke of the scaling rule, at its constants:
        # the collector's tick grows the pool under a burst and shrinks it
        # once idle.
        with Dispatcher(workers=1, max_workers=3, max_pending=64) as pool:
            results = pool.run_batch(
                [{"id": f"burst{i}", "kind": "sleep", "seconds": 0.1,
                  "key": f"k{i}"} for i in range(12)]
            )
            assert all(result.ok for result in results)
            # Idle now: wait for the tick to shed capacity again.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if pool.stats().scale_downs >= 1:
                    break
                time.sleep(0.02)
            stats = pool.stats()
            signals = pool.scaling.signals()
        assert stats.scale_ups >= 1
        assert stats.scale_downs >= 1
        assert (signals["scale_ups"], signals["scale_downs"]) == (
            stats.scale_ups, stats.scale_downs
        )

    def test_max_workers_below_workers_is_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            Dispatcher(workers=3, max_workers=1)

    def test_a_fixed_pool_has_no_scaling_rule(self):
        with Dispatcher(workers=1) as fixed, Dispatcher(workers=1, max_workers=1) as same:
            assert fixed.scaling is None and same.scaling is None

    def test_a_drained_pool_never_scales(self):
        pool = Dispatcher(workers=1, max_workers=2)
        pool.drain(timeout=5.0)
        assert pool.scaling.evaluate(1e9, 100, 1, 0) is None


#: Simulated seconds past both the evaluation interval and the cooldown.
PAST = SCALE_COOLDOWN + SCALE_INTERVAL


class TestScalingRule:
    """The elastic rule in simulated time: synthetic (now, depth, active,
    completed) inputs, no process and no sleep."""

    @staticmethod
    def rule(min_workers=1, max_workers=3):
        rule = ScalingRule(min_workers, max_workers)
        assert rule.evaluate(0.0, 0, min_workers, 0) is None  # the first evaluation
        return rule

    def test_grows_above_the_high_watermark_never_past_max_workers(self):
        rule = self.rule(max_workers=2)
        assert rule.evaluate(SCALE_INTERVAL, 2, 1, 0) is None  # at 2x, not above
        assert rule.evaluate(2 * SCALE_INTERVAL, 3, 1, 0) == "up"
        assert rule.evaluate(2 * SCALE_INTERVAL + PAST, 100, 2, 0) is None  # at max_workers

    def test_waits_out_the_cooldown(self):
        rule = self.rule()
        assert rule.evaluate(SCALE_INTERVAL, 10, 1, 0) == "up"
        assert rule.evaluate(1.5 * SCALE_INTERVAL, 10, 2, 0) is None  # within the interval
        assert rule.evaluate(2 * SCALE_INTERVAL, 10, 2, 0) is None  # within the cooldown
        assert rule.evaluate(SCALE_INTERVAL + PAST, 10, 2, 0) == "up"

    def test_a_stalled_backlog_grows_below_the_watermark(self):
        rule = self.rule(min_workers=2, max_workers=4)
        for step in range(1, STALL_EVALUATIONS):
            assert rule.evaluate(step * PAST, 3, 2, 0) is None  # depth > active, no completion
        assert rule.signals()["stalled_ticks"] == STALL_EVALUATIONS - 1
        assert rule.evaluate(STALL_EVALUATIONS * PAST, 3, 2, 0) == "up"
        assert rule.signals()["stalled_ticks"] == 0

    def test_completions_are_not_a_stall(self):
        rule = self.rule(min_workers=2, max_workers=4)
        for step in range(1, 3 * STALL_EVALUATIONS):
            assert rule.evaluate(step * PAST, 3, 2, step) is None
        assert rule.signals()["stalled_ticks"] == 0

    def test_shrinks_below_the_low_watermark_down_to_min_workers(self):
        rule = self.rule(min_workers=1, max_workers=3)
        assert rule.evaluate(PAST, 1, 3, 0) == "down"  # 1 < 0.5 * 3
        assert rule.evaluate(2 * PAST, 1, 2, 0) is None  # 1 is 0.5 * 2, not below
        assert rule.evaluate(3 * PAST, 0, 2, 0) == "down"
        assert rule.evaluate(4 * PAST, 0, 1, 0) is None  # at min_workers
        assert rule.signals()["scale_downs"] == 2

    def test_no_scale_event_once_closed(self):
        rule = self.rule()
        rule.close()
        assert rule.evaluate(SCALE_INTERVAL, 100, 1, 0) is None
        assert rule.evaluate(2 * PAST, 0, 3, 0) is None
        assert rule.signals()["scale_ups"] == 0

    def test_no_scale_event_without_an_active_slot(self):
        rule = self.rule()
        assert rule.evaluate(SCALE_INTERVAL, 100, 0, 0) is None

    def test_completion_rate(self):
        rule = self.rule()
        assert rule.evaluate(0.1, 0, 1, 5) is None
        assert rule.signals()["completion_rate"] == pytest.approx(50.0)
        rule.evaluate(0.12, 0, 1, 9)  # inside the interval: not an evaluation
        assert rule.signals()["completion_rate"] == pytest.approx(50.0)
        rule.evaluate(0.35, 0, 1, 9)
        assert rule.signals()["completion_rate"] == pytest.approx(16.0)


class TestGracefulDrain:
    """The drain timeout in simulated time, beside the real-process smoke
    of a drain racing a blocked submitter."""

    def test_drain_under_backlog_answers_every_accepted_job(self):
        # Satellite contract: submit more than max_pending, start a drain
        # mid-stream, and every *accepted* job completes or dead-letters —
        # zero accepted-and-lost — while late submits are refused loudly.
        pool = Dispatcher(workers=2, max_pending=4)
        accepted: list = []
        refused: list[str] = []

        def feed() -> None:
            for index in range(16):
                try:
                    accepted.append(
                        pool.submit({"id": f"dr{index}", "kind": "sleep",
                                     "seconds": 0.05})
                    )
                except RuntimeError as err:
                    refused.append(str(err))
                    break

        import threading

        feeder = threading.Thread(target=feed)
        feeder.start()
        time.sleep(0.15)  # a few accepted, the feeder blocked on max_pending
        pool.drain(timeout=30.0)
        feeder.join(timeout=30.0)
        assert accepted  # the stream was genuinely mid-flight
        for pending in accepted:
            assert pending.done.is_set(), "an accepted job went silent"
            result = pending.result
            assert result.ok or result.error["type"] in (
                "DrainTimeout", "DispatcherShutdown"
            )
        assert refused and "draining" in refused[0]
        with pytest.raises(RuntimeError):
            pool.submit({"id": "late", "kind": "normalize", "program": REDEX})

    def test_drain_timeout_dead_letters_the_stragglers(self):
        pool = SimPool(workers=1)
        slow = pool.submit({"id": "straggler", "kind": "sleep", "seconds": 30.0})
        quick = pool.submit({"id": "quick", "kind": "normalize", "program": REDEX,
                             "key": "other"})
        started = pool.sim.clock()
        pool.drain(timeout=0.5)
        assert pool.sim.clock() - started < 0.5 + 3.0
        assert slow.done.is_set() and quick.done.is_set()
        assert not slow.result.ok
        assert slow.result.error["type"] in ("DrainTimeout", "DispatcherShutdown")
