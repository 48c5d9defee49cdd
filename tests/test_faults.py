"""Tests for the deterministic fault-injection harness (``repro.service.faults``).

The harness contract: every fault a plan schedules fires at an exact
(job, attempt) coordinate, the whole schedule is a pure function of the
seed, and an inactive harness costs nothing — the executor and the
persistent tier take the identical code path when no injector is
installed.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.service import Job
from repro.service.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    activate,
    active,
    retry_delay,
)

REDEX = r"(\ (x : Nat). succ x) 41"


@pytest.mark.parametrize(
    "streak, key, expected",
    [
        # Client keys: "{token}:{attempt}" with the attempt as the streak.
        (1, "connect:1", 0.04673080444335938),
        (2, "reconnect:2", 0.120050048828125),
        (3, "job-7:3", 0.2196380615234375),
        (9, "job-7:9", 1.695404052734375),
        # Dispatcher keys: "{slot}:{generation}", the slot's death streak.
        (1, "0:1", 0.04019355773925781),
        (4, "3:12", 0.328631591796875),
        (7, "1:2", 2.1472930908203125),
    ],
)
def test_retry_delay_is_pinned(streak, key, expected):
    # Base 0.05 s and cap 2.0 s are the client's and the dispatcher's defaults.
    assert retry_delay(0.05, 2.0, streak, key) == expected


class TestFault:
    def test_roundtrip(self):
        fault = Fault(kind="kill", job_id="j1", attempts=2)
        assert Fault.from_dict(fault.to_dict()) == fault
        delayed = Fault(kind="delay", job_id="j2", seconds=0.25)
        assert Fault.from_dict(delayed.to_dict()) == delayed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="meteor", job_id="j1")

    def test_attempt_gating(self):
        transient = Fault(kind="kill", job_id="j", attempts=2)
        assert transient.fires_on(0) and transient.fires_on(1)
        assert not transient.fires_on(2)
        poison = Fault(kind="kill", job_id="j", attempts=-1)
        assert all(poison.fires_on(attempt) for attempt in range(10))

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            Fault(kind="kill", job_id="j", attempts=0)


    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"job_id": "a"}, "missing 'kind'"),
            ({"kind": "kill"}, "missing 'job_id'"),
            ({"kind": "kill", "job_id": "a", "attempts": "x"}, "'attempts' must be an integer"),
            ({"kind": "kill", "job_id": "a", "attempts": True}, "'attempts' must be an integer"),
            ({"kind": "delay", "job_id": "a", "seconds": "x"}, "'seconds' must be a number"),
            ({"kind": "kill", "job_id": 3}, "'job_id' must be a string"),
            ("kill", "must be an object"),
        ],
    )
    def test_malformed_spec_rejected_by_name(self, spec, message):
        with pytest.raises(ValueError, match=message):
            Fault.from_dict(spec)


class TestFaultPlan:
    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"faults": [{"job_id": "a"}]}, "missing 'kind'"),
            ({"faults": {"job_id": "a"}}, "'faults' must be a list"),
            ([1], "must be an object"),
        ],
    )
    def test_malformed_plan_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.from_dict(spec)

    def test_generate_is_a_pure_function_of_the_seed(self):
        ids = [f"job-{index}" for index in range(24)]
        kwargs = dict(
            kills=2,
            poisons=1,
            delays=2,
            store_read_errors=2,
            store_write_errors=2,
            corruptions=3,
        )
        one = FaultPlan.generate(17, ids, **kwargs)
        two = FaultPlan.generate(17, ids, **kwargs)
        assert one == two
        assert one.to_dict() == two.to_dict()
        other = FaultPlan.generate(18, ids, **kwargs)
        assert one != other

    def test_generate_victims_are_disjoint(self):
        ids = [f"job-{index}" for index in range(30)]
        plan = FaultPlan.generate(
            5, ids, kills=3, poisons=2, delays=3, store_read_errors=3,
            store_write_errors=3, corruptions=3,
        )
        victims = [entry["job_id"] for entry in plan.to_dict()["faults"]]
        assert len(victims) == len(set(victims))  # at most one fault per job
        assert set(victims) <= set(ids)

    def test_corruptible_ids_restrict_wire_corrupt(self):
        ids = [f"job-{index}" for index in range(12)]
        plan = FaultPlan.generate(
            3, ids, kills=2, corruptions=2, corruptible_ids=["job-0", "job-1"]
        )
        corrupted = plan.corrupted_ids()
        assert corrupted and corrupted <= {"job-0", "job-1"}

    def test_divergent_ids_are_poisons_plus_corruptions(self):
        plan = FaultPlan(
            [
                Fault("kill", "transient", attempts=1),
                Fault("kill", "poison", attempts=-1),
                Fault("kill", "exhausting", attempts=3),
                Fault("wire_corrupt", "garbled", attempts=-1),
                Fault("store_read_error", "unlucky", attempts=-1),
            ],
            seed=9,
        )
        # max_attempts=2: a 1-attempt kill recovers, a 3-attempt kill exhausts.
        assert plan.divergent_ids(2) == {"exhausting", "garbled", "poison"}
        # max_attempts=4 gives the 3-attempt kill room to recover.
        assert plan.divergent_ids(4) == {"garbled", "poison"}

    def test_roundtrip_and_summary_are_json_safe(self):
        ids = [f"job-{index}" for index in range(10)]
        plan = FaultPlan.generate(7, ids, kills=1, poisons=1, delays=1)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(None) is None
        summary = plan.summary(max_attempts=2)
        assert json.loads(json.dumps(summary)) == summary
        assert summary["seed"] == 7
        assert sum(summary["by_kind"].values()) == len(plan)

    def test_one_job_can_carry_several_faults(self):
        plan = FaultPlan([Fault("kill", "j"), Fault("delay", "j", seconds=0.1)])
        assert [fault.kind for fault in plan.for_job("j")] == ["kill", "delay"]
        assert len(plan) == 2
        assert plan.for_job(None) == ()

    def test_all_kinds_generate(self):
        ids = [f"job-{index}" for index in range(20)]
        plan = FaultPlan.generate(
            1, ids, kills=1, poisons=1, delays=1, store_read_errors=1,
            store_write_errors=1, corruptions=1,
            conn_drops=1, conn_stalls=1, conn_truncates=1,
        )
        kinds = {entry["kind"] for entry in plan.to_dict()["faults"]}
        assert kinds == set(FAULT_KINDS)


class TestFaultInjector:
    def test_attempt_counting_gates_transient_kills(self):
        injector = FaultInjector(FaultPlan([Fault("kill", "j", attempts=1)]))
        injector.begin("j", 0)
        assert injector.kill("j")
        injector.begin("j", 1)
        assert not injector.kill("j")  # second attempt survives

    def test_stall_and_mutate_leave_unlisted_jobs_alone(self):
        injector = FaultInjector(
            FaultPlan([Fault("delay", "slowpoke", seconds=0.25)])
        )
        injector.begin("other", 0)
        assert injector.stall_seconds("other") == 0.0
        job = Job(kind="normalize", program=REDEX, id="other")
        assert injector.mutate(job) is job

    def test_mutation_is_deterministic(self):
        injector = FaultInjector(FaultPlan([Fault("wire_corrupt", "g", attempts=-1)]))
        job = Job(kind="normalize", program=REDEX, id="g")
        injector.begin("g", 0)
        first = injector.mutate(job)
        injector.begin("g", 1)
        second = injector.mutate(job)
        assert first.program == second.program != job.program

    def test_fired_telemetry_records_each_firing(self):
        injector = FaultInjector(FaultPlan([Fault("kill", "j", attempts=-1)]))
        injector.begin("j", 0)
        injector.kill("j")
        injector.begin("j", 1)
        injector.kill("j")
        assert [(kind, jid) for kind, jid, _ in injector.fired] == [
            ("kill", "j"),
            ("kill", "j"),
        ]

    def test_activation_is_scoped(self):
        assert active() is None
        injector = FaultInjector(FaultPlan([]))
        with activate(injector):
            assert active() is injector
        assert active() is None


class TestSoloChaos:
    def test_no_plan_is_byte_identical_to_never_having_the_module(self):
        jobs = [{"id": "j0", "kind": "normalize", "program": REDEX}]
        plain = api.execute_jobs(jobs)
        unfaulted = api.execute_jobs(jobs, fault_plan=None)
        assert plain.canonical() == unfaulted.canonical()
        assert "chaos" not in plain.stats

    def test_corruption_yields_a_deterministic_error_document(self):
        jobs = [
            {"id": "fine", "kind": "normalize", "program": REDEX},
            {"id": "garbled", "kind": "normalize", "program": REDEX},
        ]
        plan = FaultPlan([Fault("wire_corrupt", "garbled", attempts=-1)], seed=3)
        one = api.execute_jobs(jobs, fault_plan=plan)
        two = api.execute_jobs(jobs, fault_plan=plan)
        assert one.canonical() == two.canonical()
        by_id = {doc["id"]: doc for doc in one.canonical()}
        assert by_id["fine"]["ok"]
        assert not by_id["garbled"]["ok"]
        assert one.stats["chaos"]["divergent_ids"] == ["garbled"]

    def test_chaos_stats_carry_the_plan_summary(self):
        plan = FaultPlan([Fault("delay", "j0", seconds=0.0)], seed=21)
        report = api.execute_jobs(
            [{"id": "j0", "kind": "normalize", "program": REDEX}], fault_plan=plan
        )
        assert report.stats["chaos"]["seed"] == 21
        assert report.stats["chaos"]["by_kind"] == {"delay": 1}
