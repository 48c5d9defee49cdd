"""Tests for the service endpoint and its bundled client.

The endpoint contract: every line a client sends is answered by a
structured document (a result, a dead letter, or a typed refusal — never
silence); the deterministic halves are byte-identical to a solo run of
the same specs; and no failure the harness can schedule — dropped,
stalled, or truncated deliveries, server drain, admission shedding —
loses an accepted job.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import api
from repro.service import ServiceClient, serve_background
from repro.service.client import parse_address
from repro.service.faults import Fault, FaultPlan

IDENTITY = r"\ (A : Type) (x : A). x"
REDEX = r"(\ (x : Nat). succ x) 41"
DEEP_NEST = "".join(f"\\(x{i}:Nat). " for i in range(1600)) + "x0"


def _mixed_jobs() -> list[dict]:
    return [
        {"id": "e0", "kind": "parse", "program": IDENTITY},
        {"id": "e1", "kind": "check", "program": IDENTITY, "key": "a"},
        {"id": "e2", "kind": "normalize", "program": REDEX, "key": "b"},
        {"id": "e3", "kind": "check", "program": "0 0"},  # deterministic error
        {"id": "e4", "kind": "normalize", "program": REDEX, "fuel": 0},
        {"id": "e5", "kind": "run", "program": REDEX},
        # Too deep for the default stack: the deep-stack runner checks it,
        # with the solo run's document.
        {"id": "e6", "kind": "check", "program": DEEP_NEST},
    ]


def _strip_meta(documents: list[dict]) -> list[dict]:
    return [{k: v for k, v in doc.items() if k != "meta"} for doc in documents]


class _RawConnection:
    """A bare socket speaking the NDJSON protocol, for precision tests."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.file = self.sock.makefile("rwb")

    def send(self, document: dict) -> None:
        self.file.write(json.dumps(document).encode() + b"\n")
        self.file.flush()

    def recv(self) -> dict:
        line = self.file.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()


class TestAddress:
    def test_parse(self):
        assert parse_address("127.0.0.1:7420") == ("127.0.0.1", 7420)

    def test_malformed(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("7420")


class TestRoundTrip:
    def test_byte_identical_to_solo(self):
        jobs = _mixed_jobs()
        solo = api.execute_jobs(jobs)
        with serve_background(min_workers=1) as server:
            with ServiceClient(server.host, server.port) as client:
                documents = client.run_batch(jobs)
        assert _strip_meta(documents) == solo.canonical()
        assert {doc["id"]: doc["ok"] for doc in documents}["e6"]

    def test_a_job_line_past_64_kib(self):
        # A line past asyncio's default 64 KiB limit once reset the
        # connection; the endpoint reads room for an input at the ingest cap.
        program = "-- " + "x" * 100_000 + "\n0"
        with serve_background(min_workers=1) as server:
            with ServiceClient(server.host, server.port) as client:
                (document,) = client.run_batch([{"id": "long", "kind": "check", "program": program}])
        assert document["ok"], document

    def test_execute_jobs_connect_front_end(self):
        jobs = _mixed_jobs()
        solo = api.execute_jobs(jobs)
        with serve_background(min_workers=1) as server:
            report = api.execute_jobs(jobs, connect=f"{server.host}:{server.port}")
        assert report.canonical() == solo.canonical()
        assert report.stats["pool"]["workers"] == 1
        assert report.stats["client"]["reconnects"] == 0

    def test_stats_poll_is_inline_telemetry(self):
        with serve_background(min_workers=1) as server:
            with ServiceClient(server.host, server.port) as client:
                client.run_batch([{"id": "w0", "kind": "normalize", "program": REDEX}])
                document = client.stats()
        assert document["ok"] and document["payload"] == {"stats": True}
        stats = document["meta"]["stats"]
        assert stats["pool"]["completed"] >= 1
        assert stats["endpoint"]["accepted"] >= 1
        assert stats["endpoint"]["conn_window"] == 32

    def test_hello_and_structured_refusals(self):
        with serve_background(min_workers=1) as server:
            conn = _RawConnection(server.host, server.port)
            try:
                conn.send({"op": "hello"})
                welcome = conn.recv()
                assert welcome["op"] == "welcome" and welcome["wire"] == 2

                conn.file.write(b"this is not json\n")
                conn.file.flush()
                assert conn.recv()["error"]["type"] == "BadJob"

                conn.send({"kind": "check", "program": "0"})  # no id
                refusal = conn.recv()
                assert refusal["error"]["type"] == "BadJob"
                assert "id" in refusal["error"]["message"]

                conn.send({"id": "x", "kind": "frobnicate"})
                assert conn.recv()["error"]["type"] == "BadJob"
            finally:
                conn.close()

    def test_mistyped_field_is_a_bad_job(self):
        with serve_background(min_workers=1) as server:
            conn = _RawConnection(server.host, server.port)
            try:
                conn.send({"id": "y", "kind": "check", "program": "0", "fuel": True})
                error = conn.recv()["error"]
                assert error["type"] == "BadJob" and "'fuel'" in error["message"]
            finally:
                conn.close()


class TestAdmission:
    @pytest.mark.parametrize(
        "options",
        [
            {"conn_window": 0},
            {"max_inflight": 0},
            {"max_workers": 0, "min_workers": 1},
            {"fuel_quota": -5},
            {"metrics_interval": -1},
        ],
    )
    def test_bad_limits_fail_before_any_worker_spawns(self, monkeypatch, options):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was built")

        monkeypatch.setattr("repro.service.endpoint.Dispatcher", refuse)
        with pytest.raises(ValueError):
            serve_background(**options)

    def test_non_positive_job_timeout_is_rejected(self):
        from repro.service.dispatcher import Dispatcher

        with pytest.raises(ValueError, match="job_timeout"):
            Dispatcher(workers=1, job_timeout=0)

    def test_hard_shed_is_a_structured_overloaded_document(self):
        # Two connections, each windowed at 2, against a hard limit of 2:
        # the first fills the endpoint, the second is shed immediately.
        with serve_background(min_workers=1, conn_window=2, max_inflight=2) as server:
            first = _RawConnection(server.host, server.port)
            second = _RawConnection(server.host, server.port)
            try:
                for index in range(2):
                    first.send({"id": f"slow-{index}", "kind": "sleep", "seconds": 0.5})
                time.sleep(0.2)  # let both be admitted
                second.send({"id": "unlucky", "kind": "normalize", "program": REDEX})
                shed = second.recv()
                assert shed["id"] == "unlucky" and not shed["ok"]
                assert shed["error"]["type"] == "Overloaded"
                assert shed["error"]["shed"] is True
                for _ in range(2):  # the slow jobs still complete
                    assert first.recv()["ok"]
            finally:
                first.close()
                second.close()

    def test_client_retries_shed_jobs_to_completion(self):
        jobs = [{"id": f"s{i}", "kind": "sleep", "seconds": 0.05} for i in range(8)]
        jobs += [{"id": "real", "kind": "normalize", "program": REDEX}]
        with serve_background(min_workers=2, conn_window=2, max_inflight=2) as server:
            # Window 4 > the endpoint's hard limit: some sends are shed and
            # must be retried by the client with backoff.
            with ServiceClient(server.host, server.port, window=4) as client:
                documents = client.run_batch(jobs)
        assert all(doc["ok"] for doc in documents)

    def test_backpressure_window_still_completes_long_streams(self):
        jobs = [{"id": f"b{i}", "kind": "normalize", "program": REDEX} for i in range(20)]
        solo = api.execute_jobs(jobs)
        with serve_background(min_workers=1, conn_window=4, max_inflight=8) as server:
            with ServiceClient(server.host, server.port, window=4) as client:
                documents = client.run_batch(jobs)
        assert _strip_meta(documents) == solo.canonical()

    def test_fuel_quota_threads_into_the_checkers(self):
        jobs = [{"id": "q0", "kind": "normalize", "program": REDEX}]
        clamped = api.execute_jobs([{**jobs[0], "fuel": 0}])
        with serve_background(min_workers=1, fuel_quota=0) as server:
            with ServiceClient(server.host, server.port) as client:
                documents = client.run_batch(jobs)
        # The quota-exceeding job fails with the kernel's own deterministic
        # fuel-exhaustion document — as if the client had sent fuel: 0.
        assert _strip_meta(documents) == clamped.canonical()


class TestFairShare:
    def test_affinity_keys_are_namespaced_per_connection(self):
        with serve_background(min_workers=2) as server:
            first = _RawConnection(server.host, server.port)
            second = _RawConnection(server.host, server.port)
            try:
                # Same key from two clients: the namespace keeps their
                # streams on *separate* warm workers.
                first.send({"id": "a0", "kind": "normalize", "program": REDEX, "key": "k"})
                assert first.recv()["ok"]
                second.send({"id": "b0", "kind": "normalize", "program": REDEX, "key": "k"})
                assert second.recv()["ok"]
                first.send({"id": "poll", "kind": "stats"})
                pool = first.recv()["meta"]["stats"]["pool"]
                busy = [slot for slot, count in pool["jobs_per_slot"].items() if count]
                assert len(busy) == 2
            finally:
                first.close()
                second.close()

    def test_clients_with_identical_job_ids_do_not_collide(self):
        # Job ids are client-scoped: two clients streaming the *same* ids
        # concurrently (the CI smoke's generated batches do exactly this)
        # must each get their own complete, correct stream — the session
        # namespace keeps their records and dispatch ids apart.
        jobs = [
            {"id": f"dup-{index}", "kind": "normalize",
             "program": rf"(\ (x : Nat). succ x) {40 + index}"}
            for index in range(6)
        ]
        solo = api.execute_jobs(jobs)
        with serve_background(min_workers=2) as server:
            outputs: dict[int, list] = {}
            errors: list = []

            def run(index: int) -> None:
                try:
                    with ServiceClient(server.host, server.port, window=3) as client:
                        outputs[index] = client.run_batch(jobs)
                except Exception as err:  # pragma: no cover - surfaced below
                    errors.append(err)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        for index in range(2):
            assert _strip_meta(outputs[index]) == solo.canonical()

    def test_interleaved_clients_all_complete_byte_identical(self):
        streams = [
            [
                {"id": f"c{c}-{i}", "kind": "normalize", "program": REDEX, "key": f"k{c}"}
                for i in range(6)
            ]
            for c in range(3)
        ]
        solos = [api.execute_jobs(stream) for stream in streams]
        with serve_background(min_workers=2, conn_window=4) as server:
            outputs: dict[int, list] = {}
            errors: list = []

            def run(index: int) -> None:
                try:
                    with ServiceClient(server.host, server.port, window=4) as client:
                        outputs[index] = client.run_batch(streams[index])
                except Exception as err:  # pragma: no cover - surfaced below
                    errors.append(err)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        for index, solo in enumerate(solos):
            assert _strip_meta(outputs[index]) == solo.canonical()


class TestDeadlines:
    def test_deadline_over_the_wire_is_a_job_timeout_document(self):
        with serve_background(min_workers=1) as server:
            with ServiceClient(server.host, server.port) as client:
                [fine, late] = client.run_batch(
                    [
                        {"id": "fine", "kind": "normalize", "program": REDEX},
                        {"id": "late", "kind": "sleep", "seconds": 10.0, "deadline": 0.2},
                    ]
                )
        assert fine["ok"]
        assert not late["ok"]
        assert late["error"]["type"] == "JobTimeout"
        assert late["error"]["message"] == "job missed its 0.2s deadline"
        assert late["error"]["dead_letter"] is True


class TestConnectionFaults:
    def test_dropped_and_truncated_deliveries_heal_by_resubmit(self):
        jobs = [{"id": f"f{i}", "kind": "normalize", "program": REDEX} for i in range(8)]
        solo = api.execute_jobs(jobs)
        plan = FaultPlan(
            [
                Fault("conn_drop", "f2", attempts=1),
                Fault("conn_truncate", "f5", attempts=1),
                Fault("conn_stall", "f6", attempts=1, seconds=0.05),
            ],
            seed=3,
        )
        with serve_background(min_workers=1, fault_plan=plan) as server:
            with ServiceClient(server.host, server.port, window=4) as client:
                documents = client.run_batch(jobs)
                poll = client.stats()
        assert _strip_meta(documents) == solo.canonical()
        assert client.reconnects >= 2  # one per drop/truncate
        endpoint = poll["meta"]["stats"]["endpoint"]
        # The dropped/truncated results were retained and redelivered on
        # resubmit, not re-executed.
        assert endpoint["redelivered"] >= 1

    def test_client_side_chaos_changes_nothing_but_timing(self):
        jobs = [{"id": f"g{i}", "kind": "normalize", "program": REDEX} for i in range(10)]
        solo = api.execute_jobs(jobs)
        plan = FaultPlan.generate(
            9, [job["id"] for job in jobs], conn_drops=2, conn_stalls=1, conn_truncates=1
        )
        with serve_background(min_workers=1) as server:
            with ServiceClient(server.host, server.port, window=4, fault_plan=plan) as client:
                documents = client.run_batch(jobs)
        assert _strip_meta(documents) == solo.canonical()


class TestDrain:
    def test_drain_under_load_answers_every_job(self):
        jobs = [{"id": f"d{i}", "kind": "sleep", "seconds": 0.05} for i in range(12)]
        server = serve_background(min_workers=2, conn_window=4)
        outcome: dict = {}

        def run() -> None:
            try:
                with ServiceClient(server.host, server.port, window=4, timeout=30.0) as client:
                    outcome["documents"] = client.run_batch(jobs)
            except Exception as err:
                outcome["error"] = err

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.2)  # let part of the stream be accepted
        server.stop()  # graceful drain mid-stream
        thread.join(timeout=60)
        # The client either finished the whole batch before the drain cut
        # it off, or timed out trying to resubmit to a gone server — but
        # every document it *did* receive is structured, and everything the
        # endpoint accepted was answered (the endpoint asserts this shape
        # in its own drain; here we check the client's view).
        if "documents" in outcome:
            for document in outcome["documents"]:
                assert document["ok"] or document["error"]["type"] in (
                    "EndpointDraining",
                    "DrainTimeout",
                    "DispatcherShutdown",
                )
        else:
            assert isinstance(outcome["error"], (TimeoutError, ConnectionError))
