"""E22 — endpoint: the streaming service under concurrent clients.

The robustness gate for the socket layer (``python -m repro serve`` /
``batch --connect``).  A background endpoint fronts an elastic worker pool
while windowed clients stream NDJSON jobs at it; the gates:

* **Concurrency determinism** — four clients streaming interleaved mixed
  workloads (successes, deterministic errors, fuel exhaustion) each get
  results byte-identical to a solo run of their own stream, error
  documents included.  Admission control, fair-share scheduling, and
  per-connection affinity namespacing may reorder *execution* freely but
  can never change a deterministic payload.
* **Zero accepted-and-lost** — a graceful drain fired mid-stream while a
  connection-chaos plan drops, stalls, and truncates deliveries leaves no
  accepted job unresolved: after the drain every retained record carries
  its document, the pool's pending table is empty, and everything the
  client did receive is a structured document.
* **Elastic scaling** — a burst against a ``min_workers=1`` /
  ``max_workers=4`` pool provokes at least one scale-up *and*, once the
  queue empties, at least one scale-down (both visible in pool stats).
* **Concurrent throughput** — four windowed clients push an IO-bound
  workload at least ``2×`` faster than one serial (window-1) client
  against the same pool: the endpoint must actually overlap work across
  connections, not serialize them.

Emits ``BENCH_endpoint.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time

from repro import api
from repro.service import ServiceClient, serve_background
from repro.service.faults import FaultPlan

_ARTIFACT = pathlib.Path(__file__).with_name("BENCH_endpoint.json")
_GATE_SPEEDUP = 2.0
_CLIENTS = 4
_ATTEMPTS = 3

REDEX = r"(\ (x : Nat). succ x) 41"
IDENTITY = r"\ (A : Type) (x : A). x"


def _client_stream(client_index: int) -> list[dict]:
    """One client's mixed workload: successes, errors, fuel exhaustion."""
    stream: list[dict] = []
    for index in range(8):
        stream.append(
            {
                "id": f"c{client_index}-n{index}",
                "kind": "normalize",
                "program": rf"(\ (x : Nat). succ x) {40 + index}",
                "key": f"lane-{client_index}",
            }
        )
    stream.append(
        {"id": f"c{client_index}-ok", "kind": "check", "program": IDENTITY}
    )
    stream.append(  # deterministic type error
        {"id": f"c{client_index}-ill", "kind": "check", "program": "0 0"}
    )
    stream.append(  # deterministic fuel exhaustion
        {"id": f"c{client_index}-fuel", "kind": "normalize", "program": REDEX,
         "fuel": 0}
    )
    return stream


def _strip_meta(documents: list[dict]) -> list[dict]:
    return [{k: v for k, v in doc.items() if k != "meta"} for doc in documents]


def _run_clients(
    host: str, port: int, streams: list[list[dict]], window: int
) -> tuple[list[list[dict]], float]:
    """Run one client thread per stream; returns (documents, seconds)."""
    outputs: dict[int, list[dict]] = {}
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            with ServiceClient(host, port, window=window, timeout=120.0) as client:
                outputs[index] = client.run_batch(streams[index])
        except BaseException as err:  # pragma: no cover - surfaced below
            errors.append(err)

    threads = [
        threading.Thread(target=run, args=(index,)) for index in range(len(streams))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return [outputs[index] for index in range(len(streams))], elapsed


def test_endpoint_gate():
    """Acceptance: concurrent-client determinism, elastic scale-up and
    scale-down, and ≥ 2× four-client speedup over a serial client.
    Timing takes the best of three attempts; every determinism assertion
    holds on every attempt.
    """
    streams = [_client_stream(index) for index in range(_CLIENTS)]
    solos = [api.execute_jobs(stream).canonical() for stream in streams]

    # -- concurrency determinism + elastic scaling (one shared server) -----
    with serve_background(min_workers=1, max_workers=4, conn_window=16) as server:
        documents, _ = _run_clients(server.host, server.port, streams, window=8)
        for index, solo in enumerate(solos):
            assert _strip_meta(documents[index]) == solo, (
                f"client {index} diverged from its solo run"
            )

        # Provoke the scaling rule: a burst of IO-bound jobs deep enough to
        # cross the high watermark, then an idle tail for the shrink.
        with ServiceClient(server.host, server.port, window=32) as client:
            burst = [
                {"id": f"burst-{index}", "kind": "sleep", "seconds": 0.08,
                 "key": f"bk{index}"}
                for index in range(24)
            ]
            burst_docs = client.run_batch(burst)
            assert all(doc["ok"] for doc in burst_docs)
            deadline = time.monotonic() + 15.0
            pool_stats: dict = {}
            while time.monotonic() < deadline:
                pool_stats = client.stats()["meta"]["stats"]["pool"]
                if pool_stats["scale_ups"] >= 1 and pool_stats["scale_downs"] >= 1:
                    break
                time.sleep(0.1)
        scale_ups = pool_stats.get("scale_ups", 0)
        scale_downs = pool_stats.get("scale_downs", 0)
        endpoint_stats = server.endpoint.telemetry()

    assert scale_ups >= 1, "the burst never provoked a scale-up"
    assert scale_downs >= 1, "the idle tail never provoked a scale-down"

    # -- zero accepted-and-lost across a chaos-plan drain ------------------
    chaos_jobs = [
        {"id": f"x{index}", "kind": "sleep", "seconds": 0.05}
        for index in range(24)
    ]
    plan = FaultPlan.generate(
        22,
        [job["id"] for job in chaos_jobs],
        conn_drops=2,
        conn_stalls=2,
        conn_truncates=2,
    )
    drain_server = serve_background(min_workers=2, fault_plan=plan, conn_window=8)
    outcome: dict = {}

    def stream_into_drain() -> None:
        try:
            with ServiceClient(
                drain_server.host, drain_server.port, window=8, timeout=30.0
            ) as client:
                outcome["documents"] = client.run_batch(chaos_jobs)
        except (TimeoutError, ConnectionError) as err:
            outcome["error"] = err

    feeder = threading.Thread(target=stream_into_drain)
    feeder.start()
    time.sleep(0.4)  # part of the stream accepted, faults firing
    drain_server.stop()  # graceful drain mid-stream
    feeder.join(timeout=60.0)
    endpoint = drain_server.endpoint
    lost = [
        record.job.id
        for record in endpoint._records.values()
        if record.document is None
    ]
    assert not lost, f"accepted jobs went silent through the drain: {lost}"
    assert endpoint.dispatcher.queue_depth() == 0
    drain_telemetry = endpoint.telemetry()
    for document in outcome.get("documents", []):
        assert document["ok"] or document["error"]["type"], document

    # -- concurrent throughput ≥ 2× one serial client ----------------------
    def sleep_jobs(prefix: str, count: int) -> list[dict]:
        return [
            {"id": f"{prefix}-{index}", "kind": "sleep", "seconds": 0.04,
             "key": f"{prefix}{index % 4}"}
            for index in range(count)
        ]

    speedup = 0.0
    serial_seconds = concurrent_seconds = float("inf")
    with serve_background(min_workers=4, conn_window=16) as server:
        for attempt in range(_ATTEMPTS):
            [serial_docs], serial_elapsed = _run_clients(
                server.host, server.port, [sleep_jobs(f"s{attempt}", 24)], window=1
            )
            assert all(doc["ok"] for doc in serial_docs)
            quarters = [sleep_jobs(f"q{attempt}{part}", 6) for part in range(_CLIENTS)]
            concurrent_docs, concurrent_elapsed = _run_clients(
                server.host, server.port, quarters, window=8
            )
            assert all(doc["ok"] for docs in concurrent_docs for doc in docs)
            attempt_speedup = serial_elapsed / concurrent_elapsed
            if attempt_speedup > speedup:
                speedup = attempt_speedup
                serial_seconds, concurrent_seconds = serial_elapsed, concurrent_elapsed
            if speedup >= _GATE_SPEEDUP and attempt >= 1:
                break

    _ARTIFACT.write_text(
        json.dumps(
            {
                "bench": "e22_endpoint",
                "schema": 1,
                "python": sys.version.split()[0],
                "clients": _CLIENTS,
                "gate_speedup": _GATE_SPEEDUP,
                "concurrency": {
                    "streams": len(streams),
                    "jobs_per_stream": len(streams[0]),
                    "determinism_identical": True,
                    "endpoint": {
                        key: endpoint_stats.get(key)
                        for key in ("connections", "accepted", "delivered",
                                    "shed", "redelivered")
                    },
                },
                "elastic": {"scale_ups": scale_ups, "scale_downs": scale_downs},
                "drain": {
                    "accepted_and_lost": len(lost),
                    "accepted": drain_telemetry.get("accepted"),
                    "delivered": drain_telemetry.get("delivered"),
                    "retained": drain_telemetry.get("retained"),
                    "client_finished": "documents" in outcome,
                },
                "throughput": {
                    "serial_seconds": serial_seconds,
                    "concurrent_seconds": concurrent_seconds,
                    "speedup": speedup,
                },
            },
            indent=2,
        )
        + "\n"
    )

    assert speedup >= _GATE_SPEEDUP, (
        f"four concurrent clients only {speedup:.2f}x a serial client "
        f"(gate {_GATE_SPEEDUP}x): the endpoint is serializing connections"
    )


def test_chaos_clients_heal_to_identical_bytes():
    """Client-side connection chaos (drops, stalls, truncations at exact
    job coordinates) changes nothing but timing: the healed stream is
    byte-identical to the fault-free solo run."""
    jobs = [
        {"id": f"h{index}", "kind": "normalize",
         "program": rf"(\ (x : Nat). succ x) {index}"}
        for index in range(12)
    ]
    solo = api.execute_jobs(jobs).canonical()
    plan = FaultPlan.generate(
        7, [job["id"] for job in jobs], conn_drops=2, conn_stalls=1,
        conn_truncates=1,
    )
    with serve_background(min_workers=2) as server:
        with ServiceClient(
            server.host, server.port, window=4, fault_plan=plan
        ) as client:
            documents = client.run_batch(jobs)
            healed = client.reconnects
    assert _strip_meta(documents) == solo
    assert healed >= 1  # the plan genuinely cost reconnects
