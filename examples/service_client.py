"""Streaming jobs through a live service endpoint.

Starts an elastic endpoint in the background (the same stack as
``python -m repro serve``), then drives it three ways with the bundled
:class:`repro.service.ServiceClient`:

1. **A windowed stream** of mixed jobs — successes, a deterministic type
   error, a fuel-exhausted normalization — showing that every job line is
   answered by a structured document and that the deterministic halves
   are byte-identical to running the same jobs in-process.
2. **A stats poll** — the ``/metrics``-style inline job kind that reports
   pool and endpoint telemetry even under load.
3. **A live metrics subscription** — ``watch_stats()`` streams periodic
   ``{"op": "metrics"}`` snapshots (pool health, the elastic pool's
   scaling signals, per-connection in-flight counts) interleaved with the results of a running
   batch, printed as one-line summaries; the watched batch's payloads
   stay byte-identical to the unwatched run.
4. **A chaotic stream** — the client drops, stalls, and truncates its own
   connection at scheduled job coordinates, and reconnect-plus-resubmit
   heals every fault: same bytes, just later.

Against a real deployment, replace ``serve_background`` with
``python -m repro serve --port 7420`` in another terminal and connect to
it with ``ServiceClient("127.0.0.1", 7420)`` — or from the CLI:

    python -m repro batch --connect 127.0.0.1:7420 jobs.jsonl --json

Run:  python examples/service_client.py
"""

from repro import api
from repro.service import ServiceClient, serve_background
from repro.service.faults import FaultPlan

REDEX = r"(\ (x : Nat). succ x) 41"


def main() -> None:
    jobs = [
        {"id": "n0", "kind": "normalize", "program": REDEX, "key": "demo"},
        {"id": "n1", "kind": "check", "program": r"\ (A : Type) (x : A). x"},
        {"id": "ill", "kind": "check", "program": "0 0"},  # deterministic error
        {"id": "fuel", "kind": "normalize", "program": REDEX, "fuel": 0},
        {"id": "run", "kind": "run", "program": REDEX, "key": "demo"},
    ]
    solo = api.execute_jobs(jobs).canonical()

    with serve_background(min_workers=1, max_workers=2) as server:
        print(f"endpoint listening on {server.host}:{server.port}")

        # 1. A plain windowed stream: every line answered, bytes solo-equal.
        with ServiceClient(server.host, server.port, window=4) as client:
            documents = client.run_batch(jobs)
        for document in documents:
            status = "ok  " if document["ok"] else "FAIL"
            detail = document.get("payload") or document["error"]["type"]
            print(f"  {status} {document['id']:>4}  {detail}")
        stripped = [
            {key: value for key, value in doc.items() if key != "meta"}
            for doc in documents
        ]
        assert stripped == solo, "served results diverged from in-process"
        print("served results byte-identical to in-process execution")

        # 2. Telemetry: a stats job is answered inline, outside admission.
        with ServiceClient(server.host, server.port) as client:
            stats = client.stats()["meta"]["stats"]
        print(
            f"pool: {stats['pool']['workers']} worker(s), "
            f"{stats['pool']['completed']} completed; "
            f"endpoint: {stats['endpoint']['accepted']} accepted, "
            f"{stats['endpoint']['delivered']} delivered"
        )

        # 3. Live telemetry: subscribe to the metrics stream and print a
        # one-line pool health summary per snapshot while a batch (padded
        # with sleep jobs so it spans a few intervals) streams through.
        from repro.obs import summarize_snapshot

        watched = jobs + [
            {"id": f"zz{i}", "kind": "sleep", "seconds": 0.08} for i in range(3)
        ]
        with ServiceClient(server.host, server.port, window=4) as client:
            client.watch_stats(
                interval=0.05,
                callback=lambda snap: print(f"  [pool] {summarize_snapshot(snap)}"),
            )
            documents = client.run_batch(watched)
            client.unwatch_stats()
        stripped = [
            {key: value for key, value in doc.items() if key != "meta"}
            for doc in documents[: len(jobs)]
        ]
        assert stripped == solo, "watching the pool changed result bytes"
        print(
            f"{len(client.metrics)} live snapshot(s) during the batch; "
            "results unchanged"
        )

        # 4. Client-side connection chaos: drop/stall/truncate at exact
        # job coordinates, healed by reconnect-and-resubmit.
        plan = FaultPlan.generate(
            7,
            [job["id"] for job in jobs],
            conn_drops=1,
            conn_stalls=1,
            conn_truncates=1,
        )
        with ServiceClient(
            server.host, server.port, window=2, fault_plan=plan
        ) as client:
            chaotic = client.run_batch(jobs)
            healed = client.reconnects
        stripped = [
            {key: value for key, value in doc.items() if key != "meta"}
            for doc in chaotic
        ]
        assert stripped == solo, "chaos changed more than timing"
        print(f"chaos stream healed by {healed} reconnect(s): same bytes")


if __name__ == "__main__":
    main()
