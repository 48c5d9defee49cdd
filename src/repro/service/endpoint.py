"""The service endpoint: a streaming socket front door over the dispatcher.

``python -m repro serve`` binds an asyncio server speaking
newline-delimited JSON: each line from a client is one job spec (the wire
format of :mod:`repro.service.jobs`, ``wire: 2`` binary programs welcome),
each line back is one result document.  Results stream back in completion
order, matched to requests by job id — clients keep a bounded window of
jobs in flight and never depend on ordering.

The endpoint is the part of the service that faces an *unbounded, hostile*
world, so every resource it hands out is bounded and every failure mode is
a structured document:

**Admission control.**  A connection may have at most ``conn_window``
accepted-but-unfinished jobs; past that the endpoint simply stops reading
the socket, so backpressure propagates to the client through TCP instead
of through unbounded buffering.  Endpoint-wide, at most ``max_inflight``
jobs are admitted; past the hard limit a job is **shed** with an
``Overloaded`` error document (``error["shed"]`` is True) the moment its
line is read — deterministic given the arrival order of accepted work,
and the bundled client knows to back off and resubmit.

**Per-client fair share.**  Each connection's reader submits an accepted
job straight to the dispatcher and then yields the event loop once, so
connections whose lines are waiting take turns: one job per client per
turn — a client streaming thousands of jobs cannot starve one streaming
ten.  Job ids and affinity keys are client-scoped:
both are namespaced by the client's session (announced in its ``hello``,
or private to the socket), so two clients streaming the same ids or keys
never collide — each gets its own records, its own warm workers — while
the pool sees globally unique dispatch ids; and an optional ``fuel_quota`` clamps
every client job's fuel, threading the service's resource policy down into
the kernel checkers (a quota-exceeding job fails with the kernel's own
deterministic fuel-exhaustion error).

**Deadlines.**  A job spec carrying ``deadline`` rides the dispatcher's
deadline machinery (:mod:`repro.service.dispatcher`): expired jobs come
back as ``JobTimeout`` dead-letter documents whose deterministic half is a
pure function of the spec — never silence, never a hung client.

**Graceful drain.**  On SIGTERM (or :meth:`Endpoint.drain`) the endpoint
stops accepting connections and job lines.  Every accepted job is already
in the pool, so the dispatcher's drain flushes them all (dead-lettering
anything that cannot finish), and the endpoint waits until the last
document has been delivered or retained before closing.
Zero accepted-and-lost by construction: an accepted job always resolves to
a document, and the document is either written to its owner or retained
for redelivery until the endpoint exits.

**Elastic scaling.**  ``serve`` runs the pool between ``min_workers`` and
``max_workers``; the dispatcher scales itself on its collector's tick
(:class:`~repro.service.dispatcher.ScalingRule`): queue depth past the
high watermark grows the pool (new workers warm from the shared
persistent memo store), an idle pool shrinks back.  Capacity and timing
change; bytes do not.

**Live telemetry.**  Beyond the inline ``stats`` poll, a client may send
``{"op": "watch", "interval": 0.5}`` to subscribe to a periodic metrics
stream: the endpoint pushes ``{"op": "metrics", ...}`` snapshots (pool
stats with per-slot health, endpoint counters, an elastic pool's scaling
signals, per-connection in-flight counts) between result lines until
``{"op": "unwatch"}``, the socket closes, or the endpoint drains.  Metrics
documents carry no ``id``, so result-keyed clients skip them structurally;
the snapshots are telemetry only and never perturb job results or drain
semantics.  ``serve --metrics-interval N`` additionally prints the same
snapshots as NDJSON lines server-side.

**Redelivery.**  A result whose connection died before (or during)
delivery is retained, keyed by session and job id; when the client
reconnects (announcing the same session) and resubmits — the bundled
client resubmits everything unacknowledged — the
endpoint recognizes the id and delivers the retained document instead of
re-executing.  The deterministic halves make the distinction invisible:
re-execution would produce the same bytes, redelivery is just cheaper.
Scheduled **connection faults** (:mod:`repro.service.faults`:
``conn_drop`` / ``conn_stall`` / ``conn_truncate``) are applied at exactly
this point — the moment a result is about to be written — which is how the
chaos benchmark proves the retention/resubmit loop loses nothing.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import signal
import threading
import time
from typing import Any, Mapping

from repro.common.deep import CAP
from repro.service.dispatcher import Dispatcher
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.jobs import Job

__all__ = ["Endpoint", "EndpointServer", "serve", "serve_background"]

_CONNECTION_IDS = itertools.count(1)

#: Error document types the endpoint itself can emit (never the kernel).
SHED_TYPE = "Overloaded"
BAD_JOB_TYPE = "BadJob"
DRAINING_TYPE = "EndpointDraining"

#: The longest job line the endpoint reads: room for a program at the
#: ingest cap (:data:`repro.common.deep.CAP`), JSON-escaped or in base64.
_LINE_LIMIT = 8 * CAP


def _error_doc(job_id: str | None, type_: str, message: str, **extra: Any) -> dict:
    """A structured endpoint-level error document (deterministic text)."""
    error = {"type": type_, "message": message}
    error.update(extra)
    return {"id": job_id, "ok": False, "error": error, "meta": {"endpoint": True}}


class _Connection:
    """Endpoint-side state for one client socket."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.id = next(_CONNECTION_IDS)
        self.reader = reader
        self.writer = writer
        self.inflight = 0  # accepted, not yet completed (the window)
        self.window = asyncio.Event()  # set when a completion may have opened it
        self.write_lock = asyncio.Lock()
        self.closed = False
        self.session: str | None = None  # hello-announced client identity
        self.watch_task: asyncio.Task | None = None  # metrics subscription

    @property
    def namespace(self) -> str:
        """The record/affinity namespace for this client.

        Job ids are client-scoped: two clients may stream the same ids
        concurrently without colliding.  A hello-announced session token
        keeps the namespace stable across reconnects (so resubmit finds
        its records); a client that never says hello gets a namespace
        private to the socket.
        """
        return self.session or f"conn{self.id}"

    async def send(self, document: Mapping[str, Any]) -> None:
        line = json.dumps(document).encode("utf-8") + b"\n"
        async with self.write_lock:
            if self.closed:
                raise ConnectionResetError("connection is closed")
            self.writer.write(line)
            await self.writer.drain()

    def abort(self) -> None:
        """Tear the socket down hard (connection-fault injection path)."""
        self.closed = True
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class _Record:
    """One accepted job: spec, owner, and (eventually) its result document."""

    __slots__ = (
        "key", "job", "dispatch_job", "owner", "window_conn", "document", "delivering"
    )

    def __init__(self, key: str, job: Job, dispatch_job: Job, owner: _Connection):
        self.key = key  # records-table key: "{namespace}/{job id}"
        self.job = job
        self.dispatch_job = dispatch_job
        self.owner: _Connection | None = owner
        self.window_conn: _Connection | None = owner
        self.document: dict[str, Any] | None = None
        self.delivering = False


def _check_limits(
    conn_window: int, max_inflight: int, fuel_quota: int | None, metrics_interval: float | None
) -> None:
    """Reject bad :class:`Endpoint` limits; ``_build`` checks before any worker spawns."""
    if conn_window < 1 or max_inflight < conn_window:
        raise ValueError("need 1 <= conn_window <= max_inflight")
    if fuel_quota is not None and fuel_quota < 0:
        raise ValueError("fuel_quota must not be negative")
    if metrics_interval is not None and metrics_interval <= 0:
        raise ValueError("metrics_interval must be positive seconds")


class Endpoint:
    """The asyncio NDJSON server fronting one :class:`Dispatcher`.

    Args:
        dispatcher: the worker pool to front.  Its ``max_pending`` must be
            at least ``max_inflight`` (a ``ValueError`` otherwise), so
            submitting an admitted job never blocks the event loop.
        host/port: bind address (port 0 picks a free port; read
            :attr:`port` after :meth:`start`).
        conn_window: accepted-but-unfinished jobs one connection may hold
            before the endpoint stops reading its socket.
        max_inflight: endpoint-wide hard admission limit; jobs arriving
            past it are shed with ``Overloaded`` documents.
        fuel_quota: per-client fuel clamp threaded into every job
            (None = no clamp).
        fault_plan: a :class:`FaultPlan` whose *connection-category* faults
            this endpoint fires at result-delivery time.  Worker-category
            faults in the same plan belong to the dispatcher (``serve``
            hands one plan to both).
        metrics_interval: when set, the endpoint prints one NDJSON metrics
            snapshot to stdout every ``metrics_interval`` seconds while
            serving (the server-side twin of the ``watch`` subscription).
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        conn_window: int = 32,
        max_inflight: int = 128,
        fuel_quota: int | None = None,
        fault_plan: FaultPlan | Mapping[str, Any] | None = None,
        metrics_interval: float | None = None,
    ) -> None:
        _check_limits(conn_window, max_inflight, fuel_quota, metrics_interval)
        if dispatcher.max_pending < max_inflight:
            raise ValueError("the dispatcher's max_pending must be at least max_inflight")
        self.dispatcher = dispatcher
        self.host = host
        self.port = port
        self.conn_window = conn_window
        self.max_inflight = max_inflight
        self.fuel_quota = fuel_quota
        self.metrics_interval = metrics_interval
        self._metrics_task: asyncio.Task | None = None
        plan = FaultPlan.coerce(fault_plan)
        self._injector = None if plan is None else FaultInjector(plan)
        self._server: asyncio.AbstractServer | None = None
        self._records: dict[str, _Record] = {}
        self._connections: set[_Connection] = set()
        self._inflight = 0  # endpoint-wide accepted, not yet completed
        self._draining = False
        self._drained = asyncio.Event()
        self._delivery_tasks: set[asyncio.Task] = set()
        self._settled = asyncio.Event()  # set when nothing is in flight or delivering
        self._counts = {
            "connections": 0,
            "accepted": 0,
            "shed": 0,
            "rejected": 0,
            "delivered": 0,
            "redelivered": 0,
            "retained": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the server (and start the metrics printer, if asked)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_interval is not None:
            self._metrics_task = asyncio.ensure_future(
                self._print_metrics(self.metrics_interval)
            )

    async def serve_until_drained(self) -> None:
        """Block until :meth:`drain` completes (signal-driven serving)."""
        await self._drained.wait()

    async def drain(self, timeout: float = 30.0) -> None:
        """Stop accepting, flush every accepted job, deliver, shut down."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Metrics streams stop first: telemetry must never delay (or
        # interleave into) the final result flush.
        if self._metrics_task is not None:
            self._metrics_task.cancel()
        for conn in list(self._connections):
            if conn.watch_task is not None:
                conn.watch_task.cancel()
        # Readers stop at the next line boundary (they check the flag); wake
        # any parked on a full window so they notice.
        for conn in list(self._connections):
            conn.window.set()
        # The pool flushes every accepted job: each completes or
        # dead-letters (DrainTimeout at worst) — zero accepted-and-lost.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        await loop.run_in_executor(None, lambda: self.dispatcher.drain(timeout=timeout))
        # Every completion callback is now queued (call_soon_threadsafe);
        # wait until the documents land and their deliveries settle.
        if self._inflight or self._delivery_tasks:
            self._settled.clear()
            try:
                await asyncio.wait_for(
                    self._settled.wait(), max(0.0, deadline + 5.0 - loop.time())
                )
            except asyncio.TimeoutError:  # pragma: no cover - a client stopped reading
                pass
        self._counts["retained"] = sum(
            1 for record in self._records.values() if record.document is not None
        )
        for conn in list(self._connections):
            try:
                await conn.send({"op": "bye", "drained": True})
            except (ConnectionError, OSError):
                pass
            conn.closed = True
            conn.writer.close()
        self._drained.set()

    # -- telemetry ------------------------------------------------------------

    def telemetry(self) -> dict[str, Any]:
        """Endpoint counters (the ``meta`` half of a ``stats`` poll)."""
        return {
            **self._counts,
            "open_connections": len(self._connections),
            "inflight": self._inflight,
            "conn_window": self.conn_window,
            "max_inflight": self.max_inflight,
            "draining": self._draining,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """One live-telemetry document: pool, endpoint, scaling, queues.

        ``at`` is the only wall-clock field a consumer should expect to
        vary run-to-run at equal load; everything else is counters.  The
        pool half is the full introspected :class:`PoolStats` document
        (per-slot health included), so a metrics stream is a superset of
        the inline ``stats`` poll.  An elastic pool adds its scaling
        signals under ``"supervisor"``.
        """
        pool = self.dispatcher.stats()
        snapshot: dict[str, Any] = {
            "op": "metrics",
            "at": time.time(),
            "pool": pool.to_dict(),
            "endpoint": self.telemetry(),
            "queues": {
                conn.namespace: {"inflight": conn.inflight} for conn in self._connections
            },
        }
        if self.dispatcher.scaling is not None:
            snapshot["supervisor"] = self.dispatcher.scaling.signals(pool.persist)
        return snapshot

    async def _watch_loop(self, conn: _Connection, interval: float) -> None:
        """Push metrics snapshots to one subscribed connection."""
        try:
            while not self._draining and not conn.closed:
                await conn.send(self.metrics_snapshot())
                await asyncio.sleep(interval)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # subscription ends with the socket; results are unaffected

    async def _print_metrics(self, interval: float) -> None:
        """Server-side metrics stream: one NDJSON snapshot per interval."""
        try:
            while not self._draining:
                await asyncio.sleep(interval)
                print(json.dumps(self.metrics_snapshot()), flush=True)
        except asyncio.CancelledError:
            pass

    # -- connection handling --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self._counts["connections"] += 1
        try:
            await self._read_loop(conn)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            conn.closed = True
            if conn.watch_task is not None:
                conn.watch_task.cancel()
                conn.watch_task = None
            self._connections.discard(conn)
            # Undelivered results and in-flight work owned by this socket
            # become orphans awaiting resubmit-on-reconnect adoption.
            for record in self._records.values():
                if record.owner is conn:
                    record.owner = None
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        while not self._draining:
            # Backpressure: a full window pauses the read, so the client
            # blocks on TCP instead of the endpoint buffering unboundedly.
            while conn.inflight >= self.conn_window and not self._draining:
                conn.window.clear()
                await conn.window.wait()
            if self._draining:
                return
            try:
                line = await conn.reader.readline()
            except ValueError:  # past _LINE_LIMIT the stream cannot resynchronize
                await conn.send(
                    _error_doc(None, BAD_JOB_TYPE, f"job line longer than {_LINE_LIMIT} bytes")
                )
                self._counts["rejected"] += 1
                return
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            if self._draining:
                # A line raced the drain: it is *not* accepted — answer
                # with a structured refusal so the client resubmits to the
                # replacement server instead of waiting forever.
                try:
                    doc = json.loads(line)
                    job_id = doc.get("id") if isinstance(doc, dict) else None
                except json.JSONDecodeError:
                    job_id = None
                await conn.send(
                    _error_doc(job_id, DRAINING_TYPE, "endpoint is draining; not accepting jobs")
                )
                return
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as err:
                await conn.send(_error_doc(None, BAD_JOB_TYPE, f"bad JSON line: {err}"))
                self._counts["rejected"] += 1
                continue
            if not isinstance(spec, dict):
                await conn.send(_error_doc(None, BAD_JOB_TYPE, "job spec must be a JSON object"))
                self._counts["rejected"] += 1
                continue
            if spec.get("op") == "hello":
                session = spec.get("session")
                if isinstance(session, str) and session:
                    # Sanitized so the token can never forge another
                    # client's "{namespace}/{id}" record keys.
                    conn.session = re.sub(r"[^0-9A-Za-z._:-]", "_", session)[:64]
                await conn.send(
                    {
                        "op": "welcome",
                        "server": self.dispatcher.name,
                        "wire": 2,
                        "conn_window": self.conn_window,
                    }
                )
                continue
            if spec.get("op") == "watch":
                interval = spec.get("interval", 1.0)
                if not isinstance(interval, (int, float)) or interval <= 0:
                    await conn.send(
                        _error_doc(None, BAD_JOB_TYPE, "'interval' must be positive seconds")
                    )
                    continue
                if conn.watch_task is not None:
                    conn.watch_task.cancel()
                # A floor keeps a hostile subscriber from turning the
                # metrics stream into a stats()-hammering busy loop.
                conn.watch_task = asyncio.ensure_future(
                    self._watch_loop(conn, max(0.05, float(interval)))
                )
                continue
            if spec.get("op") == "unwatch":
                if conn.watch_task is not None:
                    conn.watch_task.cancel()
                    conn.watch_task = None
                continue
            await self._admit(conn, spec)
            # Fair share: let every other connection with a line waiting
            # admit one job before this one admits its next.
            await asyncio.sleep(0)

    async def _admit(self, conn: _Connection, spec: Mapping[str, Any]) -> None:
        """Admission control for one job line; always answers something."""
        job_id = spec.get("id")
        if not isinstance(job_id, str) or not job_id:
            await conn.send(
                _error_doc(
                    None, BAD_JOB_TYPE,
                    "service jobs need a string 'id' (resubmit is keyed by it)",
                )
            )
            self._counts["rejected"] += 1
            return
        try:
            job = Job.from_dict(spec)
        except (ValueError, TypeError) as err:
            await conn.send(_error_doc(job_id, BAD_JOB_TYPE, str(err)))
            self._counts["rejected"] += 1
            return
        if job.kind == "stats":
            # /metrics-style poll: answered inline, outside the admission
            # windows, so telemetry stays available under full load.  The
            # deterministic payload is the same constant the executor
            # returns; the numbers ride the meta half.
            await conn.send(
                {
                    "id": job_id,
                    "ok": True,
                    "payload": {"stats": True},
                    "meta": {
                        "stats": {
                            "pool": self.dispatcher.stats().to_dict(),
                            "endpoint": self.telemetry(),
                        }
                    },
                }
            )
            return
        record_key = f"{conn.namespace}/{job_id}"
        record = self._records.get(record_key)
        if record is not None:
            # Resubmit of a known job (the client reconnected): adopt the
            # new connection as delivery target; redeliver if the result is
            # already in hand, otherwise delivery happens on completion.
            record.owner = conn
            if record.document is not None and not record.delivering:
                self._counts["redelivered"] += 1
                self._spawn_delivery(record)
            return
        if self._inflight >= self.max_inflight:
            # Hard shed: deterministic given the arrival order of accepted
            # work — the document says exactly why and the client backs off.
            self._counts["shed"] += 1
            await conn.send(
                _error_doc(
                    job_id, SHED_TYPE,
                    f"endpoint is over its hard admission limit "
                    f"({self.max_inflight} jobs in flight); back off and resubmit",
                    shed=True,
                )
            )
            return
        record = _Record(record_key, job, self._dispatch_form(conn, job), conn)
        self._records[record_key] = record
        self._inflight += 1
        conn.inflight += 1
        self._counts["accepted"] += 1
        # The dispatcher holds at least max_inflight jobs, so this never blocks.
        try:
            self.dispatcher.submit(record.dispatch_job, on_done=self._make_on_done(record))
        except RuntimeError as err:
            # Draining/shutdown raced the submit: the job still resolves to
            # a structured document, never silence.
            self._resolve(record, _error_doc(job_id, DRAINING_TYPE, str(err)))
        except ValueError as err:  # pragma: no cover - duplicate dispatch id
            self._resolve(record, _error_doc(job_id, BAD_JOB_TYPE, str(err)))

    def _dispatch_form(self, conn: _Connection, job: Job) -> Job:
        """The job as the dispatcher sees it: namespaced id/key, clamped fuel."""
        spec = job.to_dict()
        # Job ids are client-scoped; the pool's in-flight table is global.
        # Namespacing the dispatch id lets two clients stream the same ids
        # concurrently (delivery rewrites the id back — see _resolve).
        spec["id"] = f"{conn.namespace}/{job.id}"
        if job.key is not None:
            # Per-client affinity namespace: two clients using the same
            # key each get their own warm worker (payloads never depend on
            # slot assignment, so this is invisible on the wire).
            spec["key"] = f"{conn.namespace}:{job.key}"
        if self.fuel_quota is not None and (job.fuel is None or job.fuel > self.fuel_quota):
            # The per-client quota threads straight into the kernel
            # checkers via the executor's per-job fuel override; exceeding
            # it is the kernel's own deterministic fuel-exhaustion error.
            spec["fuel"] = self.fuel_quota
        return Job.from_dict(spec)

    def _make_on_done(self, record: _Record):
        loop = asyncio.get_running_loop()

        def on_done(pending: Any) -> None:
            document = pending.result.to_dict()
            loop.call_soon_threadsafe(self._resolve, record, document)

        return on_done

    # -- completion and delivery ----------------------------------------------

    def _resolve(self, record: _Record, document: dict[str, Any]) -> None:
        """A job completed: release its windows and schedule delivery."""
        if document.get("id") != record.job.id:
            # The pool saw the namespaced dispatch id; the client gets its
            # own id back.
            document = {**document, "id": record.job.id}
        record.document = document
        self._inflight -= 1
        window_conn = record.window_conn
        record.window_conn = None
        if window_conn is not None:
            window_conn.inflight -= 1
            window_conn.window.set()
        self._spawn_delivery(record)

    def _spawn_delivery(self, record: _Record) -> None:
        task = asyncio.ensure_future(self._deliver(record))
        self._delivery_tasks.add(task)
        task.add_done_callback(self._delivery_done)

    def _delivery_done(self, task: asyncio.Task) -> None:
        self._delivery_tasks.discard(task)
        if not self._inflight and not self._delivery_tasks:
            self._settled.set()

    async def _deliver(self, record: _Record) -> None:
        """Write one result document to its owner, firing scheduled faults."""
        if record.delivering or record.document is None:
            return
        record.delivering = True
        try:
            conn = record.owner
            if conn is None or conn.closed:
                return  # retained for resubmit-on-reconnect redelivery
            fault = None
            if self._injector is not None:
                fault = self._injector.delivery_fault(record.job.id)
            if fault is not None and fault.kind == "conn_stall":
                await asyncio.sleep(fault.seconds)
                fault = None  # stalled deliveries still complete
            if fault is not None and fault.kind == "conn_drop":
                conn.abort()  # result retained; the client resubmits
                return
            if fault is not None and fault.kind == "conn_truncate":
                line = json.dumps(record.document).encode("utf-8")
                async with conn.write_lock:
                    conn.writer.write(line[: max(1, len(line) // 2)])
                    try:
                        await conn.writer.drain()
                    except (ConnectionError, OSError):  # pragma: no cover
                        pass
                conn.abort()  # half a document, no newline: client discards
                return
            try:
                await conn.send(record.document)
            except (ConnectionError, OSError):
                return  # owner vanished mid-write: retained for redelivery
            self._counts["delivered"] += 1
            self._records.pop(record.key, None)
        finally:
            record.delivering = False


# --------------------------------------------------------------------------
# Blocking front ends: the CLI server and the test/bench harness.
# --------------------------------------------------------------------------


def _build(
    host: str,
    port: int,
    *,
    min_workers: int = 1,
    max_workers: int | None = None,
    engine: str = "nbe",
    fuel: int | None = None,
    memo_store: str | None = None,
    fault_plan: FaultPlan | Mapping[str, Any] | None = None,
    job_timeout: float | None = None,
    conn_window: int = 32,
    max_inflight: int = 128,
    fuel_quota: int | None = None,
    metrics_interval: float | None = None,
    **dispatcher_options: Any,
) -> Endpoint:
    """Construct the dispatcher + endpoint stack for ``serve``.

    Every limit is checked before the dispatcher spawns its workers.
    """
    if max_workers is not None and max_workers < min_workers:
        raise ValueError("need min_workers <= max_workers")
    _check_limits(conn_window, max_inflight, fuel_quota, metrics_interval)
    dispatcher = Dispatcher(
        workers=min_workers,
        engine=engine,
        fuel=fuel,
        memo_store=memo_store,
        fault_plan=fault_plan,
        job_timeout=job_timeout,
        # The endpoint never admits more than max_inflight jobs, so this
        # bound guarantees Dispatcher.submit never blocks the event loop.
        max_pending=max(max_inflight, min_workers) + 8,
        max_workers=max_workers,
        **dispatcher_options,
    )
    return Endpoint(
        dispatcher,
        host,
        port,
        conn_window=conn_window,
        max_inflight=max_inflight,
        fuel_quota=fuel_quota,
        fault_plan=fault_plan,
        metrics_interval=metrics_interval,
    )


def serve(host: str = "127.0.0.1", port: int = 7420, **options: Any) -> None:
    """Run the endpoint in the foreground until SIGTERM/SIGINT, then drain.

    This is ``python -m repro serve``: build the pool (elastic between
    ``min_workers`` and ``max_workers``), bind, and serve.  A signal turns
    into a graceful drain — stop accepting, flush every accepted job,
    deliver what can be delivered, stop the pool — so a supervisor restart
    never loses accepted work.
    """
    endpoint = _build(host, port, **options)

    async def _main() -> None:
        await endpoint.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(endpoint.drain())
            )
        print(f"repro service listening on {endpoint.host}:{endpoint.port}", flush=True)
        await endpoint.serve_until_drained()
        counts = endpoint.telemetry()
        print(
            f"repro service drained: {counts['accepted']} accepted, "
            f"{counts['delivered']} delivered, {counts['retained']} retained",
            flush=True,
        )

    try:
        asyncio.run(_main())
    finally:
        endpoint.dispatcher.shutdown()


class EndpointServer:
    """A background endpoint for tests and benchmarks: thread + event loop.

    ``with EndpointServer(...) as server:`` yields a running endpoint;
    ``server.port`` is the bound port, ``server.stop()`` (or context exit)
    performs the full graceful drain on the loop thread and joins it.
    """

    def __init__(self, **options: Any) -> None:
        options.setdefault("host", "127.0.0.1")
        options.setdefault("port", 0)
        self.endpoint = _build(**options)
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-endpoint", daemon=True
        )
        self._stopped = False

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            await self.endpoint.start()
            self._started.set()
            await self.endpoint.serve_until_drained()

        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    def start(self) -> "EndpointServer":
        if not self._thread.is_alive() and not self._started.is_set():
            self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("endpoint failed to start within 30s")
        return self

    @property
    def host(self) -> str:
        return self.endpoint.host

    @property
    def port(self) -> int:
        return self.endpoint.port

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully drain the endpoint and stop the loop thread."""
        if self._stopped:
            return
        self._stopped = True
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self.endpoint.drain(timeout=timeout), loop
            )
            try:
                future.result(timeout=timeout + 10.0)
            except Exception:  # pragma: no cover - drain wedged; hard stop below
                pass
        self._thread.join(timeout=10.0)
        self.endpoint.dispatcher.shutdown()

    def __enter__(self) -> "EndpointServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve_background(**options: Any) -> EndpointServer:
    """Start an :class:`EndpointServer` and return it running."""
    return EndpointServer(**options).start()
