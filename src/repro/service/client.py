"""The bundled service client: windowed streaming, retry, resubmit.

One :class:`ServiceClient` drives one NDJSON connection to a
:mod:`repro.service.endpoint` server from a single thread: it keeps a
bounded *window* of jobs in flight (send-side mirror of the endpoint's
admission window — a windowed client never deadlocks against a server
that stops reading under backpressure, because it never floods the socket
and always returns to the read side), matches results to requests by job
id, and reassembles submission order for the caller.

Failure handling is the point:

* **Overloaded shed** (``error["shed"]``) — the job is retried after
  exponential backoff with *deterministic* jitter (a blake2b hash of the
  job id and attempt number — no random source, so two identical runs
  back off identically) up to ``max_retries`` times; past that the shed
  document itself is the job's result, never an exception.
* **Connection loss** (reset, EOF, a truncated line without its newline)
  — the client reconnects with the same deterministic backoff,
  re-announces its session token (job ids are client-scoped on the
  endpoint), and **resubmits every unacknowledged job**, in original
  submission order.  The endpoint recognizes ids it has already accepted
  and redelivers retained results instead of re-executing, so a flaky
  network costs latency, never correctness: the deterministic result
  halves are byte-identical to an uninterrupted run.
* **Chaos self-faults** — a :class:`~repro.service.faults.FaultPlan`
  handed to the client applies its *connection-category* faults from the
  client side at exact job coordinates: ``conn_drop`` closes the socket
  before sending the scheduled job, ``conn_stall`` sleeps, and
  ``conn_truncate`` sends half the line and closes.  This exercises the
  reconnect-and-resubmit machinery without server cooperation and must
  change nothing but timing (``batch --connect --chaos-seed``).
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from typing import Any, Iterable, Mapping

from repro.service.faults import FaultInjector, FaultPlan, retry_delay
from repro.service.jobs import Job

__all__ = ["ServiceClient", "parse_address"]


def parse_address(address: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` (the ``--connect`` argument)."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"malformed address {address!r} (expected HOST:PORT)")
    return host, int(port_text)


_SESSION_IDS = itertools.count()


class ServiceClient:
    """A synchronous windowed client for the repro service endpoint.

    Args:
        host/port: the endpoint address.
        window: jobs kept in flight at once (send pauses past it).
        max_retries: shed/reconnect retries per job before giving up with
            the last structured document (never an exception).
        backoff: base retry delay; doubles per attempt up to
            ``backoff_cap``, with deterministic jitter.
        timeout: wall-clock bound on one :meth:`run_batch` call.
        fault_plan: connection-category chaos applied *client-side* (see
            the module docstring); worker-category faults are ignored here.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        window: int = 32,
        max_retries: int = 8,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        timeout: float = 120.0,
        fault_plan: FaultPlan | Mapping[str, Any] | None = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.host = host
        self.port = port
        self.window = window
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        plan = FaultPlan.coerce(fault_plan)
        self._injector = None if plan is None else FaultInjector(plan)
        # Job ids are client-scoped on the endpoint; this token names the
        # client's record namespace, and announcing it on every connect is
        # what makes resubmit-after-reconnect find the same records.  It
        # only needs to be unique — it never touches a deterministic payload.
        self.session = f"{os.getpid():x}.{next(_SESSION_IDS):x}.{time.monotonic_ns():x}"
        self._sock: socket.socket | None = None
        self._buffer = bytearray()
        self.reconnects = 0
        self.resubmitted = 0
        self.shed_retries = 0
        # Live-telemetry subscription state: snapshots accumulate here and
        # feed the optional callback as they arrive mid-batch.
        self.metrics: list[dict[str, Any]] = []
        self._metrics_callback: Any = None
        self._watch_interval: float | None = None

    @classmethod
    def from_address(cls, address: str, **options: Any) -> "ServiceClient":
        return cls(*parse_address(address), **options)

    # -- socket plumbing ------------------------------------------------------

    def _connect(self) -> None:
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection((self.host, self.port), timeout=10.0)
                self._sock.settimeout(0.05)
                self._buffer.clear()
                # Announce the session namespace; the welcome reply rides
                # the stream and is skipped by the batch loop's op filter.
                self._send_line({"op": "hello", "session": self.session})
                if self._watch_interval is not None:
                    # Subscriptions are per-socket server-side; re-announce
                    # so a reconnect resumes the metrics stream.
                    self._send_line(
                        {"op": "watch", "interval": self._watch_interval}
                    )
                return
            except OSError:
                self._disconnect()
                attempt += 1
                if attempt > self.max_retries:
                    raise
                self._sleep_backoff("connect", attempt)

    def _sleep_backoff(self, token: str, attempt: int) -> None:
        time.sleep(retry_delay(self.backoff, self.backoff_cap, attempt, f"{token}:{attempt}"))

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close rarely fails
                pass
        self._sock = None
        self._buffer.clear()

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send_line(self, document: Mapping[str, Any]) -> None:
        assert self._sock is not None
        self._sock.sendall(json.dumps(document).encode("utf-8") + b"\n")

    def _read_line(self, deadline: float) -> dict[str, Any] | None:
        """One document off the socket, or None on timeout; raises on loss.

        A closed connection with a partial line still buffered is a
        *truncated* document: discarded, surfaced as connection loss, and
        healed by resubmit — a half-written result must never parse.
        """
        assert self._sock is not None
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                if not line.strip():
                    continue
                return json.loads(line)
            if time.monotonic() > deadline:
                return None
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return None
            except OSError as err:
                raise ConnectionError(str(err)) from err
            if not chunk:
                raise ConnectionError(
                    "server closed the connection"
                    + (" mid-document" if self._buffer else "")
                )
            self._buffer.extend(chunk)

    # -- chaos self-faults ----------------------------------------------------

    def _apply_send_fault(self, spec: Mapping[str, Any]) -> bool:
        """Fire any scheduled client-side connection fault for this send.

        Returns True when the fault consumed the send (the caller treats
        it as a connection loss and lets resubmit heal it).
        """
        if self._injector is None:
            return False
        fault = self._injector.delivery_fault(spec.get("id"))
        if fault is None:
            return False
        if fault.kind == "conn_stall":
            time.sleep(fault.seconds)
            return False
        if fault.kind == "conn_drop":
            self._disconnect()
            return True
        if fault.kind == "conn_truncate":
            line = json.dumps(spec).encode("utf-8")
            try:
                assert self._sock is not None
                self._sock.sendall(line[: max(1, len(line) // 2)])
            except OSError:
                pass
            self._disconnect()
            return True
        return False  # pragma: no cover - exhaustive over CONNECTION_KINDS

    # -- the batch loop -------------------------------------------------------

    def run_batch(self, jobs: Iterable[Job | Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Stream ``jobs`` through the endpoint; documents in submission order.

        Every job resolves to a document — a result, a dead letter, or
        (retries exhausted) the endpoint's structured refusal.  Raises
        only for unrecoverable transport failure or the batch ``timeout``.
        """
        specs: list[dict[str, Any]] = []
        for index, job in enumerate(jobs):
            spec = dict(job.to_dict() if isinstance(job, Job) else job)
            spec.setdefault("id", f"job-{index}")
            specs.append(spec)
        order = [spec["id"] for spec in specs]
        if len(set(order)) != len(order):
            raise ValueError("duplicate job ids in one batch")

        results: dict[str, dict[str, Any]] = {}
        to_send: list[dict[str, Any]] = list(specs)  # FIFO of sends due now
        retries: list[tuple[float, dict[str, Any]]] = []  # (due_at, spec)
        unacked: dict[str, dict[str, Any]] = {}  # sent, not yet answered
        attempts: dict[str, int] = {}
        deadline = time.monotonic() + self.timeout
        reconnect_attempt = 0

        while len(results) < len(specs):
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"batch did not complete within {self.timeout}s "
                    f"({len(results)}/{len(specs)} results)"
                )
            if self._sock is None:
                if reconnect_attempt or unacked:
                    self.reconnects += 1
                if reconnect_attempt:
                    self._sleep_backoff("reconnect", reconnect_attempt)
                self._connect()
                if unacked:
                    # Resubmit everything unacknowledged, original order —
                    # the endpoint adopts known ids and redelivers retained
                    # results instead of re-executing.
                    self.resubmitted += len(unacked)
                    pending = [unacked[job_id] for job_id in order if job_id in unacked]
                    unacked.clear()
                    to_send = pending + to_send
            try:
                now = time.monotonic()
                due = [entry for entry in retries if entry[0] <= now]
                if due:
                    retries = [entry for entry in retries if entry[0] > now]
                    to_send.extend(spec for _, spec in due)
                while to_send and len(unacked) < self.window:
                    spec = to_send.pop(0)
                    if self._apply_send_fault(spec):
                        to_send.insert(0, spec)  # the drop consumed the send
                        raise ConnectionError("chaos: client dropped its connection")
                    # Mark unacked *before* sending: if sendall raises
                    # mid-line the spec must survive into the resubmit set,
                    # or the job is lost to neither queue.
                    unacked[spec["id"]] = spec
                    self._send_line(spec)
                document = self._read_line(
                    deadline=min(deadline, time.monotonic() + 0.1)
                )
                reconnect_attempt = 0
            except (OSError, json.JSONDecodeError):
                # OSError covers ConnectionError and a send-side timeout: a
                # partial sendall leaves the line half-written, so the only
                # safe recovery is reconnect-and-resubmit (the endpoint
                # discards the partial line at EOF).
                self._disconnect()
                reconnect_attempt += 1
                if reconnect_attempt > self.max_retries:
                    raise ConnectionError(
                        f"gave up after {self.max_retries} reconnect attempts"
                    )
                continue
            if document is None:
                continue
            if "op" in document and "id" not in document:
                if document.get("op") == "bye":
                    # Server drained under us: treat as loss; resubmit to
                    # whatever comes back up (or time out trying).
                    self._disconnect()
                elif document.get("op") == "metrics":
                    # Live-telemetry snapshot riding the result stream:
                    # collected out-of-band, never matched to a job.
                    self.metrics.append(document)
                    if self._metrics_callback is not None:
                        self._metrics_callback(document)
                continue
            job_id = document.get("id")
            spec = unacked.pop(job_id, None)
            if spec is None:
                continue  # duplicate delivery after a resubmit race: drop
            error = document.get("error") or {}
            if not document.get("ok") and error.get("shed"):
                attempt = attempts.get(job_id, 0) + 1
                attempts[job_id] = attempt
                if attempt <= self.max_retries:
                    self.shed_retries += 1
                    delay = retry_delay(
                        self.backoff, self.backoff_cap, attempt, f"{job_id}:{attempt}"
                    )
                    retries.append((time.monotonic() + delay, spec))
                    continue
            results[job_id] = document
        return [results[job_id] for job_id in order]

    # -- telemetry ------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One ``stats`` poll: the endpoint + pool telemetry document."""
        [document] = self.run_batch([{"id": "stats-poll", "kind": "stats"}])
        return document

    def watch_stats(self, interval: float = 0.5, callback: Any = None) -> None:
        """Subscribe to the endpoint's live metrics stream.

        Snapshots (``{"op": "metrics", ...}`` documents: pool stats with
        per-slot health, endpoint counters, an elastic pool's scaling signals,
        per-connection queue depths) arrive interleaved with result lines
        during :meth:`run_batch`; each is appended to :attr:`metrics` and
        handed to ``callback`` as it lands.  The subscription survives
        reconnects (it is re-announced after the hello) and never touches
        job results — a watched batch is byte-identical to an unwatched
        one.  Call :meth:`unwatch_stats` to stop.
        """
        if interval <= 0:
            raise ValueError("interval must be positive seconds")
        self._watch_interval = float(interval)
        self._metrics_callback = callback
        if self._sock is None:
            self._connect()  # _connect announces the subscription
        else:
            self._send_line({"op": "watch", "interval": self._watch_interval})

    def unwatch_stats(self) -> None:
        """Cancel a :meth:`watch_stats` subscription (keep collected snapshots)."""
        self._watch_interval = None
        self._metrics_callback = None
        if self._sock is not None:
            try:
                self._send_line({"op": "unwatch"})
            except OSError:  # pragma: no cover - socket died; nothing to cancel
                self._disconnect()
