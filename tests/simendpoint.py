"""The service endpoint in simulated time: the real endpoint over SimPool.

:class:`SimEndpoint` serves the real :class:`~repro.service.endpoint.Endpoint`
in front of :mod:`tests.simpool`'s :class:`~tests.simpool.SimPool`, on
:class:`SimLoop`, an asyncio event loop that keeps the simulation's one
clock:

* ``time()`` reads the simulation clock, so ``asyncio.sleep`` and every
  loop timer wait in simulated seconds;
* its selector polls the real file descriptors (the loop's self-pipe,
  which carries the dispatcher's completion callbacks) without blocking.
  When none is ready and no callback waits, it lets the pool take one
  step (:meth:`~tests.simpool.Sim.step`): route a post, let a worker take
  or finish a job, or else move the clock to the loop's next timer, the
  next finish or the next ``TICK``, where the health scan runs;
* ``run_in_executor`` runs its function inline, so the endpoint's drain
  plays the pool forward through the dispatcher's own drain.

Connections are in memory: :meth:`SimEndpoint.connect` hands
``Endpoint._on_connection`` a stream reader the test feeds and a writer
that collects the documents the endpoint writes.
"""

from __future__ import annotations

import asyncio
import json
import selectors
from collections import deque
from typing import Any, Awaitable

from repro.service.endpoint import _LINE_LIMIT, Endpoint
from tests.simpool import Sim, SimPool

#: Simulated seconds after which the harness calls a wait a hang.
HORIZON = 3600.0


class _SimSelector(selectors.DefaultSelector):
    """Polls real descriptors without blocking; otherwise the pool steps."""

    def __init__(self, sim: Sim) -> None:
        super().__init__()
        self.sim = sim

    def select(self, timeout: float | None = None) -> list:
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if self.sim.clock.now > HORIZON:
            raise AssertionError(f"the simulated endpoint made no progress by t={HORIZON}")
        self.sim.step(None if timeout is None else self.sim.clock.now + timeout)
        return []


class SimLoop(asyncio.SelectorEventLoop):
    """An event loop whose time is the simulation's clock."""

    def __init__(self, sim: Sim) -> None:
        super().__init__(_SimSelector(sim))
        self.sim = sim

    def time(self) -> float:
        return self.sim.clock.now

    def run_in_executor(self, executor: Any, func: Any, *args: Any) -> asyncio.Future:
        future = self.create_future()
        try:
            future.set_result(func(*args))
        except Exception as err:
            future.set_exception(err)
        return future


class Connection:
    """One in-memory client connection.

    The test's side is :meth:`send` and :meth:`recv`; the endpoint's side
    is a ``StreamWriter``: ``write``, ``drain``, ``close`` and
    ``transport.abort``.  Closing ends both directions, as a socket's
    close does: the endpoint's reader sees end of file.
    """

    def __init__(self, endpoint: Endpoint) -> None:
        self.reader = asyncio.StreamReader(limit=_LINE_LIMIT)
        self.transport = self
        self.received = bytearray()  # a written line without its newline yet
        self.documents: deque[dict[str, Any]] = deque()
        self.arrived = asyncio.Event()
        self.closed = False
        self.task = asyncio.ensure_future(endpoint._on_connection(self.reader, self))

    def send(self, *documents: Any) -> None:
        """Feed lines: each a JSON value, or raw bytes sent as they are."""
        for document in documents:
            data = document if isinstance(document, bytes) else json.dumps(document).encode()
            self.reader.feed_data(data + b"\n")

    async def recv(self) -> dict[str, Any]:
        """The next document the endpoint wrote, waiting for it."""
        while not self.documents:
            if self.closed:
                raise ConnectionResetError("the endpoint closed the connection")
            self.arrived.clear()
            await self.arrived.wait()
        return self.documents.popleft()

    def write(self, data: bytes) -> None:
        self.received.extend(data)
        *lines, rest = self.received.split(b"\n")
        self.received = bytearray(rest)
        self.documents.extend(json.loads(line) for line in lines)
        self.arrived.set()

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True
        self.reader.feed_eof()
        self.arrived.set()

    abort = close


class SimEndpoint:
    """An :class:`Endpoint` over a :class:`SimPool`, served on a :class:`SimLoop`."""

    def __init__(self, pool: dict[str, Any] | None = None, **endpoint_options: Any) -> None:
        self.pool = SimPool(**(pool or {"workers": 1}))
        self.sim = self.pool.sim
        self.endpoint = Endpoint(self.pool, **endpoint_options)
        self.loop = SimLoop(self.sim)

    def now(self) -> float:
        return self.sim.clock.now

    def connect(self) -> Connection:
        """A new client connection (call it from the coroutine :meth:`run` runs)."""
        return Connection(self.endpoint)

    def run(self, main: Awaitable[Any]) -> Any:
        """Run ``main`` to completion in simulated time, then shut the pool down."""
        try:
            return self.loop.run_until_complete(main)
        finally:
            tasks = asyncio.all_tasks(self.loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self.loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
            self.pool.shutdown()
            self.loop.close()
