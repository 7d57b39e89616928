"""Stream-connection plumbing: one peer's outbox, and the client.

:class:`~repro.serve.gateway.GatewayServer` serves every NDJSON stream
peer -- TCP or unix socket -- through one handler, and keeps each
peer's state in a :class:`_Connection`: one request per line in, one
reply line out, plus unsolicited pushed lines (allocation updates, the
final shutdown notice) interleaved on the same stream.

* **Replies written in place** — :meth:`_Connection.push` encodes a
  reply or push and writes it straight to the transport while the peer
  keeps up: nothing queued in the outbox, nothing buffered in the
  transport.  A transport that is closing takes nothing.
* **Backpressure** — once the peer falls behind, messages queue in a
  bounded per-connection outbox drained by one writer task that awaits
  ``writer.drain()``, so one slow consumer stalls only its own stream,
  never the service core or other sessions.  A message is written in
  place only when nothing is queued, so the order on a stream is the
  order the service produced.  A peer that stops reading entirely
  overflows its outbox and its transport is aborted; its sessions stay
  live but get no more pushes, so the runtime polls with
  ``query-allocation`` until the session closes.
* **Bounded close** — :meth:`_Connection.close` flushes the outbox but
  gives the peer only a grace period to take it, so neither connection
  teardown nor a graceful drain can hang on a writer blocked in
  ``drain()``.

:class:`AsyncServiceClient` is the matching test/tooling client: it
separates direct replies (tagged ``in_reply_to``) from pushed messages
arriving on the same stream.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.core.spec import AppSpec
from repro.errors import ServiceError
from repro.serve.protocol import (
    Ack,
    AllocationUpdate,
    Deregister,
    ErrorReply,
    ProgressReport,
    QueryAllocation,
    Register,
    decode_message,
    encode_message,
)

__all__ = ["AsyncServiceClient"]

#: Sentinel closing a connection's outbox queue.
_CLOSE = object()


class _Connection:
    """Gateway-side state of one stream peer; starts its writer task."""

    def __init__(
        self, writer: asyncio.StreamWriter, outbox_limit: int
    ) -> None:
        self.writer = writer
        self.transport = writer.transport
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.outbox_limit = outbox_limit
        #: set once :meth:`close` began; no session subscribes after.
        self.closed = False
        self.writer_task = asyncio.ensure_future(self.drain_outbox())

    def push(self, message) -> None:
        """Send a reply or pushed message; overflow aborts the connection.

        Called synchronously from the dispatcher and the service core.
        While the peer keeps up (outbox empty, transport buffer empty)
        the line is written in place; otherwise it queues behind
        what is already waiting, for the writer task.  A full outbox
        means the peer stopped reading its stream; rather than block
        the core (or buffer without bound) the transport is aborted,
        which also wakes a writer blocked in ``drain()`` and ends the
        read loop.  The session loses its push stream; its runtime can
        still poll with ``query-allocation``.
        """
        transport = self.transport
        if transport.is_closing():
            return
        outbox = self.outbox
        if outbox.empty() and not transport.get_write_buffer_size():
            transport.write((encode_message(message) + "\n").encode("utf-8"))
            return
        if outbox.qsize() >= self.outbox_limit:
            transport.abort()
            return
        outbox.put_nowait(message)

    async def drain_outbox(self) -> None:
        """Writer task body: serialize the outbox onto the socket."""
        while True:
            message = await self.outbox.get()
            if message is _CLOSE:
                break
            self.writer.write(
                (encode_message(message) + "\n").encode("utf-8")
            )
            try:
                await self.writer.drain()
            except ConnectionError:
                break

    async def close(self, grace: float | None) -> None:
        """Flush the outbox, then close; abort a peer that will not read.

        The peer gets ``grace`` seconds (``None``: no limit) to take
        what is queued.  Safe to call more than once, also
        concurrently (a connection's own teardown racing
        :meth:`~repro.serve.gateway.GatewayServer.stop`).
        """
        self.closed = True
        self.outbox.put_nowait(_CLOSE)
        try:
            await asyncio.wait_for(self._flush(), grace)
        except asyncio.TimeoutError:
            self.writer.transport.abort()  # the peer stopped reading
        except asyncio.CancelledError:
            self.writer.transport.abort()  # no flush is coming
            raise

    async def _flush(self) -> None:
        # Shielded: when the grace runs out, wait_for cancels this
        # wait, not the writer task (which the abort then ends).
        await asyncio.shield(self.writer_task)
        self.writer.close()
        with contextlib.suppress(ConnectionError):
            await self.writer.wait_closed()


class AsyncServiceClient:
    """Socket client separating replies from pushed stream messages.

    Every request awaits the next ``in_reply_to``-tagged line; pushed
    lines (``in_reply_to`` absent or ``None``) encountered while
    waiting are buffered in :attr:`pushed`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        #: pushed messages in arrival order.
        self.pushed: list = []

    async def connect(self, path: str) -> None:
        """Open the unix-socket stream."""
        self.reader, self.writer = await asyncio.open_unix_connection(
            path
        )

    async def close(self) -> None:
        """Close the stream (idempotent)."""
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(ConnectionError):
                await self.writer.wait_closed()
            self.writer = None
            self.reader = None

    async def _request(self, message):
        if self.reader is None or self.writer is None:
            raise ServiceError("client is not connected")
        self.writer.write(
            (encode_message(message) + "\n").encode("utf-8")
        )
        await self.writer.drain()
        while True:
            line = await self.reader.readline()
            if not line:
                raise ServiceError(
                    "connection closed while awaiting a reply"
                )
            reply = decode_message(line.decode("utf-8"))
            if getattr(reply, "in_reply_to", None) is not None:
                if isinstance(reply, ErrorReply):
                    raise ServiceError(reply.error)
                return reply
            self.pushed.append(reply)

    async def register(self, app: AppSpec) -> Ack:
        """Join the live workload."""
        return await self._request(Register(name=app.name, app=app))

    async def deregister(self) -> Ack:
        """Leave the live workload."""
        return await self._request(Deregister(name=self.name))

    async def report(
        self,
        time: float,
        progress: dict[str, float] | None = None,
        cpu_load: float = 0.0,
        acked_epoch: int | None = None,
    ) -> Ack:
        """Send one progress heartbeat."""
        return await self._request(
            ProgressReport(
                name=self.name,
                time=time,
                progress=progress or {},
                cpu_load=cpu_load,
                acked_epoch=acked_epoch,
            )
        )

    async def query_allocation(self) -> AllocationUpdate:
        """Pull the current per-node thread counts."""
        return await self._request(QueryAllocation(name=self.name))

    async def next_pushed(self, timeout: float = 1.0):
        """The next pushed message (buffered or newly read)."""
        if self.pushed:
            return self.pushed.pop(0)
        if self.reader is None:
            raise ServiceError("client is not connected")
        line = await asyncio.wait_for(
            self.reader.readline(), timeout=timeout
        )
        if not line:
            raise ServiceError("connection closed")
        return decode_message(line.decode("utf-8"))
