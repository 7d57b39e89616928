"""Unix-socket, TCP and HTTP listeners under one admission control.

:class:`GatewayServer` is the one front end of an
:class:`~repro.serve.service.AllocationService`: stream endpoints
speaking the newline-delimited-JSON protocol of
:mod:`repro.serve.protocol` -- a unix socket, a TCP port, or both,
served by one handler -- plus a minimal HTTP/1.1 adapter exposing the
identical command set to clients that cannot hold a stream open.  The
service runs on the event loop's clock (``loop.time()``, timers via
``loop.call_later``; TIME001).  Every peer, local or remote, gets the
same admission control:

* **Connection limits** — at most ``max_connections`` concurrent
  sockets (stream and HTTP combined); the next accept is answered with
  an ``overloaded`` :class:`~repro.serve.protocol.ErrorReply` (HTTP
  503) and closed, so a connection flood cannot exhaust file
  descriptors.
* **Bounded admission queue** — accepted commands wait in one bounded
  queue consumed by a single dispatcher task; overflow sheds with
  ``overloaded``.  The queue depth is the gateway's only buffering, so
  queueing delay — and therefore command latency — stays bounded too
  (pair the depth with ``ServiceConfig.command_deadline`` to turn the
  bound into an explicit SLO).
* **Per-connection deadlines** — a peer that keeps a socket open
  without completing a line, an HTTP head line or an HTTP body within
  ``idle_deadline`` seconds of the read starting (slow-loris) is
  disconnected with no reply.  One timer per connection bounds its
  reads, and only its reads: an HTTP request waiting for its reply is
  never cut off.  A closing connection gives a peer that stopped
  reading the same time to take its pending replies before it is
  aborted; oversized frames are rejected with ``frame-too-large``.
* **Graceful drain** — :meth:`GatewayServer.stop` closes the
  listeners, *finishes every already-admitted command*, then drains
  the service core (shutdown notices, journal compaction) and flushes
  each outbox, wired into the write-ahead-journal/recovery lifecycle
  of :mod:`repro.serve.persist`.  A socket or command that arrives
  inside the drain window is answered ``draining``.

One command's path: each connection has one reader task that reads
and decodes a line and admits the command; the one dispatcher task
hands it to the service core, and the reply is written to the socket
in place — through the connection's outbox and writer task only when
the peer has fallen behind.

Shedding reuses the PR-8 :data:`~repro.serve.protocol.ERROR_CODES`
table — no new codes are minted: every gateway rejection is
``overloaded``, ``draining``, ``frame-too-large``, or ``malformed``,
so existing clients' retry logic keeps working unchanged.

The wire protocol, every knob, and the refusal counters are documented
in ``docs/GATEWAY.md``; the gateway under load is measured by
``perfbench/run.py`` (``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import urllib.parse
from dataclasses import dataclass
from typing import Awaitable

from repro.errors import ServiceError
from repro.obs import OBS, CounterHandle, GaugeHandle, HistogramHandle
from repro.serve.protocol import (
    Ack,
    Deregister,
    ErrorReply,
    QueryAllocation,
    Register,
    decode_message,
    encode_message,
)
from repro.serve.server import _Connection
from repro.serve.service import AllocationService, ServiceConfig

__all__ = [
    "GatewayConfig",
    "GatewayServer",
    "HTTP_STATUS",
]

# Hot-path metric handles (PERF001: resolved once, not per command).
_CONNECTIONS = GaugeHandle("gateway/connections")
_COMMANDS = CounterHandle("gateway/commands")
_SHED = CounterHandle("gateway/shed")
_QUEUE_FULL = CounterHandle("gateway/queue_full")
_REJECTED = CounterHandle("gateway/rejected_connections")
_IDLE_TIMEOUTS = CounterHandle("gateway/idle_timeouts")
_HTTP_REQUESTS = CounterHandle("gateway/http_requests")
_COMMAND_LATENCY = HistogramHandle("gateway/command_latency")

#: Protocol :data:`~repro.serve.protocol.ERROR_CODES` -> HTTP status
#: used by the HTTP/1.1 adapter.  Retryable overload conditions map to
#: 503 so off-the-shelf HTTP clients back off; everything else maps to
#: the closest standard 4xx/5xx.
HTTP_STATUS: dict[str, int] = {
    "malformed": 400,
    "unsupported": 400,
    "invalid-request": 422,
    "unknown-session": 404,
    "duplicate-session": 409,
    "closed-session": 410,
    "overloaded": 503,
    "draining": 503,
    "backwards-report": 409,
    "no-allocation": 404,
    "deadline-exceeded": 504,
    "frame-too-large": 413,
}

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Content Too Large",
    422: "Unprocessable Content",
    431: "Request Header Fields Too Large",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Header count cap for the HTTP adapter (a header flood is just a
#: slow-loris variant with extra lines).
_MAX_HEADERS = 64


@dataclass(frozen=True)
class GatewayConfig:
    """Immutable knobs of one :class:`GatewayServer`.

    Attributes
    ----------
    host:
        Interface the TCP and HTTP listeners bind (default loopback).
    port:
        TCP port for the NDJSON listener; ``0`` picks an ephemeral
        port (read it back from :attr:`GatewayServer.tcp_address`),
        ``None`` skips TCP.
    http_port:
        Port for the HTTP/1.1 adapter; ``None`` (default) disables
        HTTP entirely, ``0`` picks an ephemeral port.
    unix_path:
        Filesystem path of a unix-socket NDJSON listener, served by the
        same handler as TCP; ``None`` (default) binds none.  At least
        one of ``port`` and ``unix_path`` must be set.
    max_connections:
        Concurrent sockets (stream + HTTP combined) before new accepts
        are answered ``overloaded`` and closed.
    admission_limit:
        Commands queued for the dispatcher before further commands are
        shed ``overloaded``; the gateway's only buffering, hence its
        queueing-delay bound.
    idle_deadline:
        Seconds one read may take to complete a request line (an HTTP
        head line, an HTTP body) before the connection is dropped —
        the slow-loris bound — and, when a stream connection closes,
        seconds its peer gets to take the pending replies before the
        transport is aborted.  ``None`` disables both bounds.
    max_line_bytes:
        Frame cap shared by the NDJSON listener (one request line) and
        the HTTP adapter (one header line / request body).
    outbox_limit:
        Pushed messages buffered per stream connection before its
        peer is judged dead and the transport is aborted.
    """

    host: str = "127.0.0.1"
    port: int | None = 0
    http_port: int | None = None
    unix_path: str | None = None
    max_connections: int = 256
    admission_limit: int = 1024
    idle_deadline: float | None = 30.0
    max_line_bytes: int = 64 * 1024
    outbox_limit: int = 64

    def __post_init__(self) -> None:
        if self.port is None and self.unix_path is None:
            raise ServiceError(
                "the gateway needs a stream listener: set port or unix_path"
            )
        if self.max_connections < 1:
            raise ServiceError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.admission_limit < 1:
            raise ServiceError(
                f"admission_limit must be >= 1, got {self.admission_limit}"
            )
        if self.idle_deadline is not None and self.idle_deadline <= 0:
            raise ServiceError(
                f"idle_deadline must be positive or None, "
                f"got {self.idle_deadline}"
            )
        if self.max_line_bytes < 1024:
            raise ServiceError(
                f"max_line_bytes must be >= 1024, got {self.max_line_bytes}"
            )
        if self.outbox_limit < 1:
            raise ServiceError(
                f"outbox_limit must be >= 1, got {self.outbox_limit}"
            )


class _Admitted:
    """One command that passed admission, waiting for the dispatcher."""

    __slots__ = ("message", "received_at", "conn", "future")

    def __init__(
        self,
        message,
        received_at: float,
        conn: _Connection | None,
        future: asyncio.Future | None,
    ) -> None:
        self.message = message
        self.received_at = received_at
        self.conn = conn
        self.future = future


class _IdleTimer:
    """One connection's idle deadline: a single timer bounding its reads.

    A read records only its start time.  The one ``loop.call_at``
    handle is armed by a read that finds none, for that read's
    deadline; when it fires while a later read is running it re-arms
    for that read's deadline, and when no read is running it disarms,
    so the connection's other waits are never bounded.  Expiry cancels
    the connection's task, and :meth:`read` turns that cancellation
    into :class:`asyncio.TimeoutError`.  With no deadline nothing is
    armed.
    """

    __slots__ = ("_loop", "_task", "_deadline", "_handle", "_due",
                 "_started", "_expired")

    def __init__(self, deadline: float | None) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._deadline = deadline
        self._handle: asyncio.TimerHandle | None = None
        #: loop time the armed handle fires at.
        self._due = 0.0
        #: loop time the running read started; ``None`` between reads.
        self._started: float | None = None
        self._expired = False

    async def read(self, read: Awaitable):
        """Await one read; ``asyncio.TimeoutError`` past its deadline."""
        deadline = self._deadline
        if deadline is None:
            return await read
        self._started = started = self._loop.time()
        if self._handle is None:
            self._arm(started + deadline)
        try:
            return await read
        except asyncio.CancelledError:
            if not self._expired:
                raise
            # Consume the timer's own cancellation (Python 3.11+ counts
            # them); one requested by anyone else still propagates.
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is not None and uncancel():
                raise
            raise asyncio.TimeoutError from None
        finally:
            self._started = None

    def _arm(self, due: float) -> None:
        self._due = due
        self._handle = self._loop.call_at(due, self._fire)

    def _fire(self) -> None:
        self._handle = None
        if self._started is None:
            return  # no read running: stay disarmed until the next
        due = self._started + self._deadline
        if due > self._due:
            self._arm(due)  # a later read, with time left
            return
        self._expired = True
        self._task.cancel()

    def cancel(self) -> None:
        """Disarm for good; the connection is closing."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class _HttpError(Exception):
    """An HTTP request that failed before reaching the protocol."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class GatewayServer:
    """Unix-socket, TCP and HTTP front end of one allocation service.

    Every peer passes the same admission control (connection caps,
    bounded queueing, idle deadlines, graceful drain).

    Parameters
    ----------
    config:
        Service configuration (machine, debounce, overload knobs).
    gateway:
        Gateway configuration; default :class:`GatewayConfig` binds an
        ephemeral loopback TCP port with no HTTP adapter.
    journal_path:
        Optional write-ahead-journal directory.  A non-empty directory
        makes :meth:`start` *recover* the service before serving, and
        every state change is journaled so the next start survives a
        crash.
    """

    def __init__(
        self,
        config: ServiceConfig,
        gateway: GatewayConfig | None = None,
        *,
        journal_path: str | None = None,
    ) -> None:
        self.config = config
        self.gateway = gateway or GatewayConfig()
        self.journal_path = journal_path
        self.service: AllocationService | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        #: every bound listener: TCP, unix socket, HTTP.
        self._listeners: list[asyncio.AbstractServer] = []
        self._connections: set[_Connection] = set()
        #: session name -> the stream connection its pushes go to.
        self._subscribed: dict[str, _Connection] = {}
        self._http_count = 0
        self._admission: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._draining = False
        #: commands the dispatcher handed to the service core.
        self.commands = 0
        #: commands refused ``overloaded``/``draining`` at the gateway
        #: (full admission queue, or drain in progress).
        self.shed = 0
        #: subset of :attr:`shed` refused because the admission queue
        #: was full.
        self.queue_full = 0
        #: connects refused at the ``max_connections`` cap.
        self.rejected_connections = 0
        #: connections dropped at the ``idle_deadline`` (slow-loris).
        self.idle_timeouts = 0
        #: HTTP requests parsed (whatever their outcome).
        self.http_requests = 0

    @property
    def tcp_address(self) -> tuple[str, int]:
        """``(host, port)`` the TCP listener actually bound."""
        if self._tcp_server is None or not self._tcp_server.sockets:
            raise ServiceError("gateway has no TCP listener")
        return self._tcp_server.sockets[0].getsockname()[:2]

    @property
    def http_address(self) -> tuple[str, int]:
        """``(host, port)`` the HTTP listener actually bound."""
        if self._http_server is None or not self._http_server.sockets:
            raise ServiceError("gateway has no HTTP listener")
        return self._http_server.sockets[0].getsockname()[:2]

    @property
    def connection_count(self) -> int:
        """Currently open sockets (stream + HTTP)."""
        return len(self._connections) + self._http_count

    async def start(self) -> AllocationService:
        """Bind the listeners and start dispatching; returns the core.

        The core's staleness watchdog is armed at the staleness
        window, so a runtime that dies without deregistering loses its
        cores without waiting for the next membership change.
        """
        if self._listeners:
            raise ServiceError("gateway already started")
        loop = asyncio.get_running_loop()
        if self.journal_path is not None:
            self.service = AllocationService.recover(
                self.journal_path,
                self.config,
                clock=loop.time,
                call_later=loop.call_later,
            )
        else:
            self.service = AllocationService(
                self.config,
                clock=loop.time,
                call_later=loop.call_later,
            )
        self.service.start_watchdog()
        gw = self.gateway
        self._admission = asyncio.Queue(maxsize=gw.admission_limit)
        self._dispatcher = asyncio.ensure_future(self._dispatch())
        if gw.port is not None:
            self._tcp_server = await asyncio.start_server(
                self._serve_stream,
                host=gw.host,
                port=gw.port,
                limit=gw.max_line_bytes,
            )
            self._listeners.append(self._tcp_server)
        if gw.unix_path is not None:
            self._listeners.append(
                await asyncio.start_unix_server(
                    self._serve_stream,
                    path=gw.unix_path,
                    limit=gw.max_line_bytes,
                )
            )
        if gw.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._serve_http,
                host=gw.host,
                port=gw.http_port,
                limit=gw.max_line_bytes,
            )
            self._listeners.append(self._http_server)
        return self.service

    async def stop(self, reason: str = "draining") -> None:
        """Graceful drain: finish admitted commands, then shut down.

        Ordering is the whole point: the listeners close first (no new
        connections), then every command already in the admission
        queue is dispatched and answered, and only then does the
        service core drain — shutdown notices to every subscribed
        session, journal compaction — and the per-connection outboxes
        flush.  A command accepted before :meth:`stop` therefore
        always gets its real reply, never a silent drop — unless its
        peer stopped reading: each flush waits at most
        ``idle_deadline`` before the transport is aborted.
        """
        if not self._listeners:
            return
        assert self.service is not None
        assert self._admission is not None
        self._draining = True
        for listener in self._listeners:
            listener.close()
        await self._admission.join()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        self.service.drain(reason)
        await asyncio.gather(
            *(
                conn.close(self.gateway.idle_deadline)
                for conn in self._connections
            )
        )
        for listener in self._listeners:
            await listener.wait_closed()
        self._connections.clear()
        self._listeners.clear()
        self._tcp_server = None
        self._http_server = None

    # -- admission ------------------------------------------------------

    def _shed_reply(self, message, error: str, code: str) -> ErrorReply:
        self.shed += 1
        if OBS.enabled:
            _SHED.add()
        return ErrorReply(
            error=error,
            in_reply_to=getattr(message, "TYPE", None),
            code=code,
        )

    def _admit(
        self,
        message,
        received_at: float,
        conn: _Connection | None = None,
        future: asyncio.Future | None = None,
    ) -> ErrorReply | None:
        """Run one decoded command through admission control.

        Returns ``None`` when the command was queued for the
        dispatcher, or the :class:`~repro.serve.protocol.ErrorReply`
        it was shed with (already counted) for the caller to deliver.
        """
        assert self._admission is not None
        if self._draining:
            return self._shed_reply(
                message,
                "gateway is draining; admission is closed",
                "draining",
            )
        item = _Admitted(message, received_at, conn, future)
        try:
            self._admission.put_nowait(item)
        except asyncio.QueueFull:
            self.queue_full += 1
            if OBS.enabled:
                _QUEUE_FULL.add()
            return self._shed_reply(
                message,
                f"admission queue full "
                f"({self.gateway.admission_limit} commands queued); "
                f"retry later",
                "overloaded",
            )
        return None

    async def _dispatch(self) -> None:
        """Dispatcher task: serialize admitted commands into the core."""
        assert self._admission is not None
        # Not a retry loop: one iteration per admitted command, ended
        # by stop() cancelling the task once the queue is drained.
        while True:  # repro: noqa[RETRY001]
            item = await self._admission.get()
            try:
                self._handle_admitted(item)
            finally:
                self._admission.task_done()

    def _handle_admitted(self, item: _Admitted) -> None:
        service = self.service
        assert service is not None
        message = item.message
        reply = service.handle(message, received_at=item.received_at)
        self.commands += 1
        if OBS.enabled:
            _COMMANDS.add()
            _COMMAND_LATENCY.record(
                service.clock() - item.received_at
            )
        conn = item.conn
        if isinstance(reply, Ack):
            if isinstance(message, Register):
                if conn is not None and not conn.closed:
                    self._subscribed[message.name] = conn
                    service.subscribe(message.name, conn.push)
            elif isinstance(message, Deregister):
                # The service dropped the subscription, whoever held it.
                self._subscribed.pop(message.name, None)
        if conn is not None:
            conn.push(reply)
        if item.future is not None and not item.future.done():
            item.future.set_result(reply)

    # -- stream listeners (TCP, unix socket) ----------------------------

    def _refusal(self) -> ErrorReply | None:
        """Why a socket just accepted is refused, or ``None`` to serve it.

        A drain in progress answers ``draining``; otherwise a socket
        over the connection cap answers ``overloaded`` and is counted
        (``gateway/rejected_connections`` counts only the cap).
        """
        if self._draining:
            return ErrorReply(
                error="gateway is draining; admission is closed",
                code="draining",
            )
        cap = self.gateway.max_connections
        if self.connection_count < cap:
            return None
        self.rejected_connections += 1
        if OBS.enabled:
            _REJECTED.add()
        return ErrorReply(
            error=f"connection limit reached ({cap} sockets); retry later",
            code="overloaded",
        )

    async def _reject_connection(
        self, writer: asyncio.StreamWriter, line: bytes
    ) -> None:
        """Refuse a socket at accept: one reply, then close."""
        writer.write(line)
        with contextlib.suppress(ConnectionError):
            await writer.drain()
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()

    async def _serve_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        gw = self.gateway
        refusal = self._refusal()
        if refusal is not None:
            await self._reject_connection(
                writer, (encode_message(refusal) + "\n").encode("utf-8")
            )
            return
        conn = _Connection(writer, gw.outbox_limit)
        self._connections.add(conn)
        if OBS.enabled:
            _CONNECTIONS.set(self.connection_count)
        service = self.service
        assert service is not None
        loop = asyncio.get_running_loop()
        idle = _IdleTimer(gw.idle_deadline)
        try:
            # Not a retry loop: one iteration per request line, bounded
            # by EOF, the idle deadline, or a torn frame.
            while True:  # repro: noqa[RETRY001]
                try:
                    line = await idle.read(reader.readline())
                except asyncio.TimeoutError:
                    # Slow-loris: the peer held the socket open without
                    # completing a line within the idle deadline.  No
                    # reply — a stalled writer is not reading either.
                    self.idle_timeouts += 1
                    if OBS.enabled:
                        _IDLE_TIMEOUTS.add()
                    break
                except ValueError:
                    # Oversized frame: past a torn frame there is no
                    # trustworthy record boundary left.
                    conn.push(
                        ErrorReply(
                            error=(
                                f"request line exceeded the "
                                f"{gw.max_line_bytes}-byte frame cap"
                            ),
                            code="frame-too-large",
                        )
                    )
                    break
                if not line:
                    break
                received_at = loop.time()
                try:
                    message = decode_message(line.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    conn.push(
                        ErrorReply(
                            error=f"request line is not UTF-8: {exc}",
                            code="malformed",
                        )
                    )
                    continue
                except ServiceError as exc:
                    conn.push(
                        ErrorReply(
                            error=str(exc),
                            code=getattr(exc, "code", None) or "malformed",
                        )
                    )
                    continue
                shed = self._admit(message, received_at, conn=conn)
                if shed is not None:
                    conn.push(shed)
        except ConnectionError:  # repro: noqa[EXC002]
            # Mid-read disconnect: nothing to reply to — fall through
            # to the teardown below.
            pass
        finally:
            idle.cancel()
            # Only the subscriptions still this connection's: a session
            # may have moved to another connection since it registered.
            for name in [
                n for n, c in self._subscribed.items() if c is conn
            ]:
                del self._subscribed[name]
                service.unsubscribe(name)
            await conn.close(gw.idle_deadline)
            self._connections.discard(conn)
            if OBS.enabled:
                _CONNECTIONS.set(self.connection_count)

    # -- HTTP adapter ---------------------------------------------------

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        refusal = self._refusal()
        if refusal is not None:
            await self._reject_connection(
                writer,
                _http_frame(
                    HTTP_STATUS[refusal.code],
                    {"error": refusal.error, "code": refusal.code},
                ),
            )
            return
        self._http_count += 1
        if OBS.enabled:
            _CONNECTIONS.set(self.connection_count)
        idle = _IdleTimer(self.gateway.idle_deadline)
        try:
            try:
                method, path, body = await self._read_http_request(
                    reader, idle
                )
            except asyncio.TimeoutError:
                self.idle_timeouts += 1
                if OBS.enabled:
                    _IDLE_TIMEOUTS.add()
                return
            except _HttpError as exc:
                self.http_requests += 1
                if OBS.enabled:
                    _HTTP_REQUESTS.add()
                writer.write(
                    _http_frame(exc.status, {"error": exc.detail})
                )
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
                return
            self.http_requests += 1
            if OBS.enabled:
                _HTTP_REQUESTS.add()
            status, payload = await self._route_http(method, path, body)
            writer.write(_http_frame(status, payload))
            with contextlib.suppress(ConnectionError):
                await writer.drain()
        except ConnectionError:  # repro: noqa[EXC002]
            # The peer vanished mid-request; nothing left to answer.
            pass
        finally:
            idle.cancel()
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
            self._http_count -= 1
            if OBS.enabled:
                _CONNECTIONS.set(self.connection_count)

    async def _read_http_request(
        self, reader: asyncio.StreamReader, idle: _IdleTimer
    ) -> tuple[str, str, bytes]:
        """Parse one HTTP/1.1 request head + body off the stream."""
        try:
            request_line = await idle.read(reader.readline())
        except ValueError as exc:
            raise _HttpError(431, "request line too long") from exc
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, path = parts[0], parts[1]
        headers: dict[str, str] = {}
        # Not a retry loop: one iteration per header line, bounded by
        # the blank line, EOF, and the _MAX_HEADERS cap.
        while True:  # repro: noqa[RETRY001]
            try:
                line = await idle.read(reader.readline())
            except ValueError as exc:
                raise _HttpError(431, "header line too long") from exc
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise _HttpError(
                    431, f"more than {_MAX_HEADERS} headers"
                )
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise _HttpError(
                    400, "content-length is not an integer"
                ) from exc
            if length < 0:
                raise _HttpError(400, "negative content-length")
            if length > self.gateway.max_line_bytes:
                raise _HttpError(
                    413,
                    f"body exceeds the "
                    f"{self.gateway.max_line_bytes}-byte frame cap",
                )
            try:
                body = await idle.read(reader.readexactly(length))
            except asyncio.IncompleteReadError as exc:
                raise _HttpError(400, "body shorter than content-length") from exc
        return method, path, body

    async def _route_http(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """Map one parsed HTTP request onto the protocol command set.

        The query string plays no part in routing, and the session name
        of an allocation lookup is percent-decoded: a session registered
        as ``a b`` is read back at ``/v1/allocation/a%20b``.
        """
        path = path.partition("?")[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            service = self.service
            assert service is not None
            return 200, {
                "status": "draining" if self._draining else "ok",
                "sessions": len(service.registry),
                "connections": self.connection_count,
            }
        if path == "/v1/command":
            if method != "POST":
                return 405, {"error": "command endpoint is POST-only"}
            try:
                message = decode_message(body.decode("utf-8"))
            except (UnicodeDecodeError, ServiceError) as exc:
                reply = ErrorReply(
                    error=f"malformed command body: {exc}",
                    code="malformed",
                )
                return HTTP_STATUS["malformed"], reply.to_dict()
            return await self._http_command(message)
        if path.startswith("/v1/allocation/"):
            if method != "GET":
                return 405, {"error": "allocation endpoint is GET-only"}
            name = urllib.parse.unquote(path[len("/v1/allocation/") :])
            if not name:
                return 404, {"error": "allocation of which session?"}
            return await self._http_command(QueryAllocation(name=name))
        return 404, {"error": f"no route {method} {path}"}

    async def _http_command(self, message) -> tuple[int, dict]:
        """Admit one protocol message on behalf of an HTTP client."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        shed = self._admit(message, loop.time(), future=future)
        if shed is not None:
            return HTTP_STATUS[shed.code], shed.to_dict()
        reply = await future
        if isinstance(reply, ErrorReply):
            status = HTTP_STATUS.get(reply.code or "malformed", 400)
        else:
            status = 200
        return status, reply.to_dict()


def _http_frame(status: int, payload: dict) -> bytes:
    """One complete ``Connection: close`` HTTP/1.1 response."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    encoded = body.encode("utf-8")
    reason = _HTTP_REASONS.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(encoded)}\r\n"
        f"connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + encoded
