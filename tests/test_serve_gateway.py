"""The gateway: admission control on real TCP and unix sockets.

Covers the edge cases a trusting transport never sees: slow-loris
partial lines and bodies, oversized frames, connection-cap rejection,
the three refusal counters against the ``overloaded`` replies a client
read, drain with commands still queued, peers that vanish or stop
reading, and malformed, concurrent or refused HTTP requests against
the adapter.  Stream tests run over
TCP; each ``TestUnix*`` subclass re-runs its parent's tests over the
unix-socket listener, and newer classes are parametrized over both.
"""

import asyncio
import contextlib
import json
import logging
import os
import select
import signal
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import AppSpec
from repro.errors import ServiceError
from repro.machine import model_machine
from repro.obs import capture
from repro.serve import (
    Ack,
    AllocationUpdate,
    AsyncServiceClient,
    ErrorReply,
    GatewayConfig,
    GatewayServer,
    ServiceConfig,
    ShutdownNotice,
    decode_message,
    encode_message,
)
from repro.serve import gateway as gateway_module
from repro.serve import server as server_module
from repro.serve.protocol import (
    Deregister,
    ProgressReport,
    QueryAllocation,
    Register,
)
from repro.serve.registry import SessionState

MEM = AppSpec.memory_bound("mem", 0.5)
CPU = AppSpec.compute_bound("cpu", 10.0)
BAD = AppSpec.numa_bad("bad", 1.0, home_node=0)

TRANSPORTS = ("tcp", "unix")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=20.0))


def make_gateway(service=None, **gw_kwargs):
    gw_kwargs.setdefault("port", 0)
    config = service or ServiceConfig(machine=model_machine(), debounce=0.01)
    return GatewayServer(config, GatewayConfig(**gw_kwargs))


@pytest.fixture
def transport():
    """The stream listener under test; unix subclasses override it."""
    return "tcp"


@pytest.fixture
def make(transport, tmp_path):
    """Gateway factory binding only the ``transport`` stream listener."""

    def factory(**gw_kwargs):
        if transport == "unix":
            gw_kwargs.update(port=None, unix_path=str(tmp_path / "gw.sock"))
        return make_gateway(**gw_kwargs)

    return factory


async def connect(gateway):
    """A stream to the gateway's TCP listener, else its unix socket."""
    if gateway.gateway.port is None:
        return await asyncio.open_unix_connection(gateway.gateway.unix_path)
    host, port = gateway.tcp_address
    return await asyncio.open_connection(host, port)


async def client(gateway, name):
    """An :class:`AsyncServiceClient` on a fresh stream."""
    peer = AsyncServiceClient(name)
    peer.reader, peer.writer = await connect(gateway)
    return peer


async def until(predicate, timeout=5.0):
    """Poll ``predicate`` on the loop until it holds or time runs out."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.02)
    return predicate()


async def request(reader, writer, message):
    """One round-trip, skipping pushed (untagged) stream lines."""
    writer.write((encode_message(message) + "\n").encode("utf-8"))
    await writer.drain()
    return await next_reply(reader)


async def next_reply(reader):
    """The next reply on a stream, skipping pushed (untagged) lines."""
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        assert line, "connection closed while awaiting a reply"
        reply = decode_message(line.decode("utf-8"))
        if getattr(reply, "in_reply_to", None) is not None:
            return reply


async def http_exchange(gateway, raw: bytes) -> tuple[int, dict]:
    """Send raw bytes to the HTTP listener; parse status + JSON body."""
    host, port = gateway.http_address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        status_line = await asyncio.wait_for(
            reader.readline(), timeout=10.0
        )
        status = int(status_line.split()[1])
        length = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = json.loads((await reader.readexactly(length)).decode())
        return status, body
    finally:
        writer.close()


async def trickle(writer, data: bytes, interval: float) -> None:
    """Send ``data`` one byte per ``interval`` until the peer hangs up."""
    with contextlib.suppress(ConnectionError):
        for byte in data:
            writer.write(bytes([byte]))
            await writer.drain()
            await asyncio.sleep(interval)


async def dropped_after(reader, writer, data: bytes, interval: float):
    """Seconds until the gateway hangs up on a peer trickling ``data``.

    The gateway must hang up without replying; the clock starts once
    the connection is open.
    """
    loop = asyncio.get_running_loop()
    started = loop.time()
    sender = asyncio.ensure_future(trickle(writer, data, interval))
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=5.0)
    finally:
        sender.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await sender
    assert line == b""  # dropped, no reply
    return loop.time() - started


def record_idle_timers(loop) -> list:
    """Every handle the gateway's idle timers arm on ``loop`` from now."""
    handles = []
    call_at = loop.call_at

    def recording(when, callback, *args, **kwargs):
        handle = call_at(when, callback, *args, **kwargs)
        if getattr(callback, "__func__", None) is (
            gateway_module._IdleTimer._fire
        ):
            handles.append(handle)
        return handle

    loop.call_at = recording
    return handles


def http_post_command(message) -> bytes:
    body = encode_message(message).encode("utf-8")
    head = (
        f"POST /v1/command HTTP/1.1\r\n"
        f"content-length: {len(body)}\r\n"
        f"connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body


class TestGatewayConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_connections": 0},
            {"admission_limit": 0},
            {"idle_deadline": 0.0},
            {"max_line_bytes": 100},
            {"outbox_limit": 0},
            {"port": None},  # no stream listener at all
        ],
    )
    def test_bad_knob_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            GatewayConfig(**kwargs)


class TestTcpRoundTrip:
    def test_register_query_deregister(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            ack = await request(
                reader, writer, Register(name="mem", app=MEM)
            )
            assert isinstance(ack, Ack)
            await asyncio.sleep(0.05)  # debounce fires on loop time
            update = await request(
                reader, writer, QueryAllocation(name="mem")
            )
            assert isinstance(update, AllocationUpdate)
            assert update.per_node == (8, 8, 8, 8)
            bye = await request(reader, writer, Deregister(name="mem"))
            assert isinstance(bye, Ack)
            writer.close()
            await gateway.stop()
            assert gateway.commands == 3

        run(scenario())

    def test_pushed_update_arrives_on_the_stream(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            await request(reader, writer, Register(name="mem", app=MEM))
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            pushed = decode_message(line.decode("utf-8"))
            assert isinstance(pushed, AllocationUpdate)
            assert pushed.in_reply_to is None
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_malformed_line_gets_error_not_disconnect(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = decode_message(
                (await reader.readline()).decode("utf-8")
            )
            assert isinstance(reply, ErrorReply)
            assert reply.code == "malformed"
            # The connection survived: a real command still works.
            ack = await request(
                reader, writer, Register(name="mem", app=MEM)
            )
            assert isinstance(ack, Ack)
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_invalid_utf8_gets_malformed_reply(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            writer.write(b"\xff\xfe\xfd definitely not utf-8\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            assert decode_message(line.decode("utf-8")).code == "malformed"
            # The connection survived the bad frame.
            ack = await request(
                reader, writer, Register(name="mem", app=MEM)
            )
            assert isinstance(ack, Ack)
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_progress_report_acks(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            peer = await client(gateway, "mem")
            ack = await peer.register(MEM)
            # Report times live on the service clock — the loop's.
            now = asyncio.get_running_loop().time()
            reply = await peer.report(
                time=now, cpu_load=0.4, acked_epoch=ack.epoch
            )
            assert isinstance(reply, Ack)
            await peer.close()
            await gateway.stop()

        run(scenario())

    def test_two_clients_share_the_machine(self, make):
        gateway = make()

        async def scenario():
            service = await gateway.start()
            mem = await client(gateway, "mem")
            bad = await client(gateway, "bad")
            await mem.register(MEM)
            await bad.register(BAD)
            await asyncio.sleep(0.05)
            u_mem = await mem.query_allocation()
            u_bad = await bad.query_allocation()
            assert u_mem.per_node == (2, 2, 2, 2)
            assert u_bad.per_node == (6, 6, 6, 6)
            assert service.reoptimizations >= 1
            assert isinstance(await mem.deregister(), Ack)
            await mem.close()
            await bad.close()
            await gateway.stop()

        run(scenario())

    def test_error_reply_raises_client_side(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            first = await client(gateway, "mem")
            second = await client(gateway, "mem")
            await first.register(MEM)
            with pytest.raises(ServiceError):
                await second.register(MEM)  # duplicate live session
            await first.close()
            await second.close()
            await gateway.stop()

        run(scenario())

    def test_watchdog_takes_a_silent_sessions_cores(self, make):
        # Default timing: a 0.15 s staleness window (1.5 x 0.1 s).
        gateway = make(service=ServiceConfig(machine=model_machine()))

        async def scenario():
            service = await gateway.start()
            loop = asyncio.get_running_loop()
            live = await client(gateway, "mem")
            silent = await client(gateway, "cpu")
            await live.register(MEM)
            await silent.register(CPU)
            first = await silent.next_pushed(timeout=5.0)
            assert first.per_node == (8, 8, 8, 8)
            # No register or deregister follows: only the watchdog can
            # notice that "cpu" went silent while "mem" keeps reporting.
            held = None  # the newest allocation pushed to "mem"
            deadline = loop.time() + 5.0
            while loop.time() < deadline and not (
                held is not None
                and held.epoch > first.epoch
                and held.per_node == (8, 8, 8, 8)
            ):
                await live.report(
                    time=loop.time(),
                    acked_epoch=None if held is None else held.epoch,
                )
                if live.pushed:
                    held = live.pushed[-1]
                    live.pushed.clear()
                await asyncio.sleep(0.05)
            assert held.epoch > first.epoch
            assert held.per_node == (8, 8, 8, 8)
            state = service.registry.get("cpu").state
            assert state is SessionState.QUARANTINED
            await live.close()
            await silent.close()
            await gateway.stop()

        run(scenario())

    def test_replacement_pair_costs_one_search(self, make):
        # The default debounce window; a staleness window longer than
        # the test, so that only the churn below re-optimizes.
        gateway = make(
            service=ServiceConfig(
                machine=model_machine(), report_interval=10.0
            )
        )
        specs = {
            name: AppSpec.memory_bound(name, ai)
            for name, ai in zip("abcde", (0.5, 1.0, 2.0, 4.0, 8.0))
        }

        async def scenario():
            service = await gateway.start()
            reader, writer = await connect(gateway)

            async def churn(*messages):
                """Send ``messages`` in one write; the pushes of the
                epoch after them, by session name."""
                writer.write(
                    "".join(encode_message(m) + "\n" for m in messages)
                    .encode("utf-8")
                )
                await writer.drain()
                acks = [await next_reply(reader) for _ in messages]
                assert all(isinstance(ack, Ack) for ack in acks)
                epoch = acks[-1].epoch
                live = service.registry.active_specs()
                pushes = {}
                while {s.name for s in live} - pushes.keys():
                    line = await asyncio.wait_for(reader.readline(), 5.0)
                    pushed = decode_message(line.decode("utf-8"))
                    assert pushed.in_reply_to is None
                    if pushed.epoch == epoch:
                        assert pushed.name not in pushes
                        pushes[pushed.name] = pushed
                return pushes

            registered = [Register(name=n, app=specs[n]) for n in "abc"]
            assert set(await churn(*registered)) == {"a", "b", "c"}
            before = service.reoptimizations
            pushes = await churn(
                Deregister(name="b"), Register(name="d", app=specs["d"])
            )
            assert set(pushes) == {"a", "c", "d"}
            assert service.reoptimizations == before + 1
            # Nothing else is pending: 50 ms on, no push and no search.
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readline(), 0.05)
            assert service.reoptimizations == before + 1
            pushes = await churn(
                Deregister(name="a"), Register(name="e", app=specs["e"])
            )
            assert set(pushes) == {"c", "d", "e"}
            assert service.reoptimizations == before + 2
            writer.close()
            await gateway.stop()

        run(scenario())


class TestUnixRoundTrip(TestTcpRoundTrip):
    @pytest.fixture
    def transport(self):
        return "unix"


class TestSlowLoris:
    def test_partial_line_is_disconnected_at_the_idle_deadline(self, make):
        gateway = make(idle_deadline=0.1)

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            # A partial frame, never completed with a newline.
            writer.write(b'{"type": "regis')
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            assert line == b""  # server closed the socket, no reply
            assert gateway.idle_timeouts == 1
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_active_connection_is_not_disconnected(self, make):
        gateway = make(idle_deadline=0.2)

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            await request(reader, writer, Register(name="mem", app=MEM))
            for _ in range(4):
                await asyncio.sleep(0.1)  # stays under the deadline
                loop = asyncio.get_running_loop()
                reply = await request(
                    reader,
                    writer,
                    ProgressReport(name="mem", time=loop.time()),
                )
                assert isinstance(reply, Ack)
            assert gateway.idle_timeouts == 0
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_missing_http_body_is_disconnected_at_the_idle_deadline(
        self, make
    ):
        gateway = make(http_port=0, idle_deadline=0.2)

        async def scenario():
            await gateway.start()
            host, port = gateway.http_address
            reader, writer = await asyncio.open_connection(host, port)
            # A complete head promising a body that never comes.
            writer.write(
                b"POST /v1/command HTTP/1.1\r\n"
                b"content-length: 100\r\n\r\n"
            )
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            assert line == b""  # dropped at the deadline, no reply
            assert gateway.idle_timeouts == 1
            assert await until(lambda: gateway.connection_count == 0)
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_trickled_line_is_dropped_at_the_deadline(self, make):
        # One byte every 0.4 deadlines keeps bytes arriving, but the
        # line never completes: the deadline bounds the whole read.
        deadline = 0.5
        gateway = make(idle_deadline=deadline)

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            elapsed = await dropped_after(
                reader, writer, b'{"type": "register", "name": "m"}',
                0.4 * deadline,
            )
            assert 0.9 * deadline <= elapsed < 2 * deadline
            assert gateway.idle_timeouts == 1
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_trickled_http_request_line_is_dropped_at_the_deadline(
        self, make
    ):
        deadline = 0.5
        gateway = make(http_port=0, idle_deadline=deadline)

        async def scenario():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                *gateway.http_address
            )
            elapsed = await dropped_after(
                reader, writer, b"GET /healthz HTTP/1.1\r\n\r\n",
                0.4 * deadline,
            )
            assert 0.9 * deadline <= elapsed < 2 * deadline
            assert gateway.idle_timeouts == 1
            assert await until(lambda: gateway.connection_count == 0)
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_drop_at_the_deadline_leaves_no_timer_and_logs_nothing(
        self, make, caplog
    ):
        caplog.set_level(logging.ERROR, logger="asyncio")
        gateway = make(http_port=0, idle_deadline=0.2)

        async def scenario():
            loop = asyncio.get_running_loop()
            handles = record_idle_timers(loop)
            await gateway.start()
            # A stream and an HTTP peer stall mid-request and are
            # dropped; then a peer completes a command and leaves while
            # its connection's timer is still armed.
            stalled, stalled_writer = await connect(gateway)
            stalled_writer.write(b'{"type": "regis')
            http, http_writer = await asyncio.open_connection(
                *gateway.http_address
            )
            http_writer.write(b"GET /healthz HTTP/1.1\r\n")
            assert await stalled.readline() == b""
            assert await http.readline() == b""
            assert gateway.idle_timeouts == 2
            reader, writer = await connect(gateway)
            await request(reader, writer, Register(name="mem", app=MEM))
            writer.close()
            assert await until(lambda: gateway.connection_count == 0)
            assert len(handles) >= 3
            armed = [
                h for h in handles
                if not h.cancelled() and h.when() > loop.time()
            ]
            assert armed == []
            stalled_writer.close()
            http_writer.close()
            await gateway.stop()

        run(scenario())
        assert not [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]


class TestUnixSlowLoris(TestSlowLoris):
    @pytest.fixture
    def transport(self):
        return "unix"


class TestOversizedFrames:
    def test_frame_too_large_replies_then_disconnects(self, make):
        gateway = make(max_line_bytes=1024)

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            writer.write(b"x" * 4096 + b"\n")
            await writer.drain()
            reply = decode_message(
                (await reader.readline()).decode("utf-8")
            )
            assert isinstance(reply, ErrorReply)
            assert reply.code == "frame-too-large"
            assert await reader.readline() == b""  # disconnected
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_min_frame_cap_enforced(self, make):
        with pytest.raises(ServiceError):
            make(max_line_bytes=16)


class TestUnixOversizedFrames(TestOversizedFrames):
    @pytest.fixture
    def transport(self):
        return "unix"


class TestConnectionLimit:
    def test_over_cap_connect_is_rejected_overloaded(self, make):
        gateway = make(max_connections=1)

        async def scenario():
            await gateway.start()
            reader1, writer1 = await connect(gateway)
            ack = await request(
                reader1, writer1, Register(name="mem", app=MEM)
            )
            assert isinstance(ack, Ack)
            reader2, writer2 = await connect(gateway)
            line = await asyncio.wait_for(
                reader2.readline(), timeout=5.0
            )
            reply = decode_message(line.decode("utf-8"))
            assert isinstance(reply, ErrorReply)
            assert reply.code == "overloaded"
            assert await reader2.readline() == b""  # closed
            assert gateway.rejected_connections == 1
            # The first connection is unaffected.
            bye = await request(
                reader1, writer1, Deregister(name="mem")
            )
            assert isinstance(bye, Ack)
            writer1.close()
            writer2.close()
            await gateway.stop()

        run(scenario())

    def test_slot_frees_up_after_disconnect(self, make):
        gateway = make(max_connections=1)

        async def scenario():
            await gateway.start()
            reader1, writer1 = await connect(gateway)
            await request(reader1, writer1, Register(name="mem", app=MEM))
            writer1.close()
            await writer1.wait_closed()
            await asyncio.sleep(0.05)  # let the server reap the socket
            reader2, writer2 = await connect(gateway)
            ack = await request(
                reader2, writer2, Register(name="cpu", app=CPU)
            )
            assert isinstance(ack, Ack)
            writer2.close()
            await gateway.stop()

        run(scenario())


class TestUnixConnectionLimit(TestConnectionLimit):
    @pytest.fixture
    def transport(self):
        return "unix"


class TestBothListeners:
    def test_one_connection_cap_spans_tcp_and_unix(self, tmp_path):
        gateway = make_gateway(
            unix_path=str(tmp_path / "gw.sock"), max_connections=1
        )

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)  # TCP
            ack = await request(
                reader, writer, Register(name="mem", app=MEM)
            )
            assert isinstance(ack, Ack)
            reader2, writer2 = await asyncio.open_unix_connection(
                gateway.gateway.unix_path
            )
            line = await asyncio.wait_for(reader2.readline(), timeout=5.0)
            assert decode_message(line.decode("utf-8")).code == "overloaded"
            assert gateway.rejected_connections == 1
            writer.close()
            writer2.close()
            await gateway.stop()

        run(scenario())


class TestAdmissionQueue:
    def test_queue_overflow_sheds_overloaded(self):
        gateway = make_gateway(admission_limit=1)

        async def scenario():
            await gateway.start()
            # Pause the dispatcher so the queue cannot drain while the
            # flood goes in.
            gateway._dispatcher.cancel()
            try:
                await gateway._dispatcher
            except asyncio.CancelledError:
                pass
            reader, writer = await connect(gateway)
            for _ in range(3):
                writer.write(
                    (
                        encode_message(Register(name="mem", app=MEM))
                        + "\n"
                    ).encode("utf-8")
                )
            await writer.drain()
            await asyncio.sleep(0.1)  # let the read loop admit/shed
            assert gateway.shed >= 2  # one queued, the rest shed
            # Restart the dispatcher so stop() can drain the queue.
            gateway._dispatcher = asyncio.ensure_future(
                gateway._dispatch()
            )
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_queue_overflow_is_counted_queue_full(self):
        gateway = make_gateway(admission_limit=1)

        async def scenario():
            await gateway.start()
            gateway._dispatcher.cancel()
            try:
                await gateway._dispatcher
            except asyncio.CancelledError:
                pass
            reader, writer = await connect(gateway)
            with capture() as cap:
                for _ in range(3):
                    writer.write(
                        (
                            encode_message(Register(name="mem", app=MEM))
                            + "\n"
                        ).encode("utf-8")
                    )
                await writer.drain()
                assert await until(lambda: gateway.shed == 2)
            # One register queued, the other two refused by the queue.
            assert gateway.queue_full == 2
            assert cap.metrics.counter("gateway/queue_full").value == 2
            gateway._dispatcher = asyncio.ensure_future(
                gateway._dispatch()
            )
            writer.close()
            await gateway.stop()

        run(scenario())


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestShedAccounting:
    def test_refusal_stages_sum_to_overloaded_replies(self, make):
        # Each stage that answers `overloaded` refuses once: the
        # connection cap, the registry's session cap and the admission
        # queue.  Every refusal is counted by exactly one of their
        # three counters.
        gateway = make(
            service=ServiceConfig(
                machine=model_machine(), debounce=0.01, max_sessions=1
            ),
            max_connections=2,
            admission_limit=1,
        )

        async def scenario():
            service = await gateway.start()
            reader, writer = await connect(gateway)
            replies = [
                await request(reader, writer, Register(name="mem", app=MEM))
            ]
            # Session cap: a second register finds max_sessions full.
            reader2, writer2 = await connect(gateway)
            replies.append(
                await request(reader2, writer2, Register(name="cpu", app=CPU))
            )
            # Connection cap: a third socket finds both slots taken.
            reader3, writer3 = await connect(gateway)
            line = await asyncio.wait_for(reader3.readline(), timeout=5.0)
            replies.append(decode_message(line.decode("utf-8")))
            # With the dispatcher paused, the first report fills the
            # one-slot queue and the second finds it full.
            gateway._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await gateway._dispatcher
            loop = asyncio.get_running_loop()
            for _ in range(2):
                report = ProgressReport(name="mem", time=loop.time())
                writer.write((encode_message(report) + "\n").encode("utf-8"))
            await writer.drain()
            replies.append(await next_reply(reader))
            gateway._dispatcher = asyncio.ensure_future(gateway._dispatch())
            replies.append(await next_reply(reader))  # the queued report
            for w in (writer, writer2, writer3):
                w.close()
            await gateway.stop()
            return service, replies

        with capture() as cap:
            service, replies = run(scenario())
        assert [type(r).__name__ for r in replies] == [
            "Ack", "ErrorReply", "ErrorReply", "ErrorReply", "Ack",
        ]
        overloaded = sum(
            isinstance(r, ErrorReply) and r.code == "overloaded"
            for r in replies
        )
        counted = {
            "gateway/rejected_connections": gateway.rejected_connections,
            "serve/rejected_sessions": service.rejected_sessions,
            "gateway/queue_full": gateway.queue_full,
        }
        assert all(n >= 1 for n in counted.values()), counted
        assert sum(counted.values()) == overloaded
        for name, n in counted.items():
            assert cap.metrics.counter(name).value == n, name


class TestDrain:
    def test_inflight_commands_are_answered_before_shutdown(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            await request(reader, writer, Register(name="mem", app=MEM))
            loop = asyncio.get_running_loop()
            # Burst of commands, then stop() immediately: every one
            # already read off the wire must still get a real reply.
            for _ in range(5):
                writer.write(
                    (
                        encode_message(
                            ProgressReport(name="mem", time=loop.time())
                        )
                        + "\n"
                    ).encode("utf-8")
                )
            await writer.drain()
            await asyncio.sleep(0.05)  # commands enter the queue
            await gateway.stop()
            replies = []
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                )
                if not line:
                    break
                replies.append(decode_message(line.decode("utf-8")))
            acks = [
                r
                for r in replies
                if isinstance(r, Ack)
                and r.in_reply_to == "progress-report"
            ]
            assert len(acks) == 5
            assert any(
                isinstance(r, ShutdownNotice) for r in replies
            )
            writer.close()

        run(scenario())

    def test_new_connections_rejected_while_draining(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            await gateway.stop()
            with pytest.raises((ConnectionError, OSError, ServiceError)):
                # The listener is gone; tcp_address raises or the
                # connect fails.
                await connect(gateway)

        run(scenario())

    def test_connect_during_drain_window_is_answered_draining(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            # Freeze the gateway inside its drain window with the
            # listeners still open, then connect: the refusal names the
            # drain, and it is not a connection-cap refusal.
            gateway._draining = True
            reader, writer = await connect(gateway)
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            reply = decode_message(line.decode("utf-8"))
            assert isinstance(reply, ErrorReply)
            assert reply.code == "draining"
            assert await reader.readline() == b""  # closed
            assert gateway.rejected_connections == 0
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_commands_during_drain_window_are_shed_draining(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            # A connect can complete before the gateway accepts it.
            assert await until(lambda: gateway.connection_count == 1)
            # Freeze the gateway inside its drain window (listeners
            # closing, queue settling) and send a command through the
            # still-open connection.
            gateway._draining = True
            writer.write(
                (
                    encode_message(Register(name="mem", app=MEM)) + "\n"
                ).encode("utf-8")
            )
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            reply = decode_message(line.decode("utf-8"))
            assert isinstance(reply, ErrorReply)
            assert reply.code == "draining"
            assert gateway.shed == 1
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_draining_sheds_are_not_counted_queue_full(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            assert await until(lambda: gateway.connection_count == 1)
            gateway._draining = True
            for _ in range(3):
                writer.write(
                    (
                        encode_message(Register(name="mem", app=MEM))
                        + "\n"
                    ).encode("utf-8")
                )
            await writer.drain()
            for _ in range(3):
                line = await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                )
                assert decode_message(line.decode("utf-8")).code == (
                    "draining"
                )
            assert gateway.shed == 3
            assert gateway.queue_full == 0
            writer.close()
            await gateway.stop()

        run(scenario())


class TestUnixDrain(TestDrain):
    @pytest.fixture
    def transport(self):
        return "unix"


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestLifecycle:
    def test_double_start_rejected(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            with pytest.raises(ServiceError):
                await gateway.start()
            await gateway.stop()

        run(scenario())

    def test_stop_twice_is_harmless(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            await gateway.stop()
            await gateway.stop()

        run(scenario())


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestPeerFailures:
    def test_abrupt_disconnect_mid_session_is_tolerated(self, make):
        gateway = make()

        async def scenario():
            service = await gateway.start()
            rude = await client(gateway, "mem")
            await rude.register(MEM)
            # Vanish without deregistering — no FIN handshake games,
            # just drop the transport mid-stream.
            rude.writer.transport.abort()
            await asyncio.sleep(0.05)
            # The service keeps running and serves a fresh client.
            polite = await client(gateway, "bad")
            ack = await polite.register(BAD)
            assert isinstance(ack, Ack)
            # The rude session is still registered (its liveness is
            # the staleness sweep's business, not the transport's).
            assert "mem" in service.registry
            await polite.close()
            await gateway.stop()

        run(scenario())

    def test_disconnect_with_queued_pushes_is_tolerated(self, make):
        gateway = make()

        async def scenario():
            await gateway.start()
            peer = await client(gateway, "mem")
            await peer.register(MEM)
            await asyncio.sleep(0.05)  # a push is in flight or queued
            peer.writer.transport.abort()
            await asyncio.sleep(0.05)
            await gateway.stop()  # drain must not hang or raise

        run(scenario())

    async def flood_without_reading(self, gateway):
        """Register, then pipeline queries and never read a reply.

        The replies (~8 MB: 8 kB names) outgrow the kernel's socket
        buffers, so the gateway's writes back up.
        """
        reader, writer = await connect(gateway)
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF, 4096
        )
        name = "m" * 8000
        await request(
            reader,
            writer,
            Register(name=name, app=AppSpec.memory_bound(name, 0.5)),
        )
        query = encode_message(QueryAllocation(name=name)) + "\n"
        writer.write(query.encode("utf-8") * 1000)
        return writer

    def test_reader_that_stops_reading_is_dropped(self, make):
        # The outbox overflows: the transport is aborted, the slot is
        # freed, and stop() is not left waiting on a stuck writer.
        gateway = make(idle_deadline=1.0)

        async def scenario():
            await gateway.start()
            writer = await self.flood_without_reading(gateway)
            assert await until(lambda: gateway.connection_count == 0)
            assert gateway.idle_timeouts == 0  # dropped, not timed out
            assert gateway.commands > 1
            await asyncio.wait_for(gateway.stop(), timeout=5.0)
            writer.transport.abort()

        run(scenario())

    def test_quiet_stalled_reader_is_dropped_at_the_deadline(self, make):
        # An outbox too large to overflow: the writer stays blocked in
        # drain() until the peer's idle deadline closes the connection,
        # and the close gives the peer the same deadline to read.
        gateway = make(idle_deadline=0.5, outbox_limit=1_000_000)

        async def scenario():
            await gateway.start()
            writer = await self.flood_without_reading(gateway)
            assert await until(lambda: gateway.connection_count == 0)
            assert gateway.idle_timeouts == 1
            await asyncio.wait_for(gateway.stop(), timeout=5.0)
            writer.transport.abort()

        run(scenario())

    def test_peer_that_falls_behind_reads_everything_in_order(
        self, make, monkeypatch
    ):
        # The peer stops reading until the gateway's writes back up
        # (replies queue in the outbox), then reads everything: every
        # reply and push arrives, in the order the service produced
        # them, across writes in place and writes by the writer task.
        produced = []
        push = server_module._Connection.push

        def recording(conn, message):
            produced.append(encode_message(message))
            push(conn, message)

        monkeypatch.setattr(server_module._Connection, "push", recording)
        gateway = make(outbox_limit=1_000_000)
        commands = []
        # ~8 MB of replies: more than the kernel's socket buffers hold.
        for i in range(1000):
            if i % 200 == 0:
                name = f"s{i}"
                commands.append(
                    Register(name=name, app=AppSpec.memory_bound(name, 0.5))
                )
            # An unknown session: a unique, 8 kB error reply.
            commands.append(QueryAllocation(name=f"{i:04d}" + "g" * 8000))

        async def scenario():
            await gateway.start()
            reader, writer = await connect(gateway)
            writer.write(
                b"".join(
                    (encode_message(m) + "\n").encode("utf-8")
                    for m in commands
                )
            )
            assert await until(
                lambda: any(
                    conn.outbox.qsize() for conn in gateway._connections
                )
            )
            received = []

            async def read_all():
                while line := await reader.readline():
                    received.append(line.decode("utf-8").rstrip("\n"))

            reading = asyncio.ensure_future(read_all())
            assert await until(lambda: gateway.commands == len(commands))
            await asyncio.sleep(0.2)  # the last re-optimization's pushes
            await gateway.stop()  # shutdown notices, then EOF
            await asyncio.wait_for(reading, timeout=10.0)
            writer.close()
            return received

        received = run(scenario())
        assert len(produced) > len(commands)  # replies and pushes
        assert received == produced

    def test_closing_connection_unsubscribes_all_its_sessions(self, make):
        gateway = make()

        async def scenario():
            service = await gateway.start()
            reader, writer = await connect(gateway)
            for name in ("a", "b"):
                app = AppSpec.memory_bound(name, 0.5)
                await request(reader, writer, Register(name=name, app=app))
            assert {"a", "b"} <= set(service._subscribers)
            writer.transport.abort()
            assert await until(lambda: gateway.connection_count == 0)
            # Both sessions stay live, and neither is subscribed.
            assert "a" in service.registry and "b" in service.registry
            assert not {"a", "b"} & set(service._subscribers)
            await gateway.stop()

        run(scenario())

    def test_closing_connection_keeps_a_session_that_moved(self, make):
        # x registers on A, is deregistered and registered again on B;
        # A's close must not unsubscribe B's session.
        gateway = make()
        x = AppSpec.memory_bound("x", 0.5)

        async def scenario():
            service = await gateway.start()
            a_reader, a_writer = await connect(gateway)
            await request(a_reader, a_writer, Register(name="x", app=x))
            b_reader, b_writer = await connect(gateway)
            await request(b_reader, b_writer, Deregister(name="x"))
            await request(b_reader, b_writer, Register(name="x", app=x))
            a_writer.close()
            assert await until(lambda: gateway.connection_count == 1)
            assert "x" in service._subscribers
            # The next re-optimization still pushes x's update to B.
            await request(b_reader, b_writer, Register(name="bad", app=BAD))
            while True:
                line = await asyncio.wait_for(b_reader.readline(), 5.0)
                update = decode_message(line.decode("utf-8"))
                if (
                    isinstance(update, AllocationUpdate)
                    and update.in_reply_to is None
                    and update.name == "x"
                    and update.epoch == service.registry.epoch
                ):
                    break
            b_writer.close()
            await gateway.stop()

        run(scenario())

    def test_register_answered_after_the_peer_left_is_not_subscribed(
        self, make
    ):
        gateway = make()

        async def scenario():
            service = await gateway.start()
            gateway._dispatcher.cancel()  # hold the register in queue
            with contextlib.suppress(asyncio.CancelledError):
                await gateway._dispatcher
            reader, writer = await connect(gateway)
            writer.write(
                (encode_message(Register(name="mem", app=MEM)) + "\n")
                .encode("utf-8")
            )
            await writer.drain()
            assert await until(lambda: gateway._admission.qsize() == 1)
            writer.transport.abort()
            assert await until(lambda: gateway.connection_count == 0)
            gateway._dispatcher = asyncio.ensure_future(gateway._dispatch())
            assert await until(lambda: gateway.commands == 1)
            assert "mem" in service.registry
            assert "mem" not in service._subscribers
            await gateway.stop()

        run(scenario())

    def test_stop_bounds_the_flush_to_a_stalled_reader(self, make):
        gateway = make(idle_deadline=0.5, outbox_limit=1_000_000)

        async def scenario():
            await gateway.start()
            writer = await self.flood_without_reading(gateway)
            await asyncio.sleep(0.2)  # the gateway's writes back up
            await asyncio.wait_for(gateway.stop(), timeout=5.0)
            assert gateway.connection_count == 0
            writer.transport.abort()

        run(scenario())


class TestHttpAdapter:
    def make_http_gateway(self, **kwargs):
        kwargs.setdefault("http_port", 0)
        return make_gateway(**kwargs)

    def test_register_report_query_over_http(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            status, body = await http_exchange(
                gateway, http_post_command(Register(name="mem", app=MEM))
            )
            assert status == 200
            assert body["type"] == "ack"
            await asyncio.sleep(0.05)  # debounce
            host, port = gateway.http_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.close()
            status, body = await http_exchange(
                gateway,
                b"GET /v1/allocation/mem HTTP/1.1\r\n\r\n",
            )
            assert status == 200
            assert body["type"] == "allocation"
            assert body["per_node"] == [8, 8, 8, 8]
            status, body = await http_exchange(
                gateway, b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            assert body["status"] == "ok"
            assert body["sessions"] == 1
            await gateway.stop()

        run(scenario())

    def test_concurrent_clients_each_get_their_own_replies(self, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        # A debounce longer than the test: no search runs, as a 24-app
        # exhaustive space (7.9 M candidates) is far beyond this test.
        gateway = self.make_http_gateway(
            service=ServiceConfig(machine=model_machine(), debounce=60.0)
        )
        clients = 24

        async def session(name):
            def post(message):
                return http_exchange(gateway, http_post_command(message))

            loop = asyncio.get_running_loop()
            return [
                await post(Register(name=name, app=AppSpec.memory_bound(name))),
                # Timed once registered: a report may not predate it.
                await post(ProgressReport(name=name, time=loop.time())),
                await post(Deregister(name=name)),
            ]

        async def scenario():
            await gateway.start()
            names = [f"app{i}" for i in range(clients)]
            results = await asyncio.gather(*(session(n) for n in names))
            for name, replies in zip(names, results):
                assert [
                    (status, body["type"], body["name"], body["in_reply_to"])
                    for status, body in replies
                ] == [
                    (200, "ack", name, "register"),
                    (200, "ack", name, "progress-report"),
                    (200, "ack", name, "deregister"),
                ]
            assert gateway.http_requests == 3 * clients
            status, body = await http_exchange(
                gateway, b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            assert (status, body["sessions"]) == (200, 0)
            await gateway.stop()

        run(scenario())
        assert not [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]

    @pytest.mark.parametrize(
        "name, target",
        [
            ("a b", "a%20b"),
            ("x/y", "x%2Fy"),
            ("café", "caf%C3%A9"),
            ("mem", "mem?verbose=1"),
        ],
        ids=["space", "encoded-slash", "non-ascii", "query-string"],
    )
    def test_allocation_lookup_by_encoded_name(self, name, target):
        gateway = self.make_http_gateway()

        async def scenario():
            service = await gateway.start()
            status, _ = await http_exchange(
                gateway,
                http_post_command(
                    Register(name=name, app=AppSpec.memory_bound(name))
                ),
            )
            assert status == 200
            assert await until(lambda: service.reoptimizations >= 1)
            status, body = await http_exchange(
                gateway, f"GET /v1/allocation/{target} HTTP/1.1\r\n\r\n".encode()
            )
            assert status == 200, body
            assert body["name"] == name
            assert body["per_node"] == [8, 8, 8, 8]
            await gateway.stop()

        run(scenario())

    def test_malformed_request_line_is_400(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            status, body = await http_exchange(gateway, b"NONSENSE\r\n\r\n")
            assert status == 400
            assert "malformed" in body["error"]
            await gateway.stop()

        run(scenario())

    def test_unknown_route_is_404_and_bad_method_is_405(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            status, _ = await http_exchange(
                gateway, b"GET /nowhere HTTP/1.1\r\n\r\n"
            )
            assert status == 404
            status, _ = await http_exchange(
                gateway, b"GET /v1/command HTTP/1.1\r\n\r\n"
            )
            assert status == 405
            await gateway.stop()

        run(scenario())

    def test_bad_content_length_is_400(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            status, body = await http_exchange(
                gateway,
                b"POST /v1/command HTTP/1.1\r\n"
                b"content-length: banana\r\n\r\n",
            )
            assert status == 400
            assert "content-length" in body["error"]
            await gateway.stop()

        run(scenario())

    def test_oversized_body_is_413(self):
        gateway = self.make_http_gateway(max_line_bytes=1024)

        async def scenario():
            await gateway.start()
            status, _ = await http_exchange(
                gateway,
                b"POST /v1/command HTTP/1.1\r\n"
                b"content-length: 99999\r\n\r\n",
            )
            assert status == 413
            await gateway.stop()

        run(scenario())

    def test_malformed_json_body_is_400_malformed(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            body = b"not json"
            status, reply = await http_exchange(
                gateway,
                b"POST /v1/command HTTP/1.1\r\n"
                + f"content-length: {len(body)}\r\n\r\n".encode()
                + body,
            )
            assert status == 400
            assert reply["code"] == "malformed"
            await gateway.stop()

        run(scenario())

    def test_connect_during_drain_window_is_503_draining(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            gateway._draining = True  # listeners still open
            host, port = gateway.http_address
            reader, writer = await asyncio.open_connection(host, port)
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split()[1] == b"503"
            assert json.loads(body)["code"] == "draining"
            assert gateway.rejected_connections == 0
            writer.close()
            await gateway.stop()

        run(scenario())

    def test_connect_over_the_connection_cap_is_503_overloaded(self):
        gateway = self.make_http_gateway(max_connections=1)

        async def scenario():
            await gateway.start()
            _, stream = await connect(gateway)
            assert await until(lambda: gateway.connection_count == 1)
            # The cap answers at accept, before any request is read, so
            # the client sends none: the gateway would close on unread
            # bytes, which can reset the connection before the reply.
            host, port = gateway.http_address
            reader, writer = await asyncio.open_connection(host, port)
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split()[1] == b"503"
            assert json.loads(body)["code"] == "overloaded"
            assert gateway.rejected_connections == 1
            writer.close()
            stream.close()
            await gateway.stop()

        run(scenario())

    def test_command_into_a_full_queue_is_503_overloaded(self):
        gateway = self.make_http_gateway(admission_limit=1)

        async def scenario():
            await gateway.start()
            gateway._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await gateway._dispatcher
            queued = asyncio.ensure_future(
                http_exchange(
                    gateway, http_post_command(Register(name="mem", app=MEM))
                )
            )
            assert await until(lambda: gateway._admission.qsize() == 1)
            status, body = await http_exchange(
                gateway, http_post_command(Register(name="cpu", app=CPU))
            )
            assert (status, body["code"]) == (503, "overloaded")
            assert gateway.queue_full == 1
            gateway._dispatcher = asyncio.ensure_future(gateway._dispatch())
            status, body = await queued
            assert (status, body["type"], body["name"]) == (200, "ack", "mem")
            await gateway.stop()

        run(scenario())

    def test_reply_slower_than_the_idle_deadline_is_answered(self):
        # The idle deadline bounds reads only: a command that waits
        # longer than it for the dispatcher still gets its reply.
        gateway = self.make_http_gateway(idle_deadline=0.2)

        async def scenario():
            await gateway.start()
            gateway._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await gateway._dispatcher
            exchange = asyncio.ensure_future(
                http_exchange(
                    gateway, http_post_command(Register(name="mem", app=MEM))
                )
            )
            assert await until(lambda: gateway._admission.qsize() == 1)
            await asyncio.sleep(0.5)  # 2.5 deadlines
            gateway._dispatcher = asyncio.ensure_future(gateway._dispatch())
            status, body = await exchange
            assert (status, body["type"]) == (200, "ack")
            assert gateway.idle_timeouts == 0
            await gateway.stop()

        run(scenario())

    def test_unknown_session_maps_to_404(self):
        gateway = self.make_http_gateway()

        async def scenario():
            await gateway.start()
            status, reply = await http_exchange(
                gateway,
                b"GET /v1/allocation/ghost HTTP/1.1\r\n\r\n",
            )
            assert status == 404
            assert reply["code"] == "unknown-session"
            await gateway.stop()

        run(scenario())


class TestJournalRecovery:
    def test_gateway_recovers_sessions_from_journal(self, tmp_path, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        journal = str(tmp_path / "journal")

        async def first_life():
            gateway = GatewayServer(
                ServiceConfig(machine=model_machine(), debounce=0.01),
                GatewayConfig(port=0),
                journal_path=journal,
            )
            service = await gateway.start()
            reader, writer = await connect(gateway)
            await request(reader, writer, Register(name="mem", app=MEM))
            await asyncio.sleep(0.05)
            # Crash, not drain: the journal keeps the session.
            service.crash()
            writer.close()
            # End the life with no connection handler left running, so
            # the loop's teardown has none to cancel.
            assert await until(lambda: gateway.connection_count == 0)
            gateway._tcp_server.close()
            await gateway._tcp_server.wait_closed()

        async def second_life():
            gateway = GatewayServer(
                ServiceConfig(machine=model_machine(), debounce=0.01),
                GatewayConfig(port=0),
                journal_path=journal,
            )
            service = await gateway.start()
            assert service.recoveries == 1
            assert "mem" in service.registry
            reader, writer = await connect(gateway)
            # The reconcile re-optimization allocates the recovered session.
            assert await until(lambda: "mem" in service.current_allocation())
            update = await request(
                reader, writer, QueryAllocation(name="mem")
            )
            assert isinstance(update, AllocationUpdate)
            writer.close()
            await gateway.stop()

        run(first_life())
        run(second_life())
        assert not [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]


class TestDaemonCli:
    """``python -m repro serve --socket PATH --journal DIR`` end to end."""

    BANNER = "gateway serving allocation protocol on "

    def start(self, *args):
        """Launch ``python -m repro serve *args``; returns the process
        and the listeners its startup banner names."""
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        banner = proc.stdout.readline() if ready else ""
        if not banner.startswith(self.BANNER):
            proc.kill()
            pytest.fail(f"daemon did not start: {banner!r} {proc.communicate()}")
        return proc, banner[len(self.BANNER):].rstrip("\n").split(", ")

    def test_crash_restart_then_interrupt(self, tmp_path):
        sock = str(tmp_path / "daemon.sock")
        journal = str(tmp_path / "journal")

        async def first_life():
            peer = AsyncServiceClient("mem")
            await peer.connect(sock)
            await peer.register(MEM)
            update = await peer.next_pushed(timeout=10.0)
            assert isinstance(update, AllocationUpdate)
            await peer.close()

        async def second_life(proc):
            peer = AsyncServiceClient("mem")
            await peer.connect(sock)
            # The journal brought the session back: no re-register.
            update = await peer.query_allocation()
            assert update.per_node == (8, 8, 8, 8)
            # A session registered on this life is subscribed to pushes
            # and hears the drain.
            late = AsyncServiceClient("cpu")
            await late.connect(sock)
            await late.register(CPU)
            proc.send_signal(signal.SIGINT)
            pushed = await late.next_pushed(timeout=10.0)
            while not isinstance(pushed, ShutdownNotice):
                pushed = await late.next_pushed(timeout=10.0)
            await late.close()
            await peer.close()

        # A graceful drain deregisters every session, so only a
        # crashed daemon leaves one behind in the journal.
        args = ("--socket", sock, "--journal", journal)
        proc, listeners = self.start(*args)
        assert listeners == [sock]  # --socket binds only the unix socket
        try:
            run(first_life())
        finally:
            proc.kill()
            proc.communicate(timeout=20)
        proc, _ = self.start(*args)
        try:
            run(second_life(proc))
            out, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "drained" in out

    def test_sigterm_drains_unix_and_http(self, tmp_path):
        # HTTP beside the unix socket, with no --tcp: loopback host.
        sock = str(tmp_path / "daemon.sock")
        proc, listeners = self.start("--socket", sock, "--http", "0")
        try:
            assert listeners[0] == sock
            host, _, port = listeners[1].removeprefix("HTTP on ").rpartition(":")
            assert host == "127.0.0.1"
            url = f"http://{host}:{port}/healthz"
            with urllib.request.urlopen(url, timeout=10.0) as response:
                assert json.load(response)["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "drained" in out
