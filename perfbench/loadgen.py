"""Seeded load generator: one asyncio loop, at most two connections.

Every session is multiplexed onto one of the connections
(:func:`~perfbench.workloads.connection_of`), and the gateway streams
each session's pushes back on the connection that registered it.  The
generator is kept cheap so the service, not the generator, is what a
run measures:

* request lines are pre-encoded per session; a progress report only
  splices in its timestamp, acked epoch and step counter;
* replies are parsed with :func:`json.loads` and matched by
  ``(in_reply_to, name)`` -- never with the service's full
  ``decode_message`` -- because the gateway answers sheds ahead of
  commands already queued, so arrival order is not send order.  Error
  replies carry no name and match the oldest outstanding command of
  their type;
* lines queued while a read chunk is processed, or due at the same
  instant, leave in one write.

Timestamps are ``time.monotonic()``, the clock the service's event
loop runs on, so report times and registration times are comparable
across the two processes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import time
from collections import Counter, deque

from perfbench.workloads import (
    DEREGISTER,
    QUERY,
    REGISTER,
    REPORT,
    connection_of,
)

__all__ = ["Driver"]

_now = time.monotonic

#: Connections the generator opens (the host has two CPUs).
CONNECTIONS = 2


class Session:
    """Client-side state of one registration."""

    __slots__ = (
        "name", "spec", "conn", "due", "timed", "measured", "acked",
        "epoch", "first_alloc", "steps", "live", "reg", "dereg", "query",
        "head",
    )

    def __init__(self, name: str, spec: dict, conn: "Conn") -> None:
        self.name = name
        self.spec = spec
        self.conn = conn
        self.due = 0.0          # when its register was due
        self.timed = False      # registered inside the timed window
        self.measured = False   # its first allocation is a sample
        self.acked: int | None = None   # epoch its register produced
        self.epoch: int | None = None   # newest allocation epoch applied
        self.first_alloc: float | None = None
        self.steps = 0
        self.live = False
        quoted = json.dumps(name)
        self.reg = (
            '{"type":"register","name":%s,"app":%s}\n'
            % (quoted, json.dumps(spec))
        ).encode()
        self.dereg = ('{"type":"deregister","name":%s}\n' % quoted).encode()
        self.query = (
            '{"type":"query-allocation","name":%s}\n' % quoted
        ).encode()
        self.head = (
            '{"type":"progress-report","name":%s,"cpu_load":0.5,"time":'
            % quoted
        ).encode()

    def report(self, now: float) -> bytes:
        """One progress-report line stamped ``now``."""
        self.steps += 1
        epoch = b"null" if self.epoch is None else b"%d" % self.epoch
        return b"%s%s,\"acked_epoch\":%s,\"progress\":{\"steps\":%d}}\n" % (
            self.head, repr(now).encode(), epoch, self.steps
        )


class Conn:
    """One TCP connection carrying many sessions' commands and pushes."""

    def __init__(self, driver: "Driver", reader, writer) -> None:
        self.driver = driver
        self.reader = reader
        self.writer = writer
        #: (kind, name) -> FIFO of (kind, session, due, timed)
        self.pending: dict[tuple[str, str], deque] = {}
        self.outstanding = 0
        self.out: list[bytes] = []
        self.task: asyncio.Task | None = None

    def send(self, kind: str, session: Session, line: bytes, due: float,
             timed: bool) -> None:
        """Queue one command; :meth:`flush` writes it."""
        key = (kind, session.name)
        queue = self.pending.get(key)
        if queue is None:
            queue = self.pending[key] = deque()
        queue.append((kind, session, due, timed))
        self.outstanding += 1
        self.out.append(line)

    def flush(self) -> None:
        """Write every queued line in one go."""
        if self.out:
            self.writer.write(b"".join(self.out))
            self.out.clear()

    def take(self, kind: str, name: str):
        """The oldest outstanding command ``(kind, name)``, or None."""
        queue = self.pending.get((kind, name))
        if not queue:
            return None
        self.outstanding -= 1
        return queue.popleft()

    def take_oldest(self, kind: str):
        """The oldest outstanding command of ``kind`` (error replies)."""
        best = None
        for (k, _), queue in self.pending.items():
            if k == kind and queue and (best is None or queue[0][2] < best[0][2]):
                best = queue
        if best is None:
            return None
        self.outstanding -= 1
        return best.popleft()

    async def read_loop(self) -> None:
        """Parse every line the gateway sends until it closes."""
        driver = self.driver
        buf = b""
        while True:
            data = await self.reader.read(1 << 16)
            if not data:
                return
            now = _now()
            lines = (buf + data).split(b"\n")
            buf = lines.pop()
            for line in lines:
                driver.on_message(self, json.loads(line), now)
            self.flush()


class Driver:
    """Runs one workload's traffic and keeps everything it observed.

    Attributes read by the run afterwards: ``membership`` (register /
    deregister acks as ``(epoch, kind, name, spec)``), ``pushes``
    (epoch -> name -> ``(per_node, score, degraded)``),
    ``latency`` (seconds, timed commands only), ``lag`` (seconds the
    generator sent late), ``attempted``/``failed`` (timed commands),
    ``completed`` (replies inside the window) and ``problems`` (output
    check failures noticed while running).
    """

    def __init__(self, specs: dict[str, dict]) -> None:
        self.specs = specs
        self.conns: list[Conn] = []
        self.sessions: dict[str, Session] = {}
        self.registrations: list[Session] = []
        self.membership: list[tuple[int, str, str, dict | None]] = []
        self.pushes: dict[int, dict[str, tuple]] = {}
        self.latency: list[float] = []
        self.lag: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.skipped_beats = 0
        #: error replies by code
        self.error_codes: Counter = Counter()
        self.problems: list[str] = []
        self.window_end = math.inf
        #: registry epoch every report ack must carry (no churn)
        self.steady_epoch: int | None = None

    # -- connections ----------------------------------------------------

    async def connect(self, port: int) -> None:
        """Open the generator's connections to the gateway."""
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            conn = Conn(self, reader, writer)
            conn.task = asyncio.ensure_future(conn.read_loop())
            self.conns.append(conn)

    async def close(self) -> None:
        """Close every connection and wait for its reader to finish."""
        for conn in self.conns:
            conn.writer.close()
        for conn in self.conns:
            with contextlib.suppress(ConnectionError):
                await conn.writer.wait_closed()
            if conn.task is not None:
                try:
                    await asyncio.wait_for(conn.task, 5.0)
                except asyncio.TimeoutError:
                    conn.task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await conn.task

    # -- sending --------------------------------------------------------

    def _send(self, kind, session, line, due, timed) -> None:
        if timed:
            self.attempted += 1
        session.conn.send(kind, session, line, due, timed)

    def register(self, name: str, due: float, timed: bool,
                 measured: bool) -> Session:
        """Send a register for ``name`` (a fresh registration)."""
        conn = self.conns[connection_of(name, len(self.conns))]
        session = Session(name, self.specs[name], conn)
        session.due, session.timed, session.live = due, timed, True
        session.measured = measured
        self.sessions[name] = session
        self.registrations.append(session)
        self._send(REGISTER, session, session.reg, due, timed)
        return session

    def deregister(self, name: str, due: float, timed: bool) -> None:
        """Send a deregister for ``name``'s live registration."""
        session = self.sessions[name]
        session.live = False
        self._send(DEREGISTER, session, session.dereg, due, timed)

    def flush(self) -> None:
        """Write everything queued on every connection."""
        for conn in self.conns:
            conn.flush()

    # -- receiving ------------------------------------------------------

    def on_message(self, conn: Conn, msg: dict, now: float) -> None:
        """Dispatch one line from the gateway."""
        kind = msg.get("in_reply_to")
        mtype = msg["type"]
        if kind is None:
            if mtype == "allocation":
                self._on_push(msg, now)
            else:
                self.problems.append(f"unsolicited {mtype}: {msg}")
            return
        pending = (
            conn.take_oldest(kind) if mtype == "error"
            else conn.take(kind, msg["name"])
        )
        if pending is None:
            self.problems.append(f"unmatched {mtype} reply to {kind}")
            return
        _, session, due, timed = pending
        if timed:
            self.latency.append(now - due)
            if now <= self.window_end:
                self.completed += 1
        if mtype == "error":
            self.error_codes[msg.get("code")] += 1
            if timed:
                self.failed += 1
            else:
                self.problems.append(f"{kind} of '{session.name}' refused: {msg}")
        elif kind == REGISTER:
            session.acked = msg["epoch"]
            self.membership.append((msg["epoch"], REGISTER, session.name, session.spec))
        elif kind == DEREGISTER:
            self.membership.append((msg["epoch"], DEREGISTER, session.name, None))
        elif kind == QUERY:
            self._check_query(session, msg)
        elif self.steady_epoch is not None and msg["epoch"] != self.steady_epoch:
            self.problems.append(
                f"report ack of '{session.name}' at epoch {msg['epoch']}, "
                f"expected {self.steady_epoch}"
            )

    def _on_push(self, msg: dict, now: float) -> None:
        name, epoch = msg["name"], msg["epoch"]
        entry = (tuple(msg["per_node"]), msg["score"], msg["degraded"])
        seen = self.pushes.setdefault(epoch, {}).setdefault(name, entry)
        if seen != entry:
            self.problems.append(
                f"'{name}' was pushed two allocations for epoch {epoch}"
            )
        session = self.sessions.get(name)
        if session is None or session.acked is None or epoch < session.acked:
            return
        if session.epoch is None or epoch > session.epoch:
            session.epoch = epoch
        if session.first_alloc is None:
            session.first_alloc = now
            # Confirm the pushed answer by reading it back.
            self._send(QUERY, session, session.query, now, session.timed)

    def _check_query(self, session: Session, msg: dict) -> None:
        pushed = self.pushes.get(msg["epoch"], {}).get(session.name)
        if pushed is None or pushed[:2] != (tuple(msg["per_node"]), msg["score"]):
            self.problems.append(
                f"query of '{session.name}' answered {msg['per_node']} at "
                f"epoch {msg['epoch']}, but the push was {pushed}"
            )

    # -- phases ---------------------------------------------------------

    def unsettled(self) -> int:
        """Outstanding commands plus live sessions still unallocated."""
        waiting = sum(conn.outstanding for conn in self.conns)
        return waiting + sum(
            1
            for s in self.sessions.values()
            if s.live and s.acked is not None and s.first_alloc is None
        )

    async def settle(self, timeout: float) -> bool:
        """Wait until :meth:`unsettled` is 0; False on timeout."""
        deadline = _now() + timeout
        while self.unsettled():
            if _now() > deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def arrive(self, names, timeout: float, *,
                     measured: bool = False) -> bool:
        """Register ``names`` (untimed); wait for every allocation."""
        now = _now()
        for name in names:
            self.register(name, now, timed=False, measured=measured)
        self.flush()
        return await self.settle(timeout)

    async def probe(self, probes, timeout: float) -> bool:
        """Make each ``(leaving, arriving)`` replacement in turn, each
        waiting for the newcomer's allocation; those first allocations
        are samples."""
        for leaving, arriving in probes:
            self.deregister(leaving, _now(), timed=False)
            if not await self.arrive((arriving,), timeout, measured=True):
                return False
        return True

    async def run_open(self, events, start: float, seconds: float) -> None:
        """Send ``events`` on schedule, whatever the service's pace."""
        self.window_end = start + seconds
        if not any(kind in (REGISTER, DEREGISTER) for _, kind, _ in events):
            self.steady_epoch = max(
                s.epoch for s in self.sessions.values() if s.live
            )
        for due, kind, name in events:
            at = start + due
            delay = at - _now()
            if delay > 0:
                self.flush()
                await asyncio.sleep(delay)
            now = _now()
            self.lag.append(now - at)
            if kind == REGISTER:
                self.register(name, at, timed=True, measured=True)
            elif kind == DEREGISTER:
                self.deregister(name, at, timed=True)
            else:
                session = self.sessions[name]
                if session.acked is None:
                    # Registered but not acknowledged yet: a report now
                    # could predate its admission.  Skip this beat.
                    self.skipped_beats += 1
                    continue
                line = session.query if kind == QUERY else session.report(now)
                self._send(kind, session, line, at, True)
        self.flush()
        delay = self.window_end - _now()
        if delay > 0:
            await asyncio.sleep(delay)

    async def teardown(self, timeout: float) -> bool:
        """Deregister every live session (untimed) and wait for acks."""
        now = _now()
        for session in list(self.sessions.values()):
            if session.live:
                self.deregister(session.name, now, timed=False)
        self.flush()
        return await self.settle(timeout)

    # -- results --------------------------------------------------------

    def first_allocations(self) -> list[float]:
        """Register-due -> first-push seconds of every measured
        registration that got its first allocation."""
        return [
            s.first_alloc - s.due
            for s in self.registrations
            if s.measured and s.first_alloc is not None
        ]

    def missing_allocations(self) -> int:
        """Timed registrations that never received an allocation."""
        return sum(
            1 for s in self.registrations if s.timed and s.first_alloc is None
        )

    def timed_out(self) -> int:
        """Timed commands still unanswered."""
        return sum(
            1
            for conn in self.conns
            for queue in conn.pending.values()
            for entry in queue
            if entry[3]
        )
