"""Open-loop load harness driving the gateway (``python -m repro load``).

The harness measures the *serve path* the way the model bench
(:mod:`repro.analysis.bench`) measures the optimizer: a seeded,
repeatable workload with committed baseline numbers (``BENCH_serve
.json``) gated in CI.  It is **open-loop**: client sessions arrive on a
seeded stochastic schedule that does not slow down when the service
does — the defining property of real traffic, and the reason latency
percentiles (not averages) are the headline numbers.  Each simulated
session connects to a live :class:`~repro.serve.gateway.GatewayServer`,
registers, streams progress reports, deregisters, and retries with
backoff when the gateway sheds it ``overloaded``.

Arrival processes are pure seeded functions of ``(rate, duration,
seed)`` so a schedule can equally drive the DES
:class:`~repro.sim.engine.Simulator` (they return plain offsets in
seconds, clock-agnostic and deterministic):

>>> from repro.serve.load import poisson_arrivals, diurnal_arrivals
>>> sched = poisson_arrivals(rate=100.0, duration=1.0, seed=7)
>>> sched == poisson_arrivals(rate=100.0, duration=1.0, seed=7)
True
>>> all(0 <= t < 1.0 for t in sched)
True
>>> day = diurnal_arrivals(base_rate=10.0, peak_rate=60.0, period=2.0,
...                        duration=4.0, seed=3)
>>> day == sorted(day)
True

What a run reports — p50/p95/p99 command latency, shed/retry counts,
and the re-optimization debounce behaviour (churn events coalesced per
search) — is documented field by field in ``docs/BENCHMARKS.md``; the
walkthrough lives in ``docs/GATEWAY.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import random
import time
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.machine import model_machine
from repro.serve.gateway import GatewayConfig, GatewayServer
from repro.core.spec import AppSpec
from repro.serve.protocol import (
    Ack,
    Deregister,
    ErrorReply,
    ProgressReport,
    Register,
    decode_message,
    encode_message,
)
from repro.serve.service import ServiceConfig

__all__ = [
    "poisson_arrivals",
    "diurnal_arrivals",
    "percentile",
    "LoadScenario",
    "LOAD_SCENARIOS",
    "LoadReport",
    "run_load",
]

#: JSON schema tag stamped on every load report (``BENCH_serve.json``).
_SCHEMA = "repro-serve-bench/1"

#: Seconds a client waits for one reply line before giving up on the
#: session (a CI-hang guard, far above any sane latency SLO).
_REPLY_TIMEOUT = 30.0


def poisson_arrivals(
    rate: float, duration: float, seed: int
) -> tuple[float, ...]:
    """Homogeneous Poisson arrival offsets over ``[0, duration)``.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``;
    the same ``(rate, duration, seed)`` always yields the same
    schedule, on any clock (the offsets are plain seconds).
    """
    if rate <= 0:
        raise ServiceError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ServiceError(f"duration must be positive, got {duration}")
    rng = random.Random(seed)
    out: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return tuple(out)


def diurnal_arrivals(
    base_rate: float,
    peak_rate: float,
    period: float,
    duration: float,
    seed: int,
) -> tuple[float, ...]:
    """Nonhomogeneous Poisson offsets with a sinusoidal daily profile.

    The instantaneous rate swings between ``base_rate`` (trough, at
    ``t = 0``) and ``peak_rate`` (crest, half a ``period`` later):
    ``rate(t) = base + (peak - base) * (1 - cos(2*pi*t/period)) / 2``.
    Sampled by thinning: candidates are drawn at the constant
    ``peak_rate`` and kept with probability ``rate(t)/peak_rate``,
    which is exact for any bounded rate function.  Deterministic in
    ``seed`` like :func:`poisson_arrivals`.
    """
    if base_rate <= 0:
        raise ServiceError(
            f"base_rate must be positive, got {base_rate}"
        )
    if peak_rate < base_rate:
        raise ServiceError(
            f"peak_rate must be >= base_rate, "
            f"got {peak_rate} < {base_rate}"
        )
    if period <= 0:
        raise ServiceError(f"period must be positive, got {period}")
    if duration <= 0:
        raise ServiceError(f"duration must be positive, got {duration}")
    rng = random.Random(seed)
    out: list[float] = []
    t = rng.expovariate(peak_rate)
    while t < duration:
        rate_t = base_rate + (peak_rate - base_rate) * (
            1.0 - math.cos(2.0 * math.pi * t / period)
        ) / 2.0
        if rng.random() < rate_t / peak_rate:
            out.append(t)
        t += rng.expovariate(peak_rate)
    return tuple(out)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    >>> percentile([5.0], 99)
    5.0
    """
    if not values:
        raise ServiceError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ServiceError(f"percentile must be in [0, 100], got {q}")
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    rank = (q / 100.0) * (len(xs) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(xs) - 1)
    frac = rank - low
    return xs[low] * (1.0 - frac) + xs[high] * frac


@dataclass(frozen=True)
class LoadScenario:
    """One named open-loop workload against a gateway-fronted service.

    Arrival side: ``arrival`` picks the process (``"poisson"`` uses
    ``rate``; ``"diurnal"`` additionally uses ``peak_rate`` and
    ``period``) over ``duration`` seconds.  Each arrival is one client
    session: register, ``reports_per_session`` progress reports spaced
    ``report_interval`` apart, deregister — retrying ``overloaded``
    sheds up to ``max_retries`` times with linear ``retry_backoff``.

    Service side: the gateway runs an admission-capped
    (``max_sessions``) service in ``mode`` with the given ``debounce``,
    behind a token bucket (``bucket_rate``/``bucket_burst``), a bounded
    admission queue (``admission_limit``), a connection cap
    (``max_connections``), and an ``idle_deadline``.

    SLO side: a run *passes* when the overall command-latency p99
    stays at or under ``slo_p99_ms`` milliseconds and at least
    ``min_admitted`` sessions made it through admission (so an
    accidentally-empty run cannot pass vacuously).
    """

    name: str
    description: str
    arrival: str
    rate: float
    duration: float
    reports_per_session: int
    report_interval: float
    peak_rate: float | None = None
    period: float | None = None
    max_sessions: int = 6
    mode: str = "delta"
    debounce: float = 0.02
    service_report_interval: float = 0.1
    bucket_rate: float | None = None
    bucket_burst: int = 64
    admission_limit: int = 512
    max_connections: int = 512
    idle_deadline: float = 5.0
    max_retries: int = 2
    retry_backoff: float = 0.05
    slo_p99_ms: float = 250.0
    min_admitted: int = 10

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "diurnal"):
            raise ServiceError(
                f"arrival must be 'poisson' or 'diurnal', "
                f"got {self.arrival!r}"
            )
        if self.arrival == "diurnal" and (
            self.peak_rate is None or self.period is None
        ):
            raise ServiceError(
                "diurnal arrivals need peak_rate and period"
            )
        if self.reports_per_session < 0:
            raise ServiceError(
                f"reports_per_session must be >= 0, "
                f"got {self.reports_per_session}"
            )
        if self.max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.slo_p99_ms <= 0:
            raise ServiceError(
                f"slo_p99_ms must be positive, got {self.slo_p99_ms}"
            )

    def arrival_times(self, seed: int) -> tuple[float, ...]:
        """The session-arrival offsets this scenario generates."""
        if self.arrival == "poisson":
            return poisson_arrivals(self.rate, self.duration, seed)
        assert self.peak_rate is not None and self.period is not None
        return diurnal_arrivals(
            self.rate, self.peak_rate, self.period, self.duration, seed
        )

    def service_config(self) -> ServiceConfig:
        """The :class:`~repro.serve.service.ServiceConfig` to run."""
        return ServiceConfig(
            machine=model_machine(),
            debounce=self.debounce,
            report_interval=self.service_report_interval,
            max_sessions=self.max_sessions,
            mode=self.mode,
        )

    def gateway_config(self, *, http: bool) -> GatewayConfig:
        """The :class:`~repro.serve.gateway.GatewayConfig` to run."""
        return GatewayConfig(
            port=0,
            http_port=0 if http else None,
            max_connections=self.max_connections,
            rate=self.bucket_rate,
            burst=self.bucket_burst,
            admission_limit=self.admission_limit,
            idle_deadline=self.idle_deadline,
        )


#: The scenario library.  ``open-loop-small`` is the CI preset behind
#: ``BENCH_serve.json``; ``open-loop-large`` is the tens-of-thousands
#: dev-box run (docs/BENCHMARKS.md shows how to run and read it).
LOAD_SCENARIOS: dict[str, LoadScenario] = {
    scenario.name: scenario
    for scenario in (
        LoadScenario(
            name="open-loop-small",
            description=(
                "CI smoke: ~240 Poisson sessions over 2 s against a "
                "6-session service; generous bucket, SLO p99 <= 250 ms"
            ),
            arrival="poisson",
            rate=120.0,
            duration=2.0,
            reports_per_session=3,
            report_interval=0.04,
            max_sessions=6,
            bucket_rate=4000.0,
            bucket_burst=400,
            slo_p99_ms=250.0,
            min_admitted=10,
        ),
        LoadScenario(
            name="open-loop-burst",
            description=(
                "rate-limit stress: 500/s offered against a 150/s "
                "bucket — most commands shed, survivors stay fast"
            ),
            arrival="poisson",
            rate=500.0,
            duration=1.2,
            reports_per_session=2,
            report_interval=0.03,
            max_sessions=4,
            bucket_rate=150.0,
            bucket_burst=60,
            admission_limit=256,
            max_connections=1024,
            max_retries=1,
            retry_backoff=0.02,
            slo_p99_ms=400.0,
            min_admitted=5,
        ),
        LoadScenario(
            name="diurnal-small",
            description=(
                "sinusoidal day: 30/s trough to 180/s crest over three "
                "1 s periods; exercises debounce under a moving rate"
            ),
            arrival="diurnal",
            rate=30.0,
            peak_rate=180.0,
            period=1.0,
            duration=3.0,
            reports_per_session=3,
            report_interval=0.05,
            max_sessions=6,
            bucket_rate=4000.0,
            bucket_burst=400,
            slo_p99_ms=300.0,
            min_admitted=10,
        ),
        LoadScenario(
            name="open-loop-large",
            description=(
                "dev-box scale: ~32k Poisson sessions over 8 s "
                "(tens of thousands of clients; not run in CI)"
            ),
            arrival="poisson",
            rate=4000.0,
            duration=8.0,
            reports_per_session=2,
            report_interval=0.05,
            max_sessions=8,
            bucket_rate=20000.0,
            bucket_burst=2000,
            admission_limit=4096,
            max_connections=8192,
            idle_deadline=10.0,
            max_retries=1,
            retry_backoff=0.02,
            slo_p99_ms=500.0,
            min_admitted=50,
        ),
    )
}


class _Recorder:
    """Mutable tallies one load run accumulates across its sessions."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_type: dict[str, int] = {}
        self.admitted = 0
        self.completed = 0
        self.turned_away = 0
        self.connect_failures = 0
        self.session_errors = 0
        self.retries = 0
        self.pushes = 0
        self.overloaded_replies = 0
        self.error_replies: dict[str, int] = {}

    def record(self, msg_type: str, seconds: float) -> None:
        """One command round-trip of ``msg_type`` taking ``seconds``."""
        self.latencies.append(seconds)
        self.by_type[msg_type] = self.by_type.get(msg_type, 0) + 1

    def record_error(self, code: str | None) -> None:
        """One :class:`~repro.serve.protocol.ErrorReply` received."""
        key = code or "unknown"
        self.error_replies[key] = self.error_replies.get(key, 0) + 1
        if key == "overloaded":
            self.overloaded_replies += 1


@dataclass
class LoadReport:
    """Everything one load run measured (see ``docs/BENCHMARKS.md``).

    The JSON form (:meth:`to_dict`) is what ``python -m repro load
    --out`` writes and what ``BENCH_serve.json`` pins as the committed
    baseline; :meth:`format` renders the same numbers as the
    human-readable table the CLI prints by default.
    """

    scenario: str
    seed: int
    transport: str
    wall_seconds: float
    sessions: dict = field(default_factory=dict)
    commands: dict = field(default_factory=dict)
    latency_ms: dict = field(default_factory=dict)
    shed: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    slo: dict = field(default_factory=dict)
    host: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether the run met its SLO (the CLI's exit-code gate)."""
        return bool(self.slo.get("passed"))

    def to_dict(self) -> dict:
        """JSON-safe form (``BENCH_serve.json`` layout)."""
        return {
            "schema": _SCHEMA,
            "scenario": self.scenario,
            "seed": self.seed,
            "transport": self.transport,
            "host": dict(self.host),
            "wall_seconds": self.wall_seconds,
            "sessions": dict(self.sessions),
            "commands": dict(self.commands),
            "latency_ms": dict(self.latency_ms),
            "shed": dict(self.shed),
            "service": dict(self.service),
            "slo": dict(self.slo),
        }

    def to_json(self) -> str:
        """The report as indented JSON."""
        return json.dumps(self.to_dict(), indent=2)

    def format(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"load scenario '{self.scenario}' "
            f"(seed {self.seed}, {self.transport}) — "
            f"{self.wall_seconds:.2f} s wall",
            "",
            f"  host       {self.host.get('cpu_model', 'not recorded')}, "
            f"{self.host.get('effective_cpus', '?')} effective CPUs, "
            f"Python {self.host.get('python', '?')}, "
            f"NumPy {self.host.get('numpy', '?')}",
            f"  sessions   target {self.sessions.get('target', 0)}, "
            f"admitted {self.sessions.get('admitted', 0)}, "
            f"completed {self.sessions.get('completed', 0)}, "
            f"turned away {self.sessions.get('turned_away', 0)}",
            f"  commands   {self.commands.get('measured', 0)} measured, "
            f"{self.commands.get('retries', 0)} retries, "
            f"{self.commands.get('pushes', 0)} pushes",
            f"  latency    p50 {self.latency_ms.get('p50', 0.0):.2f} ms, "
            f"p95 {self.latency_ms.get('p95', 0.0):.2f} ms, "
            f"p99 {self.latency_ms.get('p99', 0.0):.2f} ms, "
            f"max {self.latency_ms.get('max', 0.0):.2f} ms",
            f"  shed       gateway {self.shed.get('gateway', 0)} "
            f"(rate-limited {self.shed.get('rate_limited', 0)}, "
            f"queue-full {self.shed.get('queue_full', 0)}), "
            f"sessions-cap {self.shed.get('sessions_cap', 0)}, "
            f"service {self.shed.get('service', 0)}, "
            f"client-observed {self.shed.get('client_observed', 0)}",
            f"  service    {self.service.get('reoptimizations', 0)} "
            f"re-optimizations for "
            f"{self.service.get('churn_epochs', 0)} churn epochs "
            f"(x{self.service.get('coalescing', 0.0):.1f} coalescing), "
            f"{self.service.get('degraded', 0)} degraded",
            f"  SLO        p99 <= {self.slo.get('p99_ms', 0.0):.0f} ms: "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


class _Fleet:
    """The client fleet of one run: spawns sessions on the schedule."""

    def __init__(
        self,
        scenario: LoadScenario,
        server: GatewayServer,
        seed: int,
        transport: str,
    ) -> None:
        self.scenario = scenario
        self.server = server
        self.seed = seed
        self.transport = transport
        self.recorder = _Recorder()

    async def run(self) -> None:
        """Spawn every session at its arrival offset; await them all."""
        loop = asyncio.get_running_loop()
        arrivals = self.scenario.arrival_times(self.seed)
        start = loop.time()
        tasks: list[asyncio.Task] = []
        for index, offset in enumerate(arrivals):
            delay = (start + offset) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(self._session(index))
            )
        if tasks:
            await asyncio.gather(*tasks)

    def _spec(self, index: int) -> AppSpec:
        """Deterministic per-session app spec (paper's two intensities)."""
        return AppSpec(
            name=f"load-{index}",
            arithmetic_intensity=0.5 if index % 2 == 0 else 10.0,
        )

    async def _session(self, index: int) -> None:
        if self.transport == "http":
            await self._http_session(index)
        else:
            await self._tcp_session(index)

    # -- TCP sessions ---------------------------------------------------

    async def _tcp_session(self, index: int) -> None:
        scenario = self.scenario
        rec = self.recorder
        rng = random.Random((self.seed << 20) ^ index)
        host, port = self.server.tcp_address
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            rec.connect_failures += 1
            return
        loop = asyncio.get_running_loop()
        name = f"load-{index}"
        try:
            reply = await self._tcp_request(
                reader, writer, Register(name=name, app=self._spec(index)),
                rng,
            )
            if not isinstance(reply, Ack):
                rec.turned_away += 1
                return
            rec.admitted += 1
            for _ in range(scenario.reports_per_session):
                await asyncio.sleep(scenario.report_interval)
                await self._tcp_request(
                    reader,
                    writer,
                    ProgressReport(
                        name=name,
                        time=loop.time(),
                        cpu_load=0.5,
                    ),
                    rng,
                )
            reply = await self._tcp_request(
                reader, writer, Deregister(name=name), rng
            )
            if isinstance(reply, Ack):
                rec.completed += 1
        except (ServiceError, ConnectionError, asyncio.TimeoutError):
            rec.session_errors += 1
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _tcp_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        message,
        rng: random.Random,
    ):
        """One command with shed-retry; returns the final reply."""
        scenario = self.scenario
        rec = self.recorder
        loop = asyncio.get_running_loop()
        reply = None
        for attempt in range(scenario.max_retries + 1):
            sent = loop.time()
            writer.write(
                (encode_message(message) + "\n").encode("utf-8")
            )
            await writer.drain()
            # Not a retry loop: one iteration per stream line until the
            # in_reply_to-tagged reply arrives (pushes are buffered).
            while True:  # repro: noqa[RETRY001]
                line = await asyncio.wait_for(
                    reader.readline(), timeout=_REPLY_TIMEOUT
                )
                if not line:
                    raise ServiceError(
                        "connection closed while awaiting a reply"
                    )
                reply = decode_message(line.decode("utf-8"))
                if getattr(reply, "in_reply_to", None) is not None:
                    break
                rec.pushes += 1
            rec.record(message.TYPE, loop.time() - sent)
            if not isinstance(reply, ErrorReply):
                return reply
            rec.record_error(reply.code)
            if (
                reply.code != "overloaded"
                or attempt >= scenario.max_retries
            ):
                return reply
            rec.retries += 1
            backoff = scenario.retry_backoff * (attempt + 1)
            await asyncio.sleep(backoff * (0.5 + rng.random()))
        return reply

    # -- HTTP sessions --------------------------------------------------

    async def _http_session(self, index: int) -> None:
        scenario = self.scenario
        rec = self.recorder
        rng = random.Random((self.seed << 20) ^ index)
        loop = asyncio.get_running_loop()
        name = f"load-{index}"
        try:
            reply = await self._http_request(
                Register(name=name, app=self._spec(index)), rng
            )
            if not isinstance(reply, Ack):
                rec.turned_away += 1
                return
            rec.admitted += 1
            for _ in range(scenario.reports_per_session):
                await asyncio.sleep(scenario.report_interval)
                await self._http_request(
                    ProgressReport(
                        name=name,
                        time=loop.time(),
                        cpu_load=0.5,
                    ),
                    rng,
                )
            reply = await self._http_request(Deregister(name=name), rng)
            if isinstance(reply, Ack):
                rec.completed += 1
        except (ServiceError, ConnectionError, asyncio.TimeoutError, OSError):
            rec.session_errors += 1

    async def _http_request(self, message, rng: random.Random):
        """One command as an HTTP POST with shed-retry."""
        scenario = self.scenario
        rec = self.recorder
        loop = asyncio.get_running_loop()
        host, port = self.server.http_address
        body = encode_message(message).encode("utf-8")
        reply = None
        for attempt in range(scenario.max_retries + 1):
            sent = loop.time()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                head = (
                    f"POST /v1/command HTTP/1.1\r\n"
                    f"host: {host}:{port}\r\n"
                    f"content-type: application/json\r\n"
                    f"content-length: {len(body)}\r\n"
                    f"connection: close\r\n\r\n"
                ).encode("latin-1")
                writer.write(head + body)
                await writer.drain()
                payload = await asyncio.wait_for(
                    self._read_http_body(reader), timeout=_REPLY_TIMEOUT
                )
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
            reply = decode_message(payload)
            rec.record(message.TYPE, loop.time() - sent)
            if not isinstance(reply, ErrorReply):
                return reply
            rec.record_error(reply.code)
            if (
                reply.code != "overloaded"
                or attempt >= scenario.max_retries
            ):
                return reply
            rec.retries += 1
            backoff = scenario.retry_backoff * (attempt + 1)
            await asyncio.sleep(backoff * (0.5 + rng.random()))
        return reply

    @staticmethod
    async def _read_http_body(reader: asyncio.StreamReader) -> str:
        """The JSON body of one ``Connection: close`` HTTP response."""
        status_line = await reader.readline()
        if not status_line:
            raise ServiceError("connection closed before the response")
        length: int | None = None
        # Not a retry loop: one iteration per header line, ended by the
        # blank separator (or EOF).
        while True:  # repro: noqa[RETRY001]
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length is None:
            raise ServiceError("response carried no content-length")
        payload = await reader.readexactly(length)
        return payload.decode("utf-8")


async def _run_async(
    scenario: LoadScenario, seed: int, transport: str
) -> tuple[_Recorder, GatewayServer, dict]:
    """Run one scenario against an in-process gateway; returns tallies."""
    server = GatewayServer(
        scenario.service_config(),
        scenario.gateway_config(http=transport == "http"),
    )
    service = await server.start()
    fleet = _Fleet(scenario, server, seed, transport)
    try:
        await fleet.run()
        # Let the trailing debounce window fire so the last burst of
        # departures is folded into a final re-optimization.
        await asyncio.sleep(scenario.debounce * 2)
    finally:
        counters = {
            "reoptimizations": service.reoptimizations,
            "degraded": service.degraded_reoptimizations,
            "delta": service.delta_reoptimizations,
            "churn_epochs": service.registry.epoch,
            "service_shed": service.shed_commands,
            "sessions_cap": service.rejected_sessions,
            "final_sessions": len(service.registry),
        }
        await server.stop()
    return fleet.recorder, server, counters


def run_load(
    scenario_name: str,
    *,
    seed: int = 0,
    transport: str = "tcp",
    max_p99_ms: float | None = None,
) -> LoadReport:
    """Run one named scenario and report latency, sheds, and debounce.

    ``transport`` picks how sessions speak to the gateway: ``"tcp"``
    (persistent NDJSON streams, the default) or ``"http"`` (one
    HTTP/1.1 request per command through the adapter).  ``max_p99_ms``
    overrides the scenario's SLO threshold — the CI gate passes the
    committed baseline's headroom here.
    """
    scenario = LOAD_SCENARIOS.get(scenario_name)
    if scenario is None:
        raise ServiceError(
            f"unknown load scenario {scenario_name!r} "
            f"(known: {sorted(LOAD_SCENARIOS)})"
        )
    if transport not in ("tcp", "http"):
        raise ServiceError(
            f"transport must be 'tcp' or 'http', got {transport!r}"
        )
    wall_start = time.perf_counter()
    recorder, server, counters = asyncio.run(
        _run_async(scenario, seed, transport)
    )
    wall = time.perf_counter() - wall_start
    target = len(scenario.arrival_times(seed))
    lat_ms = [s * 1000.0 for s in recorder.latencies]
    if lat_ms:
        latency = {
            "count": len(lat_ms),
            "mean": sum(lat_ms) / len(lat_ms),
            "p50": percentile(lat_ms, 50),
            "p95": percentile(lat_ms, 95),
            "p99": percentile(lat_ms, 99),
            "max": max(lat_ms),
        }
    else:
        latency = {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
            "p99": 0.0, "max": 0.0,
        }
    threshold = (
        max_p99_ms if max_p99_ms is not None else scenario.slo_p99_ms
    )
    passed = (
        latency["count"] > 0
        and latency["p99"] <= threshold
        and recorder.admitted >= scenario.min_admitted
    )
    reopts = counters["reoptimizations"]
    # Imported here: the analysis package is heavy, and the service
    # process imports this module through repro.serve.
    from repro.analysis.bench import host_stamp

    return LoadReport(
        scenario=scenario.name,
        seed=seed,
        transport=transport,
        wall_seconds=wall,
        sessions={
            "target": target,
            "admitted": recorder.admitted,
            "completed": recorder.completed,
            "turned_away": recorder.turned_away,
            "connect_failures": recorder.connect_failures,
            "session_errors": recorder.session_errors,
        },
        commands={
            "measured": latency["count"],
            "by_type": dict(sorted(recorder.by_type.items())),
            "retries": recorder.retries,
            "pushes": recorder.pushes,
            "dispatched": server.commands,
            "http_requests": server.http_requests,
            "error_replies": dict(sorted(recorder.error_replies.items())),
        },
        latency_ms=latency,
        shed={
            "gateway": server.shed,
            "rate_limited": server.rate_limited,
            "queue_full": server.queue_full,
            "rejected_connections": server.rejected_connections,
            "idle_timeouts": server.idle_timeouts,
            "sessions_cap": counters["sessions_cap"],
            "service": counters["service_shed"],
            "client_observed": recorder.overloaded_replies,
        },
        service={
            "reoptimizations": reopts,
            "degraded": counters["degraded"],
            "delta": counters["delta"],
            "churn_epochs": counters["churn_epochs"],
            "coalescing": (
                counters["churn_epochs"] / reopts if reopts else 0.0
            ),
            "final_sessions": counters["final_sessions"],
        },
        slo={
            "p99_ms": threshold,
            "latency_p99_ms": latency["p99"],
            "min_admitted": scenario.min_admitted,
            "passed": passed,
        },
        host=host_stamp(),
    )
