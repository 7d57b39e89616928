"""Seeded service scenarios for the allocation service (DES clock).

``python -m repro serve --scenario <name>`` runs the live service
against a scripted sequence of join/leave events replayed on the
discrete-event :class:`~repro.sim.engine.Simulator`: the service's
``clock``/``call_later`` are the simulation clock, every admitted
session runs a periodic report loop through a real
:class:`~repro.agent.protocol.RuntimeEndpoint` (optionally wrapped in a
fault-injecting :class:`~repro.faults.proxy.InjectionProxy`, as in the
``serve-crash`` drill), and every run is exactly reproducible from its
``(scenario, seed)`` pair.

Each scenario is a :class:`Replay` record holding only what sets it
apart: its churn script, timings, scripted actions and named pass
criteria.  One runner, :meth:`Replay.run`, runs them all and builds
every :class:`ChurnReport`.  The headline check, shared by all
scenarios, is that the service's final allocation for the surviving
workload equals the *offline* optimizer's answer computed from scratch,
with byte-identical scalar scores.  Live churn must not cost
correctness.  Every scenario also runs in either service mode (``--mode
full`` or ``--mode delta``) against the *same* from-scratch oracle,
which is how the incremental :class:`~repro.core.delta.DeltaSearch`
path is proven exact under churn.

Scenarios
---------
``churn-basic``
    Joins and leaves spaced wider than the debounce window: every
    event triggers exactly one re-optimization, and the final
    allocation matches the offline answer.
``churn-burst``
    A burst of joins inside one debounce window: the service coalesces
    the burst into a single re-optimization (fewer re-optimizations
    than events) and still matches offline.
``churn-stale``
    Most sessions go silent: the watchdog quarantines them, quorum is
    lost, the service degrades to equal share, and when the sessions
    resume reporting they are reactivated and the optimized answer is
    restored.
``churn-cache``
    A departed application re-registers, restoring an earlier workload
    composition: the second optimization of that composition is served
    from the persistent :class:`~repro.core.fasteval.ScoreCache`
    (cache hits observed).
``serve-crash-restart``
    The service journals every state change
    (:mod:`repro.serve.persist`), is killed at a scripted DES time
    mid-churn — with a torn record appended to the journal tail, as a
    real crash would leave — and is rebuilt with
    :meth:`~repro.serve.service.AllocationService.recover`.  The
    recovered state dump must equal the pre-crash one exactly, churn
    continues against the recovered service, and the final allocation
    must still match the offline oracle.
``serve-crash``
    One session crashes mid-run and another loses allocation commands
    on the wire (one scripted drop, then seeded chaos).  The crashed
    session, and only it, is quarantined; the at-least-once re-push
    loop recovers every dropped command.
``serve-restart``
    The journaled service is killed mid-churn and its journal directory
    corrupted three ways (duplicated segment, stale snapshot, torn
    tail) before recovery.  Recovery deduplicates by ``seq``, falls
    back a snapshot generation, truncates the tail, and still rebuilds
    the exact pre-crash state.
``serve-overload``
    A three-session cap meets three more registrations (refused
    ``overloaded``), a report flood inside a debounce window (shed), a
    deregister mid-flood (acknowledged) and a command queued past
    ``command_deadline`` (refused ``deadline-exceeded``).

Any scenario can additionally run *journaled* (``--journal DIR``):
journaling is a pure observer, so the report is identical to the
un-journaled run apart from the journal counters themselves (pinned by
the golden-digest test in ``tests/test_serve_persist.py``).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.agent.protocol import (
    CommandKind,
    RuntimeEndpoint,
    StatusReport,
    ThreadCommand,
)
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch
from repro.core.spec import AppSpec
from repro.errors import EndpointUnavailable, ServiceError
from repro.machine.presets import model_machine
from repro.serve.persist import Journal, latest_journal_segment
from repro.serve.protocol import (
    AllocationUpdate,
    Deregister,
    ProgressReport,
    Register,
    ShutdownNotice,
)
from repro.serve.service import AllocationService, ServiceConfig
from repro.sim.engine import Simulator

__all__ = [
    "ChurnEvent",
    "ChurnReport",
    "ReplayEndpoint",
    "ReplayDriver",
    "Replay",
    "SERVE_SCENARIOS",
    "run_replay",
]

#: Event priority of service timers on the shared simulator: after the
#: report loops (default 0) at the same instant, so a report stamped
#: "now" is folded in before a re-optimization at the same time.
_SERVICE_PRIORITY = 8


@dataclass(frozen=True)
class ChurnEvent:
    """One scripted membership change.

    ``action`` is ``"join"`` (``app`` required) or ``"leave"``.
    """

    time: float
    action: str
    name: str
    app: AppSpec | None = None

    def __post_init__(self) -> None:
        if self.action not in ("join", "leave"):
            raise ServiceError(
                f"churn action must be 'join' or 'leave', "
                f"got {self.action!r}"
            )
        if self.action == "join" and self.app is None:
            raise ServiceError(f"join event for '{self.name}' needs an app")


@dataclass(frozen=True)
class ChurnReport:
    """Condensed outcome of one churn replay."""

    scenario: str
    seed: int
    passed: bool
    events: int
    reoptimizations: int
    degraded_reoptimizations: int
    retransmits: int
    quarantined: tuple[str, ...]
    cache_hits: int
    cache_misses: int
    final_score: float | None
    offline_score: float | None
    matches_offline: bool
    final_allocation: dict
    notes: tuple[str, ...] = ()
    mode: str = "full"
    delta_reoptimizations: int = 0
    delta_fallbacks: int = 0
    journal_records: int = 0
    recoveries: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form (the ``--json`` record)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": self.mode,
            "passed": self.passed,
            "events": self.events,
            "reoptimizations": self.reoptimizations,
            "degraded_reoptimizations": self.degraded_reoptimizations,
            "delta_reoptimizations": self.delta_reoptimizations,
            "delta_fallbacks": self.delta_fallbacks,
            "retransmits": self.retransmits,
            "quarantined": list(self.quarantined),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "final_score": self.final_score,
            "offline_score": self.offline_score,
            "matches_offline": self.matches_offline,
            "final_allocation": {
                name: list(per_node)
                for name, per_node in self.final_allocation.items()
            },
            "notes": list(self.notes),
            "journal_records": self.journal_records,
            "recoveries": self.recoveries,
        }

    def to_json(self) -> str:
        """The report as a JSON object."""
        return json.dumps(self.to_dict(), indent=2)

    def format(self) -> str:
        """Human-readable replay report."""
        lines = [
            f"serve scenario: {self.scenario} "
            f"(seed {self.seed}, mode {self.mode})",
            f"  churn events:        {self.events}",
            f"  reoptimizations:     {self.reoptimizations} "
            f"({self.degraded_reoptimizations} degraded)",
        ]
        if self.mode == "delta":
            lines.append(
                f"  delta path:          {self.delta_reoptimizations} "
                f"incremental ({self.delta_fallbacks} fell back to full)"
            )
        if self.journal_records or self.recoveries:
            lines.append(
                f"  journal:             {self.journal_records} records, "
                f"{self.recoveries} recoveries"
            )
        lines += [
            f"  retransmits:         {self.retransmits}",
            f"  quarantined:         "
            f"{', '.join(self.quarantined) if self.quarantined else 'none'}",
            f"  score cache:         {self.cache_hits} hits / "
            f"{self.cache_misses} misses",
        ]
        if self.final_score is not None and self.offline_score is not None:
            verdict = "MATCH" if self.matches_offline else "MISMATCH"
            lines.append(
                f"  final vs offline:    {self.final_score:.6f} vs "
                f"{self.offline_score:.6f} ({verdict})"
            )
        for name, per_node in self.final_allocation.items():
            lines.append(f"    {name}: {list(per_node)}")
        lines.extend(f"  {note}" for note in self.notes)
        lines.append(
            f"  result:              {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


class ReplayEndpoint(RuntimeEndpoint):
    """Minimal runtime stand-in for replays: reports progress, records
    every applied command.

    Real runtimes derive their reports from executed tasks; the replay
    endpoint synthesizes a plausible monotone progress stream instead,
    because churn replays exercise the *service*, not the runtime.  The
    :attr:`applied` ledger is the ground truth of what reached the
    runtime — the driver uses its growth (not the absence of an
    exception) to decide which allocation epoch to acknowledge, which
    is what makes silently-dropped chaos commands visible.
    """

    def __init__(self, name: str, num_nodes: int) -> None:
        self.name = name
        self.num_nodes = num_nodes
        self.applied: list[ThreadCommand] = []
        self.reports = 0

    def report(self, time: float) -> StatusReport:
        """Synthesize the runtime's current status."""
        self.reports += 1
        per_node = (
            tuple(int(x) for x in self.applied[-1].per_node)
            if self.applied
            else (0,) * self.num_nodes
        )
        active = sum(per_node)
        return StatusReport(
            runtime_name=self.name,
            time=time,
            tasks_executed=self.reports,
            active_threads=active,
            blocked_threads=0,
            active_per_node=per_node,
            workers_per_node=per_node,
            queue_length=0,
            progress={"reports": float(self.reports)},
            cpu_load=1.0 if active else 0.0,
        )

    def apply(self, command: ThreadCommand) -> None:
        """Record the command as applied."""
        self.applied.append(command)

    @property
    def current_per_node(self) -> tuple[int, ...] | None:
        """Thread counts of the last truly-applied command, or None."""
        if not self.applied:
            return None
        return tuple(int(x) for x in self.applied[-1].per_node)


class _ReplaySession:
    """Driver-side state of one replayed runtime."""

    def __init__(
        self, runtime: ReplayEndpoint, surface: RuntimeEndpoint
    ) -> None:
        #: the raw endpoint whose ``applied`` ledger is ground truth.
        self.runtime = runtime
        #: what the driver talks to: the endpoint itself, or an
        #: InjectionProxy wrapped around it.
        self.surface = surface
        self.acked_epoch: int | None = None
        self.stopped = False


class ReplayDriver:
    """Runs an :class:`AllocationService` against scripted churn.

    The driver plays every role outside the service: it is the
    transport (push callbacks), the runtimes (report loops through
    :class:`ReplayEndpoint`), and the operator (join/leave events), all
    on one shared :class:`~repro.sim.engine.Simulator` so a replay is a
    deterministic function of its inputs.

    With ``journal_path`` set the service writes the
    :mod:`repro.serve.persist` write-ahead journal under that
    directory, and :meth:`crash` / :meth:`recover` replace the service
    with one rebuilt from disk mid-replay.  ``fsync`` defaults off for
    replays: a simulated in-process crash never loses buffered OS
    writes, and the DES clock should not wait on the disk (the real
    daemon in :mod:`repro.serve.gateway` keeps fsync on).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        journal_path: str | None = None,
        compact_every: int | None = 16,
        fsync: bool = False,
    ) -> None:
        self.sim = Simulator()
        self.config = config or ServiceConfig(machine=model_machine())
        self.journal_path = journal_path
        self._compact_every = compact_every
        self._fsync = fsync
        journal = (
            Journal.open(
                journal_path, fsync=fsync, compact_every=compact_every
            )
            if journal_path is not None
            else None
        )
        self.service = AllocationService(
            self.config,
            clock=lambda: self.sim.now,
            call_later=lambda delay, fn: self.sim.schedule(
                delay, fn, priority=_SERVICE_PRIORITY
            ),
            journal=journal,
        )
        self.sessions: dict[str, _ReplaySession] = {}
        #: ``(endpoint) -> surface`` hook: wrap endpoints (e.g. in an
        #: InjectionProxy) before the driver talks to them.
        self.wrap: Callable[[ReplayEndpoint], RuntimeEndpoint] | None = None
        self._horizon: float | None = None
        #: journal records appended by service instances that crashed.
        self.journal_records_prior = 0

    # -- session lifecycle ---------------------------------------------

    def join(self, app: AppSpec) -> _ReplaySession:
        """Admit ``app`` now and start its report loop."""
        runtime = ReplayEndpoint(app.name, self.config.machine.num_nodes)
        surface = self.wrap(runtime) if self.wrap is not None else runtime
        session = _ReplaySession(runtime, surface)
        reply = self.service.handle(Register(name=app.name, app=app))
        if not hasattr(reply, "epoch"):
            raise ServiceError(
                f"join of '{app.name}' rejected: "
                f"{getattr(reply, 'error', reply)}"
            )
        self.sessions[app.name] = session
        self.service.subscribe(
            app.name, lambda message: self._on_push(session, message)
        )
        self._report_tick(session)
        return session

    def leave(self, name: str) -> None:
        """Deregister ``name`` and stop its report loop."""
        session = self.sessions.get(name)
        if session is None:
            raise ServiceError(f"no replayed session '{name}'")
        session.stopped = True
        self.service.handle(Deregister(name=name))

    # -- the runtime side ----------------------------------------------

    def _on_push(self, session: _ReplaySession, message) -> None:
        if isinstance(message, ShutdownNotice):
            session.stopped = True
            return
        if not isinstance(message, AllocationUpdate):
            return
        command = ThreadCommand(
            kind=CommandKind.SET_ALLOCATION, per_node=message.per_node
        )
        before = len(session.runtime.applied)
        try:
            session.surface.apply(command)
        except EndpointUnavailable:
            return  # crashed runtime; the watchdog will quarantine it
        if len(session.runtime.applied) > before:
            # The command truly reached the runtime (a chaos proxy may
            # have dropped or delayed it) — acknowledge the epoch.
            session.acked_epoch = message.epoch

    def _report_tick(self, session: _ReplaySession) -> None:
        if session.stopped:
            return
        now = self.sim.now
        if self._horizon is not None and now > self._horizon:
            return
        try:
            status = session.surface.report(now)
        except EndpointUnavailable:
            status = None  # crashed: no heartbeat this tick
        if status is not None:
            # A stale chaos replay carries an old timestamp; the
            # service rejects it (ErrorReply) and the heartbeat simply
            # does not advance — exactly the stale semantics.
            self.service.handle(
                ProgressReport(
                    name=session.runtime.name,
                    time=status.time,
                    progress=dict(status.progress),
                    cpu_load=status.cpu_load,
                    acked_epoch=session.acked_epoch,
                )
            )
        self.sim.schedule(
            self.config.report_interval,
            lambda: self._report_tick(session),
        )

    # -- crash / recovery ----------------------------------------------

    def crash(self) -> dict:
        """Kill the service abruptly; returns its pre-crash state dump.

        The dead instance's timers become no-ops and its journal
        descriptor is released; the driver keeps running report loops
        that will talk to whatever :meth:`recover` installs next.
        """
        state = self.service.snapshot_state()
        self.journal_records_prior += self.service.journal_records
        self.service.crash()
        return state

    def recover(self) -> dict:
        """Rebuild the service from the journal; returns its state dump.

        Re-subscribes every still-running replay session to the
        recovered service and re-arms the watchdog: the pushes a
        restarted daemon's reconnecting runtimes should get back.  The
        real daemon does not give them yet.  A reconnecting runtime's
        ``register`` names a session the journal already restored, so
        the daemon answers ``duplicate-session``, and the runtime can
        only poll ``query-allocation``.
        """
        if self.journal_path is None:
            raise ServiceError(
                "this driver has no journal_path; nothing to recover"
            )
        self.service = AllocationService.recover(
            self.journal_path,
            self.config,
            clock=lambda: self.sim.now,
            call_later=lambda delay, fn: self.sim.schedule(
                delay, fn, priority=_SERVICE_PRIORITY
            ),
            fsync=self._fsync,
            compact_every=self._compact_every,
        )
        for name, session in self.sessions.items():
            if not session.stopped:
                self.service.subscribe(
                    name,
                    lambda message, s=session: self._on_push(s, message),
                )
        self.service.start_watchdog()
        return self.service.snapshot_state()

    def crash_and_recover(
        self, *, tear_tail: bool = False
    ) -> tuple[dict, dict]:
        """Crash, optionally tear the journal tail, recover; both dumps.

        ``tear_tail`` appends a partial, CRC-less record to the newest
        journal segment — the bytes a mid-append power loss leaves
        behind — so recovery must detect it via CRC and truncate to the
        last valid record.
        """
        pre = self.crash()
        if tear_tail:
            segment = latest_journal_segment(self.journal_path)
            fd = os.open(segment, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, b'{"crc":0,"event":{"kind":"torn')
            finally:
                os.close(fd)
        return pre, self.recover()

    # -- replay ---------------------------------------------------------

    def run(self, events: Sequence[ChurnEvent], duration: float) -> None:
        """Schedule ``events`` and run the simulation to ``duration``."""
        self._horizon = duration
        self.service.start_watchdog()
        for event in events:
            if event.action == "join":
                app = event.app
                assert app is not None  # ChurnEvent validated this
                self.sim.schedule_at(event.time, lambda a=app: self.join(a))
            else:
                self.sim.schedule_at(
                    event.time,
                    lambda n=event.name: self.leave(n),
                )
        self.sim.run_until(duration)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
#: Report-loop period of every replayed runtime (seconds).
_REPORT_INTERVAL = 0.02


@dataclass(frozen=True)
class Replay:
    """One seeded service scenario: only what sets it apart.

    ``events(rng)`` builds the churn script from a ``random.Random``
    seeded with the run's seed.  ``setup(driver, seed, checks)``, when
    given, runs before the replay starts: it schedules scripted actions
    on ``driver.sim`` or sets ``driver.wrap``, and records named pass
    criteria it observes mid-run into the ``checks`` dict.  After the
    replay ``check(driver, events)`` returns the named criteria read
    from the final state, and ``tally(driver)``, when given, one line of
    counts for the report.  ``criteria`` describes them all.  ``knobs``
    holds any further :class:`ServiceConfig` fields; ``journaled`` runs
    the service journaled even when the caller names no journal
    directory.

    :meth:`run` does everything else: it builds the service and the
    driver, runs the replay, turns each failing criterion into a
    ``FAIL: <name>`` note, and ends in the comparison with the offline
    oracle that every scenario shares.
    """

    name: str
    events: Callable[[random.Random], list[ChurnEvent]]
    duration: float
    criteria: str
    check: Callable[[ReplayDriver, Sequence[ChurnEvent]], dict[str, bool]]
    debounce: float = 0.02
    knobs: Mapping[str, object] = field(default_factory=dict)
    journaled: bool = False
    compact_every: int | None = 16
    setup: Callable[[ReplayDriver, int, dict], None] | None = None
    tally: Callable[[ReplayDriver], str] | None = None

    def run(
        self,
        seed: int = 0,
        mode: str = "full",
        journal: str | None = None,
        workers: int = 0,
    ) -> ChurnReport:
        """Replay the scenario once; see :func:`run_replay`."""
        if journal is None and self.journaled:
            with tempfile.TemporaryDirectory(prefix="repro-journal-") as tmp:
                return self.run(seed, mode, tmp, workers)
        driver = ReplayDriver(
            ServiceConfig(
                machine=model_machine(),
                mode=mode,
                workers=workers,
                parallel_min_batch=1 if workers > 0 else None,
                debounce=self.debounce,
                report_interval=_REPORT_INTERVAL,
                **self.knobs,
            ),
            journal_path=journal,
            compact_every=self.compact_every,
        )
        events = self.events(random.Random(seed))
        checks: dict = {}
        if self.setup is not None:
            self.setup(driver, seed, checks)
        driver.run(events, duration=self.duration)
        verdict = {**checks, **self.check(driver, events)}
        notes = (f"criteria: {self.criteria}",)
        if self.tally is not None:
            notes += (self.tally(driver),)
        notes += tuple(
            f"FAIL: {name}" for name, ok in verdict.items() if not ok
        )

        service = driver.service
        final_allocation = service.current_allocation()
        final_score = service.current_score()
        offline_allocation, offline_score = _offline_answer(
            service.config.machine, service.registry.active_specs()
        )
        # Byte-identical criterion: both scores come from the scalar
        # ``predict`` on the winning allocation, so exact ``==`` is the
        # honest comparison — any drift between the live path and the
        # offline path is a bug, not noise.
        matches = (
            final_score == offline_score
            and {
                name: final_allocation.get(name)
                for name in offline_allocation
            }
            == offline_allocation
        )
        cache = service.model.cache
        return ChurnReport(
            scenario=self.name,
            seed=seed,
            mode=mode,
            passed=matches and all(verdict.values()),
            events=len(events),
            reoptimizations=service.reoptimizations,
            degraded_reoptimizations=service.degraded_reoptimizations,
            delta_reoptimizations=service.delta_reoptimizations,
            delta_fallbacks=service.delta_fallbacks,
            retransmits=service.retransmits,
            quarantined=_quarantined(service),
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            final_score=final_score,
            offline_score=offline_score,
            matches_offline=matches,
            final_allocation=final_allocation,
            notes=notes,
            journal_records=(
                service.journal_records + driver.journal_records_prior
            ),
            recoveries=service.recoveries,
        )


def _offline_answer(
    machine, specs: Sequence[AppSpec]
) -> tuple[dict[str, tuple[int, ...]], float | None]:
    """The from-scratch optimizer's allocation for ``specs``."""
    if not specs:
        return {}, None
    search = ExhaustiveSearch(NumaPerformanceModel())
    result = search.search(machine, specs)
    return (
        {
            spec.name: tuple(
                int(x) for x in result.allocation.threads_of(spec.name)
            )
            for spec in specs
        },
        result.score,
    )


def _quarantined(service: AllocationService) -> tuple[str, ...]:
    """Names of the live sessions the watchdog has quarantined."""
    return tuple(
        s.name for s in service.registry.live_sessions() if not s.active
    )


# ----------------------------------------------------------------------
# The scenarios
# ----------------------------------------------------------------------
_ALPHA = AppSpec.memory_bound("alpha")
_BETA = AppSpec.compute_bound("beta")
_GAMMA = AppSpec.memory_bound("gamma", arithmetic_intensity=0.8)
_DELTA = AppSpec.compute_bound("delta", arithmetic_intensity=64.0)


def _jittered(base: float, rng: random.Random) -> float:
    """Deterministically jitter an event time by up to 5 ms."""
    return base + rng.uniform(0.0, 0.005)


def _event(time: float, step: AppSpec | str) -> ChurnEvent:
    """A join of an :class:`AppSpec`, or a leave of a session name."""
    if isinstance(step, AppSpec):
        return ChurnEvent(time, "join", step.name, step)
    return ChurnEvent(time, "leave", step)


def _script(*steps: tuple[float, AppSpec | str], jitter: bool = True):
    """``events(rng)`` for ``(time, app or leaving name)`` steps, each
    time jittered in order unless ``jitter`` is off."""

    def events(rng: random.Random) -> list[ChurnEvent]:
        return [
            _event(_jittered(t, rng) if jitter else t, step)
            for t, step in steps
        ]

    return events


def _burst_events(rng: random.Random) -> list[ChurnEvent]:
    # The burst's base time is drawn first; its three joins sit 3 ms
    # apart, inside one debounce window.
    base = _jittered(0.10, rng)
    return [
        _event(_jittered(0.00, rng), _ALPHA),
        _event(base, _BETA),
        _event(
            base + 0.003,
            AppSpec.memory_bound("gamma", arithmetic_intensity=0.7),
        ),
        _event(
            base + 0.006,
            AppSpec.compute_bound("delta", arithmetic_intensity=80.0),
        ),
    ]


def _stale_setup(driver: ReplayDriver, seed: int, checks: dict) -> None:
    """Silence beta and gamma between t=0.15 and t=0.40.

    Their report loops pause, the watchdog quarantines them, and 1/3
    active drops below the 0.5 quorum -> degraded equal share for alpha.
    """

    def silence(name: str) -> None:
        driver.sessions[name].stopped = True

    def resume(name: str) -> None:
        session = driver.sessions[name]
        session.stopped = False
        driver._report_tick(session)

    for name in ("beta", "gamma"):
        driver.sim.schedule_at(0.15, lambda n=name: silence(n))
        driver.sim.schedule_at(0.40, lambda n=name: resume(n))


def _stale_check(driver, events) -> dict[str, bool]:
    service = driver.service
    active = sorted(s.name for s in service.registry.active_sessions())
    return {
        "silent sessions quarantined": service.quarantines >= 2,
        "quorum loss degraded to equal share": (
            service.degraded_reoptimizations >= 1
        ),
        "every session active again": active == ["alpha", "beta", "gamma"],
    }


def _pool_workers(driver: ReplayDriver) -> int:
    """The scoring pool's size; 0 when the replay scores serially
    (no workers, or no shared memory for the pool to use)."""
    workers = driver.config.workers or 0
    if workers:
        from repro.core.parallel import shared_memory_available

        if not shared_memory_available():
            return 0
    return workers


def _pool_live(workers: int) -> bool:
    from repro.core.parallel import pool_stats

    stats = pool_stats().get(workers)
    return stats is not None and stats["alive"]


def _restart_setup(driver: ReplayDriver, seed: int, checks: dict) -> None:
    """Crash at t=0.22, tear the journal tail, recover.

    A pooled replay also checks the scoring pool's lifecycle across the
    crash: :meth:`~repro.serve.service.AllocationService.crash` releases
    the pool, and the recovered service's first re-optimization
    respawns a fresh one.
    """
    workers = _pool_workers(driver)

    def crash_recover() -> None:
        if workers:
            from repro.core.parallel import pool_stats

            checks["scoring pool live before the crash"] = _pool_live(
                workers
            )
        pre, post = driver.crash_and_recover(tear_tail=True)
        recovery = driver.service.last_recovery
        checks["recovered state dump == pre-crash dump"] = pre == post
        checks["torn tail truncated at the last valid record"] = (
            recovery is not None and recovery.truncated_tail
        )
        if workers:
            checks["crash released the scoring pool"] = (
                workers not in pool_stats()
            )

    driver.sim.schedule_at(0.22, crash_recover)


def _restart_check(driver, events) -> dict[str, bool]:
    service = driver.service
    verdict = {
        "exactly one recovery": service.recoveries == 1,
        "journal written": (
            service.journal_records + driver.journal_records_prior > 0
        ),
    }
    workers = _pool_workers(driver)
    if workers:
        verdict["a fresh scoring pool live after recovery"] = _pool_live(
            workers
        )
    return verdict


def _crash_setup(driver: ReplayDriver, seed: int, checks: dict) -> None:
    """``victim`` crashes at t=0.25; ``flaky`` loses commands.

    ``flaky``'s first command from t=0.05 is dropped by script, so every
    seed drops at least one, and half of the rest at random.
    """
    from repro.faults import (
        ChaosConfig,
        FaultKind,
        FaultPlan,
        FaultSpec,
        InjectionProxy,
    )

    plan = FaultPlan(
        [
            FaultSpec(FaultKind.CRASH, target="victim", at=0.25),
            FaultSpec(FaultKind.DROP_COMMAND, target="flaky", at=0.05),
        ]
    )
    chaos = ChaosConfig(command_drop=0.5, seed=seed)

    def wrap(endpoint: ReplayEndpoint) -> RuntimeEndpoint:
        if endpoint.name == "victim":
            return InjectionProxy(endpoint, driver.sim, plan=plan)
        if endpoint.name == "flaky":
            return InjectionProxy(
                endpoint, driver.sim, plan=plan, chaos=chaos
            )
        return endpoint

    driver.wrap = wrap


def _dropped_commands(driver: ReplayDriver) -> int:
    from repro.faults import FaultKind

    injected = driver.sessions["flaky"].surface.injected
    return sum(fault.kind is FaultKind.DROP_COMMAND for fault in injected)


def _crash_check(driver, events) -> dict[str, bool]:
    service = driver.service
    applied = driver.sessions["flaky"].runtime.current_per_node
    return {
        "crashed session (and only it) quarantined": (
            _quarantined(service) == ("victim",)
        ),
        "commands dropped on the wire": _dropped_commands(driver) > 0,
        "dropped commands re-pushed": service.retransmits > 0,
        "flaky's applied allocation converged": (
            applied == service.current_allocation().get("flaky")
        ),
    }


def _corrupt_setup(driver: ReplayDriver, seed: int, checks: dict) -> None:
    """Two compactions, then crash, corrupt the journal, recover.

    The compactions leave two snapshot generations on disk (so the
    stale-snapshot fault has a generation to fall back to), with
    journaled reports on both sides.
    """
    from repro.faults import FaultKind, FaultSpec, apply_journal_fault

    def compact() -> None:
        service = driver.service
        assert service.journal is not None
        service.journal.compact(service.snapshot_state())

    def crash_corrupt_recover() -> None:
        pre = driver.crash()
        # Order matters: the torn tail must land on the *newest*
        # segment, which the duplication just created.
        for kind in (
            FaultKind.DUPLICATE_SEGMENT,
            FaultKind.STALE_SNAPSHOT,
            FaultKind.TORN_TAIL,
        ):
            apply_journal_fault(
                FaultSpec(kind, target=driver.journal_path, at=0.30)
            )
        post = driver.recover()
        recovery = driver.service.last_recovery
        assert recovery is not None
        checks["duplicated segment deduplicated"] = (
            recovery.duplicates_skipped > 0
        )
        checks["stale snapshot fallback taken"] = (
            recovery.snapshot_fallbacks > 0
        )
        checks["torn tail truncated"] = recovery.truncated_tail
        checks["recovered state == pre-crash state"] = pre == post

    driver.sim.schedule_at(0.16, compact)
    driver.sim.schedule_at(0.22, compact)
    driver.sim.schedule_at(0.30, crash_corrupt_recover)


def _overload_setup(driver: ReplayDriver, seed: int, checks: dict) -> None:
    """Overflow registers, a report flood, a stale queued command."""
    service = driver.service
    shed_before: list[int] = []

    def overflow() -> None:
        codes = [
            getattr(
                service.handle(
                    Register(name=name, app=AppSpec.compute_bound(name))
                ),
                "code",
                None,
            )
            for name in ("delta", "epsilon", "zeta")
        ]
        checks["overflow registers answered 'overloaded'"] = (
            codes == ["overloaded"] * 3
        )

    def report(acked_epoch: int | None, received_at: float | None = None):
        return service.handle(
            ProgressReport(
                name="alpha",
                time=driver.sim.now,
                progress={},
                cpu_load=1.0,
                acked_epoch=acked_epoch,
            ),
            received_at=received_at,
        )

    def flood_one() -> None:
        report(driver.sessions["alpha"].acked_epoch)

    def flood_end() -> None:
        checks["flood shed under debounce pressure"] = (
            service.shed_commands - shed_before[0] >= 5
        )

    def dereg_mid_flood() -> None:
        driver.sessions["beta"].stopped = True
        reply = service.handle(Deregister(name="beta"))
        checks["deregister mid-flood acknowledged"] = hasattr(
            reply, "epoch"
        )

    def stale_command() -> None:
        reply = report(None, received_at=driver.sim.now - 0.2)
        checks["queued-stale command answered 'deadline-exceeded'"] = (
            getattr(reply, "code", None) == "deadline-exceeded"
        )

    driver.sim.schedule_at(0.12, overflow)
    driver.sim.schedule_at(
        0.2004, lambda: shed_before.append(service.shed_commands)
    )
    for k in range(10):
        driver.sim.schedule_at(0.2005 + 0.001 * k, flood_one)
    driver.sim.schedule_at(0.2055, dereg_mid_flood)
    driver.sim.schedule_at(0.2105, flood_end)
    driver.sim.schedule_at(0.25, stale_command)


#: Scenario name -> record; :func:`run_replay` runs one by name.
SERVE_SCENARIOS: dict[str, Replay] = {
    replay.name: replay
    for replay in (
        Replay(
            "churn-basic",
            # Spacing (>= 50 ms) exceeds the debounce (20 ms).
            _script(
                (0.00, _ALPHA),
                (0.05, _BETA),
                (0.10, _GAMMA),
                (0.15, _DELTA),
                (0.25, "beta"),
                (0.30, "delta"),
            ),
            duration=0.5,
            check=lambda driver, events: {
                ">= 1 reoptimization per churn event": (
                    driver.service.reoptimizations >= len(events)
                )
            },
            criteria=">= 1 reoptimization per churn event, final "
            "allocation byte-identical to the offline optimizer",
        ),
        Replay(
            "churn-burst",
            _burst_events,
            duration=0.3,
            # The lone join, then the coalesced burst.
            check=lambda driver, events: {
                "exactly 2 reoptimizations": (
                    driver.service.reoptimizations == 2
                )
            },
            criteria="the 3-join burst coalesces into one "
            "reoptimization (2 total), final matches offline",
        ),
        Replay(
            "churn-stale",
            _script((0.00, _ALPHA), (0.03, _BETA), (0.06, _GAMMA)),
            duration=0.6,
            debounce=0.01,
            setup=_stale_setup,
            check=_stale_check,
            criteria="silent sessions quarantined, quorum loss "
            "degrades to equal share, resumed sessions reactivate and "
            "the optimized answer is restored",
        ),
        Replay(
            "churn-cache",
            # gamma re-registers with the identical spec: the (alpha,
            # beta, gamma) composition returns and its candidate scores
            # are already cached.
            _script(
                (0.00, _ALPHA),
                (0.05, _BETA),
                (0.10, _GAMMA),
                (0.20, "gamma"),
                (0.30, _GAMMA),
            ),
            duration=0.5,
            check=lambda driver, events: {
                "score cache hit": driver.service.model.cache is not None
                and driver.service.model.cache.hits > 0
            },
            criteria="re-registering an identical workload "
            "composition hits the persistent ScoreCache, final matches "
            "offline",
        ),
        Replay(
            "serve-crash-restart",
            # The last two events land on the service recovered at
            # t=0.22.
            _script(
                (0.00, _ALPHA),
                (0.05, _BETA),
                (0.10, _GAMMA),
                (0.15, "beta"),
                (0.30, _DELTA),
                (0.38, "gamma"),
            ),
            duration=0.6,
            journaled=True,
            setup=_restart_setup,
            check=_restart_check,
            criteria="recovered state dump == pre-crash dump, torn "
            "journal tail truncated at the last valid record, churn after "
            "recovery still matches the offline oracle",
        ),
        Replay(
            "serve-crash",
            _script(
                (0.00, AppSpec.memory_bound("steady")),
                (0.05, AppSpec.compute_bound("flaky")),
                (0.10, AppSpec.memory_bound("victim", 0.8)),
                jitter=False,
            ),
            duration=0.8,
            debounce=0.01,
            setup=_crash_setup,
            check=_crash_check,
            tally=lambda driver: (
                f"{_dropped_commands(driver)} allocation command(s) "
                f"dropped on the wire, {driver.service.retransmits} "
                f"retransmit(s) by the re-push loop"
            ),
            criteria="crashed session quarantined, dropped commands "
            "recovered, final allocation byte-identical to offline",
        ),
        Replay(
            "serve-restart",
            _script(
                (0.00, _ALPHA), (0.05, _BETA), (0.10, _GAMMA), jitter=False
            ),
            duration=0.55,
            journaled=True,
            compact_every=None,  # compaction is scripted
            setup=_corrupt_setup,
            check=lambda driver, events: {
                "exactly one recovery": driver.service.recoveries == 1
            },
            criteria="duplicated segment deduplicated, stale snapshot "
            "fallback taken, torn tail truncated, recovered state == "
            "pre-crash state, final allocation matches offline",
        ),
        Replay(
            "serve-overload",
            # The leave arms the debounce; the setup's report flood
            # lands inside that window, where reports faster than
            # shed_report_interval are shed.
            _script(
                (0.00, _ALPHA),
                (0.03, _BETA),
                (0.06, _GAMMA),
                (0.20, "gamma"),
                jitter=False,
            ),
            duration=0.4,
            knobs={
                "max_sessions": 3,
                "command_deadline": 0.05,
                "shed_report_interval": 0.01,
            },
            setup=_overload_setup,
            check=lambda driver, events: {
                "alpha is the only survivor": tuple(
                    s.name for s in driver.service.registry.active_specs()
                )
                == ("alpha",)
            },
            tally=lambda driver: (
                f"{driver.service.shed_commands} command(s) shed: the "
                f"overflow registers, the report flood and the deadline "
                f"miss"
            ),
            criteria="overflow registers answered 'overloaded', flood "
            "shed under debounce pressure, deregister mid-flood still "
            "acknowledged, queued-stale command answered "
            "'deadline-exceeded', final allocation matches offline",
        ),
    )
}


def run_replay(
    name: str,
    seed: int = 0,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """Run one service scenario by name.

    ``mode`` selects the service's re-optimization path (``"full"`` or
    ``"delta"``); the offline oracle the replay is checked against is
    always the from-scratch exhaustive search, so a passing delta run
    proves the incremental path byte-identical under that scenario's
    churn.  ``journal`` (a directory path) runs the replay with the
    write-ahead journal enabled; ``serve-crash-restart`` and
    ``serve-restart`` journal into a temporary directory, removed on
    return, when none is given.  ``workers`` routes the service's
    scoring through the process pool (:mod:`repro.core.parallel`) with
    a batch threshold of 1, so the same oracle checks also prove worker
    byte-identity under churn (``serve-crash-restart`` additionally
    asserts the pool restarts cleanly after recovery).
    """
    if name not in SERVE_SCENARIOS:
        raise ServiceError(
            f"unknown serve scenario '{name}' "
            f"(choose from {sorted(SERVE_SCENARIOS)})"
        )
    return SERVE_SCENARIOS[name].run(
        seed, mode=mode, journal=journal, workers=workers
    )
