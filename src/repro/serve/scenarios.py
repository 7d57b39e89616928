"""Seeded churn replays for the allocation service (DES clock).

``python -m repro serve --scenario <name>`` runs the live service
against a scripted sequence of join/leave events replayed on the
discrete-event :class:`~repro.sim.engine.Simulator`: the service's
``clock``/``call_later`` are the simulation clock, every admitted
session runs a periodic report loop through a real
:class:`~repro.agent.protocol.RuntimeEndpoint` (optionally wrapped in a
fault-injecting :class:`~repro.faults.proxy.InjectionProxy` — that is
the ``serve-crash`` chaos path), and every run is exactly reproducible
from its ``(scenario, seed)`` pair.

Each preset encodes its own pass criteria in a :class:`ChurnReport`;
the headline check — shared by all presets — is that the service's
final allocation for the surviving workload equals the *offline*
optimizer's answer computed from scratch, with byte-identical scalar
scores.  Live churn must not cost correctness.  Every preset also runs
in either service mode (``--mode full`` or ``--mode delta``) against
the *same* from-scratch oracle, which is how the incremental
:class:`~repro.core.delta.DeltaSearch` path is proven exact under
churn.

Presets
-------
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

Any preset can additionally run *journaled* (``--journal DIR``):
journaling is a pure observer, so the report is identical to the
un-journaled run apart from the journal counters themselves (pinned by
the golden-digest test in ``tests/test_serve_persist.py``).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

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
        self._watchdog = True
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
        recovered service and re-arms the watchdog, mirroring what a
        restarted daemon's reconnecting runtimes would do.
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
        if self._watchdog:
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

    def run(
        self,
        events: Sequence[ChurnEvent],
        duration: float,
        *,
        watchdog: bool = True,
    ) -> None:
        """Schedule ``events`` and run the simulation to ``duration``."""
        self._horizon = duration
        self._watchdog = watchdog
        if watchdog:
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
# Preset scenarios
# ----------------------------------------------------------------------
def _jittered(base: float, rng: random.Random) -> float:
    """Deterministically jitter an event time by up to 5 ms."""
    return base + rng.uniform(0.0, 0.005)


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


def _finish(
    scenario: str,
    seed: int,
    driver: ReplayDriver,
    events: Sequence[ChurnEvent],
    extra_pass: bool,
    notes: tuple[str, ...],
) -> ChurnReport:
    """Common epilogue: compare the live answer with the offline one."""
    service = driver.service
    survivors = service.registry.active_specs()
    final_allocation = service.current_allocation()
    final_score = service.current_score()
    offline_allocation, offline_score = _offline_answer(
        service.config.machine, survivors
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
    quarantined = tuple(
        s.name
        for s in driver.service.registry.live_sessions()
        if not s.active
    )
    cache = service.model.cache
    return ChurnReport(
        scenario=scenario,
        seed=seed,
        mode=service.config.mode,
        passed=matches and extra_pass,
        events=len(events),
        reoptimizations=service.reoptimizations,
        degraded_reoptimizations=service.degraded_reoptimizations,
        delta_reoptimizations=service.delta_reoptimizations,
        delta_fallbacks=service.delta_fallbacks,
        retransmits=service.retransmits,
        quarantined=quarantined,
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


def _replay_config(
    mode: str, workers: int, **knobs
) -> ServiceConfig:
    """The shared replay :class:`ServiceConfig`.

    ``workers > 0`` additionally drops ``parallel_min_batch`` to 1 so
    even the small replay candidate spaces exercise the worker pool —
    replays are correctness runs, not benchmarks, and the offline
    oracle they are checked against always scores serially, so a
    passing parallel replay proves worker byte-identity under churn.
    """
    return ServiceConfig(
        machine=model_machine(),
        mode=mode,
        workers=workers,
        parallel_min_batch=1 if workers > 0 else None,
        **knobs,
    )


def _churn_basic(
    seed: int,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """Joins/leaves spaced wider than the debounce window."""
    rng = random.Random(seed)
    apps = {
        "alpha": AppSpec.memory_bound("alpha"),
        "beta": AppSpec.compute_bound("beta"),
        "gamma": AppSpec.memory_bound("gamma", arithmetic_intensity=0.8),
        "delta": AppSpec.compute_bound("delta", arithmetic_intensity=64.0),
    }
    events = [
        ChurnEvent(_jittered(0.00, rng), "join", "alpha", apps["alpha"]),
        ChurnEvent(_jittered(0.05, rng), "join", "beta", apps["beta"]),
        ChurnEvent(_jittered(0.10, rng), "join", "gamma", apps["gamma"]),
        ChurnEvent(_jittered(0.15, rng), "join", "delta", apps["delta"]),
        ChurnEvent(_jittered(0.25, rng), "leave", "beta"),
        ChurnEvent(_jittered(0.30, rng), "leave", "delta"),
    ]
    driver = ReplayDriver(
        _replay_config(
            mode, workers, debounce=0.02, report_interval=0.02
        ),
        journal_path=journal,
    )
    driver.run(events, duration=0.5)
    # Spacing (>= 50 ms) exceeds the debounce (20 ms): every event must
    # have produced its own re-optimization.
    extra = driver.service.reoptimizations >= len(events)
    return _finish(
        "churn-basic",
        seed,
        driver,
        events,
        extra,
        (
            "criteria: >= 1 reoptimization per churn event, final "
            "allocation byte-identical to the offline optimizer",
        ),
    )


def _churn_burst(
    seed: int,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """A join burst inside one debounce window coalesces."""
    rng = random.Random(seed)
    base = _jittered(0.10, rng)
    events = [
        ChurnEvent(
            _jittered(0.00, rng),
            "join",
            "alpha",
            AppSpec.memory_bound("alpha"),
        ),
        ChurnEvent(base, "join", "beta", AppSpec.compute_bound("beta")),
        ChurnEvent(
            base + 0.003,
            "join",
            "gamma",
            AppSpec.memory_bound("gamma", arithmetic_intensity=0.7),
        ),
        ChurnEvent(
            base + 0.006,
            "join",
            "delta",
            AppSpec.compute_bound("delta", arithmetic_intensity=80.0),
        ),
    ]
    driver = ReplayDriver(
        _replay_config(
            mode, workers, debounce=0.02, report_interval=0.02
        ),
        journal_path=journal,
    )
    driver.run(events, duration=0.3)
    # 4 events, but the 3-join burst lands inside one debounce window:
    # exactly 2 re-optimizations (the lone join, the coalesced burst).
    extra = driver.service.reoptimizations == 2
    return _finish(
        "churn-burst",
        seed,
        driver,
        events,
        extra,
        (
            "criteria: the 3-join burst coalesces into one "
            "reoptimization (2 total), final matches offline",
        ),
    )


def _churn_stale(
    seed: int,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """Silent sessions are quarantined; quorum loss degrades; recovery
    reactivates."""
    rng = random.Random(seed)
    apps = [
        AppSpec.memory_bound("alpha"),
        AppSpec.compute_bound("beta"),
        AppSpec.memory_bound("gamma", arithmetic_intensity=0.8),
    ]
    events = [
        ChurnEvent(_jittered(0.00, rng), "join", "alpha", apps[0]),
        ChurnEvent(_jittered(0.03, rng), "join", "beta", apps[1]),
        ChurnEvent(_jittered(0.06, rng), "join", "gamma", apps[2]),
    ]
    driver = ReplayDriver(
        _replay_config(
            mode, workers, debounce=0.01, report_interval=0.02
        ),
        journal_path=journal,
    )
    # Silence beta and gamma between t=0.15 and t=0.40: their report
    # loops pause, the watchdog quarantines them, and 1/3 active drops
    # below the 0.5 quorum -> degraded equal share for alpha.
    def _silence(name: str) -> None:
        driver.sessions[name].stopped = True

    def _resume(name: str) -> None:
        session = driver.sessions[name]
        session.stopped = False
        driver._report_tick(session)

    for name in ("beta", "gamma"):
        driver.sim.schedule_at(0.15, lambda n=name: _silence(n))
        driver.sim.schedule_at(0.40, lambda n=name: _resume(n))
    driver.run(events, duration=0.6)
    service = driver.service
    # After resumption every session must be active again and the
    # full 3-app workload optimized.
    all_active = sorted(
        s.name for s in service.registry.active_sessions()
    ) == ["alpha", "beta", "gamma"]
    extra = (
        service.quarantines >= 2
        and service.degraded_reoptimizations >= 1
        and all_active
    )
    return _finish(
        "churn-stale",
        seed,
        driver,
        events,
        extra,
        (
            "criteria: silent sessions quarantined, quorum loss "
            "degrades to equal share, resumed sessions reactivate and "
            "the optimized answer is restored",
        ),
    )


def _churn_cache(
    seed: int,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """A returning workload composition is served from the score cache."""
    rng = random.Random(seed)
    apps = {
        "alpha": AppSpec.memory_bound("alpha"),
        "beta": AppSpec.compute_bound("beta"),
        "gamma": AppSpec.memory_bound("gamma", arithmetic_intensity=0.8),
    }
    events = [
        ChurnEvent(_jittered(0.00, rng), "join", "alpha", apps["alpha"]),
        ChurnEvent(_jittered(0.05, rng), "join", "beta", apps["beta"]),
        ChurnEvent(_jittered(0.10, rng), "join", "gamma", apps["gamma"]),
        ChurnEvent(_jittered(0.20, rng), "leave", "gamma"),
        # gamma re-registers with the identical spec: the (alpha, beta,
        # gamma) composition returns and its candidate scores are
        # already cached.
        ChurnEvent(_jittered(0.30, rng), "join", "gamma", apps["gamma"]),
    ]
    driver = ReplayDriver(
        _replay_config(
            mode, workers, debounce=0.02, report_interval=0.02
        ),
        journal_path=journal,
    )
    driver.run(events, duration=0.5)
    cache = driver.service.model.cache
    extra = cache is not None and cache.hits > 0
    return _finish(
        "churn-cache",
        seed,
        driver,
        events,
        extra,
        (
            "criteria: re-registering an identical workload "
            "composition hits the persistent ScoreCache, final matches "
            "offline",
        ),
    )


def _churn_restart(
    seed: int,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """Crash the journaled service mid-churn; recover byte-identically.

    At a scripted DES time the service dies (its pre-crash state dump
    captured), a torn partial record is appended to the journal tail,
    and the service is rebuilt from snapshot + journal replay.  The
    recovered dump must ``==`` the pre-crash one, the torn tail must be
    detected and truncated (not crash recovery, not load garbage), and
    the churn that continues *after* recovery — a new join and a leave
    — must still end byte-identical to the offline oracle.

    With ``workers > 0`` the replay additionally asserts the scoring
    pool's lifecycle across the crash: :meth:`~repro.serve.service.
    AllocationService.crash` releases the pool (gone from the process
    registry), and the recovered service's first re-optimization
    respawns a fresh, live one.
    """
    rng = random.Random(seed)
    apps = {
        "alpha": AppSpec.memory_bound("alpha"),
        "beta": AppSpec.compute_bound("beta"),
        "gamma": AppSpec.memory_bound("gamma", arithmetic_intensity=0.8),
        "delta": AppSpec.compute_bound("delta", arithmetic_intensity=64.0),
    }
    events = [
        ChurnEvent(_jittered(0.00, rng), "join", "alpha", apps["alpha"]),
        ChurnEvent(_jittered(0.05, rng), "join", "beta", apps["beta"]),
        ChurnEvent(_jittered(0.10, rng), "join", "gamma", apps["gamma"]),
        ChurnEvent(_jittered(0.15, rng), "leave", "beta"),
        # Scheduled after the crash at t=0.22: both land on the
        # *recovered* service.
        ChurnEvent(_jittered(0.30, rng), "join", "delta", apps["delta"]),
        ChurnEvent(_jittered(0.38, rng), "leave", "gamma"),
    ]
    driver = ReplayDriver(
        _replay_config(
            mode, workers, debounce=0.02, report_interval=0.02
        ),
        journal_path=journal or tempfile.mkdtemp(prefix="repro-journal-"),
    )
    checks: dict[str, bool] = {}

    def _crash_recover() -> None:
        if workers > 0:
            from repro.core.parallel import pool_stats

            stats = pool_stats().get(workers)
            checks["pool_spawned"] = (
                stats is not None and stats["alive"]
            )
        pre, post = driver.crash_and_recover(tear_tail=True)
        recovery = driver.service.last_recovery
        checks["identical"] = pre == post
        checks["torn_tail"] = (
            recovery is not None and recovery.truncated_tail
        )
        if workers > 0:
            from repro.core.parallel import pool_stats

            checks["pool_released"] = workers not in pool_stats()

    driver.sim.schedule_at(0.22, _crash_recover)
    driver.run(events, duration=0.6)
    service = driver.service
    extra = (
        checks.get("identical", False)
        and checks.get("torn_tail", False)
        and service.recoveries == 1
        and service.journal_records + driver.journal_records_prior > 0
    )
    notes = (
        "criteria: recovered state dump == pre-crash dump, torn "
        "journal tail truncated at the last valid record, churn after "
        "recovery still matches the offline oracle",
    )
    if not checks.get("identical", False):
        notes += ("FAIL: recovered state differs from pre-crash state",)
    if not checks.get("torn_tail", False):
        notes += ("FAIL: torn tail was not detected/truncated",)
    if workers > 0:
        from repro.core.parallel import (
            pool_stats,
            shared_memory_available,
        )

        if shared_memory_available():
            stats = pool_stats().get(workers)
            checks["pool_restarted"] = (
                stats is not None and stats["alive"]
            )
            extra = (
                extra
                and checks.get("pool_spawned", False)
                and checks.get("pool_released", False)
                and checks["pool_restarted"]
            )
            notes += (
                "criteria (workers): pool live before the crash, "
                "released at crash, a fresh pool live again after the "
                "recovered service's re-optimizations",
            )
            if not checks.get("pool_spawned", False):
                notes += ("FAIL: no live scoring pool before the crash",)
            if not checks.get("pool_released", False):
                notes += ("FAIL: crash did not release the scoring pool",)
            if not checks["pool_restarted"]:
                notes += ("FAIL: no live scoring pool after recovery",)
        else:
            notes += (
                "note: shared memory unavailable here; pool lifecycle "
                "checks skipped (serial fallback path exercised instead)",
            )
    return _finish(
        "serve-crash-restart", seed, driver, events, extra, notes
    )


#: Scenario name -> builder; each returns a :class:`ChurnReport`.
SERVE_SCENARIOS: dict[str, Callable[..., ChurnReport]] = {
    "churn-basic": _churn_basic,
    "churn-burst": _churn_burst,
    "churn-stale": _churn_stale,
    "churn-cache": _churn_cache,
    "serve-crash-restart": _churn_restart,
}


def run_replay(
    name: str,
    seed: int = 0,
    mode: str = "full",
    journal: str | None = None,
    workers: int = 0,
) -> ChurnReport:
    """Run one churn replay preset by name.

    ``mode`` selects the service's re-optimization path (``"full"`` or
    ``"delta"``); the offline oracle the replay is checked against is
    always the from-scratch exhaustive search, so a passing delta run
    proves the incremental path byte-identical under that scenario's
    churn.  ``journal`` (a directory path) runs the replay with the
    write-ahead journal enabled; ``serve-crash-restart`` journals into
    a fresh temporary directory when none is given.  ``workers`` routes
    the service's scoring through the process pool
    (:mod:`repro.core.parallel`) with a batch threshold of 1, so the
    same oracle checks also prove worker byte-identity under churn
    (``serve-crash-restart`` additionally asserts the pool restarts
    cleanly after recovery).
    """
    if name not in SERVE_SCENARIOS:
        raise ServiceError(
            f"unknown serve scenario '{name}' "
            f"(choose from {sorted(SERVE_SCENARIOS)})"
        )
    return SERVE_SCENARIOS[name](
        seed, mode=mode, journal=journal, workers=workers
    )
