"""The allocation service core: admission, churn, re-optimization.

:class:`AllocationService` is the paper's Figure 1 agent turned into a
long-running daemon.  Where :class:`~repro.agent.agent.Agent` runs a
fixed number of offline rounds over a static application set, the
service accepts *churn*: applications register, stream progress
reports, and deregister at any time, and the service keeps re-issuing
per-NUMA-node thread counts for whoever is currently admitted.

The core is transport-agnostic and clock-agnostic: it consumes decoded
:mod:`repro.serve.protocol` messages via :meth:`handle` and emits
pushed messages through subscriber callbacks, while *when* things
happen is delegated to an injected ``clock()`` / ``call_later()`` pair.
:mod:`repro.serve.gateway` binds it to asyncio unix-socket, TCP and
HTTP listeners (loop time), :mod:`repro.serve.scenarios` binds it to
the DES :class:`~repro.sim.engine.Simulator` (simulation time), and
:class:`~repro.serve.client.ServiceClient` drives it in-process — all
three run the *same* policy code.

Policy highlights (full semantics in ``docs/SERVICE.md``):

* **Debounced re-optimization** — every membership change arms one
  ``debounce``-second timer instead of searching immediately, so a
  burst of joins/leaves costs one search, not one per event.
* **Score-cache reuse** — the service owns a single
  :class:`~repro.core.model.NumaPerformanceModel` whose
  :class:`~repro.core.fasteval.ScoreCache` persists across churn.
  The cache keeps each whole-space search's winner as one entry, so
  when a departed workload returns with the same apps in the same
  admission order its search is one cache hit (property-tested in
  ``tests/test_core_fasteval.py``), and a new workload's search costs
  one store.  A new workload's search scores only the candidates the
  roofline bound and the compute-peak ceiling cannot rule out (64 of
  6 435 in most searches of the serve-path benchmark's ``churn-full``
  schedules, a mean of 84) and still returns the exhaustive answer.
* **Incremental re-optimization** — ``mode="delta"`` warm-starts each
  re-optimization from the previous allocation through
  :class:`~repro.core.delta.DeltaSearch` (O(delta) move exploration
  with automatic full-search fall-back) instead of re-searching the
  whole candidate space; ``mode="full"`` (default) keeps the
  from-scratch oracle behaviour.
* **Staleness quarantine + quorum degradation** — sessions whose last
  report is older than the :class:`~repro.agent.resilience
  .ResiliencePolicy` freshness window are quarantined out of the
  optimized workload; when fewer than ``quorum`` of live sessions are
  active the service degrades to a static equal share instead of
  trusting the model with a mostly-unobserved workload.
* **At-least-once delivery** — each progress report carries the epoch
  the runtime last applied; the service re-pushes the current
  allocation while that trails, which is what lets the fault drill
  (``python -m repro serve --scenario serve-crash``) converge under
  dropped commands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.agent.protocol import CommandKind, ThreadCommand
from repro.agent.resilience import ResiliencePolicy
from repro.core.allocation import ThreadAllocation
from repro.core.delta import DeltaSearch
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch
from repro.core.spec import AppSpec
from repro.errors import ServiceError
from repro.machine.topology import MachineTopology
from repro.obs import OBS, CounterHandle, GaugeHandle, HistogramHandle
from repro.serve.persist import Journal, RecoveryLoad, load_journal
from repro.serve.protocol import (
    Ack,
    AllocationUpdate,
    Deregister,
    ErrorReply,
    ProgressReport,
    QueryAllocation,
    Register,
    ShutdownNotice,
    app_spec_from_dict,
    app_spec_to_dict,
)
from repro.serve.registry import Session, SessionState, WorkloadRegistry

__all__ = [
    "ServiceConfig",
    "AllocationService",
]

# Hot-path metric handles (PERF001: resolved once, not per event).
_SESSIONS = GaugeHandle("serve/sessions")
_CHURN_EVENTS = CounterHandle("serve/churn_events")
_REOPTIMIZATIONS = CounterHandle("serve/reoptimizations")
_DEGRADED = CounterHandle("serve/degraded_reoptimizations")
_COMMANDS = CounterHandle("serve/commands")
_RETRANSMITS = CounterHandle("serve/retransmits")
_QUARANTINED = CounterHandle("serve/quarantined")
_COMMAND_LATENCY = HistogramHandle("serve/command_latency")
_DELTA_REOPTIMIZATIONS = CounterHandle("serve/delta_reoptimizations")
_RECOVERIES = CounterHandle("serve/recoveries")
_JOURNAL_RECORDS = CounterHandle("serve/journal_records")
_SHED = CounterHandle("serve/shed_commands")
_REJECTED_SESSIONS = CounterHandle("serve/rejected_sessions")
_RECOVERY_REPLAY = HistogramHandle("serve/recovery_replay_ms")


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable knobs of one :class:`AllocationService`.

    Attributes
    ----------
    machine:
        Topology the workload is optimized against.
    debounce:
        Seconds a membership change waits before triggering a
        re-optimization, coalescing join/leave bursts.  Must be
        positive: zero would re-introduce one search per event.
    report_interval:
        Expected seconds between a runtime's progress reports; the
        staleness window is ``resilience.freshness_window`` times this
        (mirroring the agent's per-period windows).
    resilience:
        The PR-3 policy reused for freshness and quorum semantics.
    max_sessions:
        Admission cap (``None`` = unbounded).  A full service answers
        ``Register`` with an :class:`~repro.serve.protocol.ErrorReply`
        code ``overloaded`` instead of growing without bound, counted
        in :attr:`AllocationService.rejected_sessions`.
    mode:
        ``"full"`` re-runs the configured search from scratch on every
        re-optimization; ``"delta"`` routes churn through the
        incremental :class:`~repro.core.delta.DeltaSearch`, warm-started
        from the previous allocation (with automatic fall-back to the
        full search — see ``docs/OPTIMIZER.md``).
    command_deadline:
        Seconds a ``progress-report`` / ``query-allocation`` may sit
        queued (between being read off the wire and being handled)
        before the service answers ``deadline-exceeded`` instead of
        acting on stale input.  ``None`` (default) disables the check.
        Membership changes are exempt: a late ``register`` or
        ``deregister`` is still true.
    shed_report_interval:
        Load-shedding floor for ``progress-report`` floods: while a
        re-optimization is already pending (debounce armed), reports
        from a session that reported less than this many seconds ago
        are coalesced — acknowledged but not folded into the registry.
        ``None`` (default) disables shedding.  ``register`` and
        ``deregister`` are never shed.
    workers:
        Process count for big score batches (:mod:`repro.core.
        parallel`), applied to the service's model.  ``None`` (default)
        leaves the model's setting alone (which reads the
        ``REPRO_WORKERS`` environment variable); ``0`` forces serial
        scoring.  Allocations are byte-identical for every worker
        count; :meth:`AllocationService.drain` and
        :meth:`AllocationService.crash` release the pool, and a
        recovered service lazily respawns it on its next big batch.
    parallel_min_batch:
        Smallest batch routed through the worker pool; ``None`` keeps
        the model's threshold
        (:data:`repro.core.parallel.DEFAULT_MIN_BATCH`).
    """

    machine: MachineTopology
    debounce: float = 0.02
    report_interval: float = 0.1
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    max_sessions: int | None = None
    mode: str = "full"
    command_deadline: float | None = None
    shed_report_interval: float | None = None
    workers: int | None = None
    parallel_min_batch: int | None = None

    def __post_init__(self) -> None:
        if self.debounce <= 0:
            raise ServiceError(
                f"debounce must be positive, got {self.debounce}"
            )
        if self.report_interval <= 0:
            raise ServiceError(
                f"report_interval must be positive, "
                f"got {self.report_interval}"
            )
        if self.mode not in ("full", "delta"):
            raise ServiceError(
                f"mode must be 'full' or 'delta', got {self.mode!r}"
            )
        if self.command_deadline is not None and self.command_deadline <= 0:
            raise ServiceError(
                f"command_deadline must be positive, "
                f"got {self.command_deadline}"
            )
        if self.shed_report_interval is not None:
            if self.shed_report_interval <= 0:
                raise ServiceError(
                    f"shed_report_interval must be positive, "
                    f"got {self.shed_report_interval}"
                )
            if self.shed_report_interval >= self.staleness_window / 2:
                raise ServiceError(
                    f"shed_report_interval "
                    f"{self.shed_report_interval} must stay under half "
                    f"the staleness window "
                    f"({self.staleness_window}); shedding that "
                    f"aggressively would quarantine healthy sessions"
                )
        if self.workers is not None and self.workers < 0:
            raise ServiceError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.parallel_min_batch is not None and self.parallel_min_batch < 1:
            raise ServiceError(
                f"parallel_min_batch must be >= 1, "
                f"got {self.parallel_min_batch}"
            )

    @property
    def staleness_window(self) -> float:
        """Seconds without a report before a session is quarantined."""
        return self.resilience.freshness_window * self.report_interval


class AllocationService:
    """Transport-agnostic core of the ``repro.serve`` daemon.

    Parameters
    ----------
    config:
        Machine, timing, and resilience knobs.
    clock:
        Zero-argument callable returning the current time on whatever
        clock drives this instance (loop time, simulation time, ...).
        Never wall-clock arithmetic inside the service itself.
    call_later:
        ``(delay, fn)`` scheduler on the same clock; used for the
        debounce timer.  Returning a handle is not required — the
        service guards re-entry itself.
    model / search:
        Injectable for tests; by default the service owns one
        :class:`~repro.core.model.NumaPerformanceModel` (so the score
        cache survives churn) driving an
        :class:`~repro.core.optimizer.ExhaustiveSearch`.
    journal:
        Optional :class:`~repro.serve.persist.Journal`; when set, every
        state-changing event is appended (and periodically compacted
        into a snapshot) so :meth:`recover` can rebuild this service
        byte-identically after a crash.  Journaling is a pure observer:
        a journaled service and an un-journaled one produce identical
        replies, pushes, and metrics.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        clock: Callable[[], float],
        call_later: Callable[[float, Callable[[], None]], object],
        model: NumaPerformanceModel | None = None,
        search: ExhaustiveSearch | None = None,
        journal: Journal | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.call_later = call_later
        self.model = model or NumaPerformanceModel()
        if config.workers is not None:
            self.model.set_workers(
                config.workers, min_batch=config.parallel_min_batch
            )
        self.search = search or ExhaustiveSearch(self.model)
        if self.search.model is not self.model:
            raise ServiceError(
                "search must evaluate through the service's model "
                "(otherwise the ScoreCache cannot persist across churn)"
            )
        #: the incremental re-optimizer (delta mode only); its fall-back
        #: is the service's own full search, so both paths share the
        #: model and its persistent score cache.
        self.delta: DeltaSearch | None = (
            DeltaSearch(
                self.model, self.search.objective, fallback=self.search
            )
            if config.mode == "delta"
            else None
        )
        self.registry = WorkloadRegistry(max_sessions=config.max_sessions)
        #: name -> callback receiving this session's pushed messages.
        self._subscribers: dict[str, Callable[[object], None]] = {}
        #: per-session thread counts of the current allocation.
        self._allocation: dict[str, tuple[int, ...]] = {}
        #: scalar-model score of the current allocation (ground truth).
        self._score: float | None = None
        #: whether the current allocation came from the degraded path.
        self._degraded = False
        #: epoch the current allocation was computed for.
        self._allocation_epoch: int | None = None
        #: what the last *optimized* (non-degraded) answer was computed
        #: for/from — the warm start of the next delta re-optimization.
        self._prev_specs: tuple[AppSpec, ...] = ()
        self._prev_allocation: ThreadAllocation | None = None
        self._prev_score: float | None = None
        self._reopt_pending = False
        #: clock times of membership changes awaiting the pending
        #: re-optimization — drained into the latency histogram.
        self._pending_event_times: list[float] = []
        self._draining = False
        self._watchdog_interval: float | None = None
        self.reoptimizations = 0
        self.degraded_reoptimizations = 0
        self.delta_reoptimizations = 0
        self.retransmits = 0
        self.quarantines = 0
        #: the write-ahead journal (None = volatile service).
        self.journal = journal
        #: events appended to the journal by this instance.
        self.journal_records = 0
        #: times this instance was rebuilt from disk (0 or 1).
        self.recoveries = 0
        #: progress-report/query commands shed under overload.
        self.shed_commands = 0
        #: registers refused ``overloaded`` at the ``max_sessions`` cap.
        self.rejected_sessions = 0
        #: what :meth:`recover` read back (diagnostics for chaos tests).
        self.last_recovery: RecoveryLoad | None = None

    # -- message entry point --------------------------------------------

    def handle(self, message, *, received_at: float | None = None):
        """Process one decoded request; returns the direct reply.

        The reply is an :class:`~repro.serve.protocol.Ack`,
        :class:`~repro.serve.protocol.AllocationUpdate`, or — for any
        rejected request — an :class:`~repro.serve.protocol.ErrorReply`
        (the core never lets a bad request raise through a transport).
        Every rejection carries a machine-readable ``code`` from
        :data:`~repro.serve.protocol.ERROR_CODES`.

        ``received_at`` is when the transport read the request off the
        wire (same clock as ``clock()``).  With
        ``config.command_deadline`` set, a ``progress-report`` or
        ``query-allocation`` that sat queued past the deadline is
        answered ``deadline-exceeded`` instead of being acted on —
        stale load signals would steer the optimizer wrong, while a
        late ``register``/``deregister`` is still a true membership
        fact and is always processed.
        """
        deadline = self.config.command_deadline
        if (
            deadline is not None
            and received_at is not None
            and isinstance(message, (ProgressReport, QueryAllocation))
            and self.clock() - received_at > deadline
        ):
            self._count_shed()
            return ErrorReply(
                error=(
                    f"command sat queued {self.clock() - received_at:.4f}s, "
                    f"past the {deadline}s deadline"
                ),
                in_reply_to=message.TYPE,
                code="deadline-exceeded",
            )
        try:
            if isinstance(message, Register):
                return self._register(message)
            if isinstance(message, Deregister):
                return self._deregister(message)
            if isinstance(message, ProgressReport):
                return self._progress(message)
            if isinstance(message, QueryAllocation):
                return self._query(message)
        except ServiceError as exc:
            return ErrorReply(
                error=str(exc),
                in_reply_to=getattr(message, "TYPE", None),
                code=getattr(exc, "code", None) or "invalid-request",
            )
        return ErrorReply(
            error=f"unsupported message {type(message).__name__}",
            in_reply_to=getattr(message, "TYPE", None),
            code="unsupported",
        )

    def subscribe(
        self, name: str, push: Callable[[object], None]
    ) -> None:
        """Attach ``push`` as the stream back to session ``name``.

        Pushed messages are :class:`~repro.serve.protocol
        .AllocationUpdate` (``in_reply_to=None``) and one final
        :class:`~repro.serve.protocol.ShutdownNotice` on drain.
        """
        if name not in self.registry:
            raise ServiceError(
                f"cannot subscribe unknown session '{name}'"
            )
        self._subscribers[name] = push

    def unsubscribe(self, name: str) -> None:
        """Detach the stream of session ``name`` (idempotent)."""
        self._subscribers.pop(name, None)

    # -- request handlers -----------------------------------------------

    def _register(self, message: Register):
        if self._draining:
            raise ServiceError(
                "service is draining; admission is closed",
                code="draining",
            )
        now = self.clock()
        try:
            self.registry.admit(message.app, now)
        except ServiceError as exc:
            if exc.code == "overloaded":
                self.rejected_sessions += 1
                if OBS.enabled:
                    _REJECTED_SESSIONS.add()
            raise
        self._journal_event(
            {
                "kind": "register",
                "name": message.name,
                "t": now,
                "app": app_spec_to_dict(message.app),
            }
        )
        self._note_churn(now)
        if OBS.enabled:
            _SESSIONS.set(len(self.registry))
        return Ack(
            name=message.name,
            epoch=self.registry.epoch,
            in_reply_to=Register.TYPE,
        )

    def _deregister(self, message: Deregister):
        session = self.registry.remove(message.name)
        self.unsubscribe(message.name)
        self._allocation.pop(message.name, None)
        self._journal_event(
            {"kind": "deregister", "name": message.name}
        )
        self._note_churn(self.clock())
        if OBS.enabled:
            _SESSIONS.set(len(self.registry))
        return Ack(
            name=session.name,
            epoch=self.registry.epoch,
            in_reply_to=Deregister.TYPE,
        )

    def _progress(self, message: ProgressReport):
        if self._should_shed(message):
            # Coalesced under debounce pressure: acknowledged so the
            # runtime keeps its cadence, but nothing is mutated (and
            # nothing journaled) — the pending re-optimization will
            # read the last accepted report instead.
            self._count_shed()
            return Ack(
                name=message.name,
                epoch=self.registry.epoch,
                in_reply_to=ProgressReport.TYPE,
            )
        session = self.registry.record_report(
            message.name,
            message.time,
            message.progress,
            message.cpu_load,
            message.acked_epoch,
        )
        self._journal_event(
            {
                "kind": "report",
                "name": message.name,
                "t": message.time,
                "progress": dict(message.progress),
                "cpu_load": message.cpu_load,
                "acked": message.acked_epoch,
            }
        )
        if session.state is SessionState.QUARANTINED:
            # A heartbeat from a quarantined session brings it back
            # into the optimized workload (membership change).
            self.registry.reactivate(message.name)
            self._journal_event(
                {"kind": "reactivate", "name": message.name}
            )
            self._note_churn(self.clock())
        self._maybe_retransmit(session)
        return Ack(
            name=session.name,
            epoch=self.registry.epoch,
            in_reply_to=ProgressReport.TYPE,
        )

    def _should_shed(self, message: ProgressReport) -> bool:
        """True when this report should be coalesced, not applied.

        Sheds only while a re-optimization is already pending (the
        flood is about to be folded into one answer anyway) and only
        reports that arrive faster than ``shed_report_interval`` after
        the session's last accepted one.  Never sheds the report that
        would reactivate a quarantined session — that one is a
        membership signal, not a load sample.
        """
        interval = self.config.shed_report_interval
        if interval is None or not self._reopt_pending:
            return False
        session = self.registry.get(message.name)
        if session is None or not session.active:
            return False
        last = session.last_report_time
        return last is not None and message.time - last < interval

    def _count_shed(self) -> None:
        self.shed_commands += 1
        if OBS.enabled:
            _SHED.add()

    def _query(self, message: QueryAllocation):
        session = self.registry.get(message.name)
        if session is None or session.state is SessionState.CLOSED:
            raise ServiceError(
                f"unknown session '{message.name}'",
                code="unknown-session",
            )
        per_node = self._allocation.get(message.name)
        if per_node is None:
            raise ServiceError(
                f"no allocation computed yet for '{message.name}' "
                f"(re-optimization pending)",
                code="no-allocation",
            )
        return AllocationUpdate(
            name=message.name,
            per_node=per_node,
            epoch=self._allocation_epoch or 0,
            score=self._score or 0.0,
            degraded=self._degraded,
            in_reply_to=QueryAllocation.TYPE,
        )

    # -- churn / debounce -----------------------------------------------

    def _note_churn(self, now: float) -> None:
        """Record a membership change and arm the debounce timer."""
        if OBS.enabled:
            _CHURN_EVENTS.add()
        self._pending_event_times.append(now)
        if self._reopt_pending:
            return
        self._reopt_pending = True
        self.call_later(self.config.debounce, self._debounce_fired)

    def _debounce_fired(self) -> None:
        self._reopt_pending = False
        if self._draining:
            return
        self.reoptimize()

    # -- watchdog -------------------------------------------------------

    def start_watchdog(self, interval: float | None = None) -> None:
        """Arm the periodic staleness sweep.

        Re-optimizations are churn-triggered, so without a watchdog a
        session that silently stops reporting would only be noticed at
        the *next* membership change.  The watchdog sweeps every
        ``interval`` seconds (default: the staleness window itself) and
        treats any resulting quarantine as a churn event, which arms
        the normal debounced re-optimization.
        """
        if interval is not None and interval <= 0:
            raise ServiceError(
                f"watchdog interval must be positive, got {interval}"
            )
        self._watchdog_interval = (
            interval
            if interval is not None
            else self.config.staleness_window
        )
        self.call_later(self._watchdog_interval, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        if self._draining or self._watchdog_interval is None:
            return
        now = self.clock()
        active_before = sum(1 for _ in self.registry.active_sessions())
        self._sweep_stale(now)
        active_after = sum(1 for _ in self.registry.active_sessions())
        if active_after < active_before:
            self._note_churn(now)
        self.call_later(self._watchdog_interval, self._watchdog_tick)

    # -- the re-optimization loop ---------------------------------------

    def _sweep_stale(self, now: float) -> None:
        """Quarantine every active session outside the freshness window."""
        window = self.config.staleness_window
        for session in list(self.registry.active_sessions()):
            last = session.last_report_time
            if last is None or now - last > window:
                self.registry.quarantine(session.name)
                self._journal_event(
                    {"kind": "quarantine", "name": session.name}
                )
                self.quarantines += 1
                if OBS.enabled:
                    _QUARANTINED.add()

    def _quorum_met(self) -> bool:
        live = sum(1 for _ in self.registry.live_sessions())
        if live == 0:
            return True
        active = sum(1 for _ in self.registry.active_sessions())
        return active / live >= self.config.resilience.quorum

    def reoptimize(self) -> None:
        """Recompute the allocation for the current active workload.

        Called by the debounce timer; safe to call directly (tests, the
        replay driver).  Chooses the optimizer path when quorum holds
        and the degraded equal-share path when it does not, then pushes
        an :class:`~repro.serve.protocol.AllocationUpdate` to every
        subscribed session whose counts, epoch, or degradation flag
        changed.
        """
        now = self.clock()
        self._sweep_stale(now)
        specs = self.registry.active_specs()
        epoch = self.registry.epoch
        with OBS.tracer.span(
            "serve/reoptimize", apps=len(specs), epoch=epoch
        ) as span:
            degraded = not self._quorum_met()
            if not specs:
                allocation: dict[str, tuple[int, ...]] = {}
                score: float | None = None
            elif degraded:
                allocation, score = self._equal_share(specs)
            else:
                allocation, score = self._optimize(specs)
            if not specs or degraded:
                # An equal share (or an empty workload) is not a search
                # answer; the next delta re-optimization cold-starts.
                self._prev_specs = ()
                self._prev_allocation = None
                self._prev_score = None
            self.reoptimizations += 1
            if degraded:
                self.degraded_reoptimizations += 1
            if OBS.enabled:
                _REOPTIMIZATIONS.add()
                if degraded:
                    _DEGRADED.add()
                span.attrs["degraded"] = degraded
                if score is not None:
                    span.attrs["score"] = score
        self._allocation = allocation
        self._score = score
        self._degraded = degraded
        self._allocation_epoch = epoch
        self._journal_event(
            {
                "kind": "allocation",
                "epoch": epoch,
                "score": score,
                "degraded": degraded,
                "allocation": {
                    name: list(counts)
                    for name, counts in allocation.items()
                },
            }
        )
        events, self._pending_event_times = self._pending_event_times, []
        if OBS.enabled:
            for event_time in events:
                _COMMAND_LATENCY.record(now - event_time)
        self._push_updates()

    def _optimize(
        self, specs: tuple[AppSpec, ...]
    ) -> tuple[dict[str, tuple[int, ...]], float]:
        """The normal path: run the search over the active workload.

        The search shares the service's model and its
        :class:`~repro.core.fasteval.ScoreCache`.  A search's answer
        comes out of the cache only when the same apps are active in
        the same admission order as in an earlier search (the cache key
        is the ordered spec tuple); replacement churn of a larger app
        pool seldom recreates that, so a full-mode re-optimization
        usually searches the space afresh, scoring only the candidates
        that can still be the first best one, and stores its winner as
        one cache entry.  The returned score is the
        scalar model's ground truth for the winner.  In delta mode the incremental searcher is warm-started
        from the previous answer instead of re-searching the whole
        space.
        """
        if self.delta is not None:
            outcome = self.delta.search(
                self.config.machine,
                specs,
                previous=self._prev_allocation,
                previous_specs=self._prev_specs,
                previous_score=self._prev_score,
            )
            self.delta_reoptimizations += 1
            if OBS.enabled:
                _DELTA_REOPTIMIZATIONS.add()
            result = outcome.result
        else:
            # Full mode deliberately re-searches the whole space even
            # though the previous allocation is at hand: it is the
            # oracle the delta mode is checked against.
            result = self.search.search(self.config.machine, specs)  # repro: noqa[PERF002]
        self._prev_specs = specs
        self._prev_allocation = result.allocation
        self._prev_score = result.score
        allocation = {
            spec.name: tuple(
                int(x) for x in result.allocation.threads_of(spec.name)
            )
            for spec in specs
        }
        return allocation, result.score

    def _equal_share(
        self, specs: tuple[AppSpec, ...]
    ) -> tuple[dict[str, tuple[int, ...]], float]:
        """Degraded path: static equal split, no model trust required.

        Mirrors :meth:`repro.agent.agent.Agent._equal_share`: each
        node's cores are divided evenly, the remainder going to the
        earliest-admitted apps.  The score is still the scalar model's
        prediction for transparency, but it did not steer the choice.
        """
        machine = self.config.machine
        names = [s.name for s in specs]
        counts = [[0] * machine.num_nodes for _ in names]
        for node_index, node in enumerate(machine.nodes):
            cores = len(node.cores)
            base, extra = divmod(cores, len(names))
            for app_index in range(len(names)):
                counts[app_index][node_index] = base + (
                    1 if app_index < extra else 0
                )
        allocation = ThreadAllocation(
            app_names=tuple(names), counts=counts
        )
        prediction = self.model.predict(machine, specs, allocation)
        return (
            {
                name: tuple(
                    int(x) for x in allocation.threads_of(name)
                )
                for name in names
            },
            prediction.total_gflops,
        )

    # -- downstream push ------------------------------------------------

    def _update_for(self, session: Session) -> AllocationUpdate | None:
        per_node = self._allocation.get(session.name)
        if per_node is None:
            return None
        return AllocationUpdate(
            name=session.name,
            per_node=per_node,
            epoch=self._allocation_epoch or 0,
            score=self._score or 0.0,
            degraded=self._degraded,
        )

    def _push_updates(self) -> None:
        for session in list(self.registry.active_sessions()):
            update = self._update_for(session)
            if update is None:
                continue
            if session.pushed_epoch == update.epoch:
                continue
            self._push(session, update)

    def _maybe_retransmit(self, session: Session) -> None:
        """Re-push when the runtime's applied epoch trails the current.

        The runtime tells us what it last applied (``acked_epoch`` on
        its progress reports); if a pushed command was lost in flight,
        the gap shows up here and the command is re-sent — at-least-once
        delivery without any transport-level acking.
        """
        if self._allocation_epoch is None:
            return
        if session.name not in self._subscribers:
            return
        if session.acked_epoch is not None and (
            session.acked_epoch >= self._allocation_epoch
        ):
            return
        if session.pushed_epoch != self._allocation_epoch:
            # The regular push loop has not even reached this epoch yet
            # (or the session subscribed late); the plain push below
            # counts as the first transmission, not a retransmit.
            update = self._update_for(session)
            if update is not None:
                self._push(session, update)
            return
        update = self._update_for(session)
        if update is None:
            return
        self.retransmits += 1
        if OBS.enabled:
            _RETRANSMITS.add()
        self._push(session, update)

    def _push(self, session: Session, update: AllocationUpdate) -> None:
        session.pushed_epoch = update.epoch
        self._journal_event(
            {
                "kind": "push",
                "name": session.name,
                "epoch": update.epoch,
            }
        )
        if OBS.enabled:
            _COMMANDS.add()
        push = self._subscribers.get(session.name)
        if push is not None:
            push(update)

    # -- persistence ----------------------------------------------------

    def _journal_event(self, event: dict) -> None:
        """Append one state-change record; compact when due.

        Called *after* the mutation it records succeeded, so the
        journal never contains an event the live service rejected.
        Pure observer: with ``journal=None`` (or a closed journal)
        this is a no-op and the service behaves byte-identically.
        """
        if self.journal is None or self.journal.closed:
            return
        self.journal.append(event)
        self.journal_records += 1
        if OBS.enabled:
            _JOURNAL_RECORDS.add()
        if self.journal.should_compact():
            self.journal.compact(self.snapshot_state())

    def snapshot_state(self) -> dict:
        """JSON-safe dump of everything :meth:`recover` must rebuild."""
        return {
            "machine": repr(self.config.machine.fingerprint),
            "mode": self.config.mode,
            "registry": self.registry.to_snapshot(),
            "allocation": {
                name: list(counts)
                for name, counts in self._allocation.items()
            },
            "score": self._score,
            "degraded": self._degraded,
            "allocation_epoch": self._allocation_epoch,
        }

    def _restore_state(self, state: dict) -> None:
        machine = state.get("machine")
        if machine != repr(self.config.machine.fingerprint):
            raise ServiceError(
                "journal snapshot was taken against a different machine "
                "topology; refusing to recover onto it"
            )
        if state.get("mode") != self.config.mode:
            raise ServiceError(
                f"journal snapshot was taken in mode "
                f"{state.get('mode')!r}, recovering in "
                f"{self.config.mode!r}; refusing"
            )
        self.registry = WorkloadRegistry.from_snapshot(
            state["registry"], max_sessions=self.config.max_sessions
        )
        self._allocation = {
            name: tuple(int(x) for x in counts)
            for name, counts in state["allocation"].items()
        }
        self._score = state["score"]
        self._degraded = state["degraded"]
        self._allocation_epoch = state["allocation_epoch"]

    def _replay_event(self, event: dict) -> None:
        """Apply one journal record to the recovering state.

        Each record replays the *registry-level* mutation it logged —
        not the request that caused it — so replay is deterministic
        and free of policy side effects (no debounce timers, no
        pushes, no re-optimizations during replay).
        """
        kind = event.get("kind")
        name = event.get("name")
        if kind == "register":
            self.registry.admit(
                app_spec_from_dict(event["app"]), event["t"]
            )
        elif kind == "deregister":
            self.registry.remove(name)
            self._allocation.pop(name, None)
        elif kind == "report":
            self.registry.record_report(
                name,
                event["t"],
                event["progress"],
                event["cpu_load"],
                event["acked"],
            )
        elif kind == "quarantine":
            self.registry.quarantine(name)
        elif kind == "reactivate":
            self.registry.reactivate(name)
        elif kind == "push":
            session = self.registry.get(name)
            if session is not None:
                session.pushed_epoch = event["epoch"]
        elif kind == "allocation":
            self._allocation = {
                app: tuple(int(x) for x in counts)
                for app, counts in event["allocation"].items()
            }
            self._score = event["score"]
            self._degraded = event["degraded"]
            self._allocation_epoch = event["epoch"]
        else:
            raise ServiceError(f"unknown journal event kind {kind!r}")

    @classmethod
    def recover(
        cls,
        path: str,
        config: ServiceConfig,
        *,
        clock: Callable[[], float],
        call_later: Callable[[float, Callable[[], None]], object],
        model: NumaPerformanceModel | None = None,
        search: ExhaustiveSearch | None = None,
        fsync: bool = True,
        compact_every: int | None = 1024,
        reconcile: bool = True,
    ) -> "AllocationService":
        """Rebuild a service from the journal directory at ``path``.

        Deterministic: loads the newest CRC-valid snapshot, replays
        every journal record after it (torn tails truncated, corrupt
        snapshots falling back a generation, duplicated segments
        deduplicated by ``seq`` — see
        :func:`~repro.serve.persist.load_journal`), then compacts the
        recovered state into a fresh generation so the next crash
        replays from *here*, not from the beginning of time.

        With ``reconcile`` (default) a recovered service with live
        sessions arms one debounced re-optimization, so its allocation
        answer is recomputed against the recovered workload instead of
        trusted blindly.  Same registry, same model, same search ⇒ the
        reconciliation answer equals the pre-crash one, and no spurious
        pushes go out (every session's ``pushed_epoch`` is already
        current).
        """
        start = time.perf_counter()
        loaded = load_journal(path)
        service = cls(
            config,
            clock=clock,
            call_later=call_later,
            model=model,
            search=search,
        )
        if loaded.state is not None:
            service._restore_state(loaded.state)
        for event in loaded.events:
            service._replay_event(event)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        service.recoveries = 1
        service.last_recovery = loaded
        service.journal = Journal.open(
            path,
            fsync=fsync,
            compact_every=compact_every,
            start_seq=loaded.last_seq,
        )
        service.journal.compact(service.snapshot_state())
        if OBS.enabled:
            _RECOVERIES.add()
            _RECOVERY_REPLAY.record(elapsed_ms)
            _SESSIONS.set(len(service.registry))
        if reconcile and any(
            True for _ in service.registry.live_sessions()
        ):
            service._note_churn(clock())
        return service

    def crash(self) -> None:
        """Simulate abrupt death (tests and chaos scenarios only).

        Unlike :meth:`drain`, nothing graceful happens: no shutdown
        notices, no final compaction — the journal descriptor is just
        released so :meth:`recover` reads exactly what the appends made
        durable.  The dead instance's pending timers become no-ops.
        """
        self._draining = True
        self._watchdog_interval = None
        self._subscribers.clear()
        if self.journal is not None:
            self.journal.close()
        self._release_workers()

    def _release_workers(self) -> None:
        """Shut down this service's scoring pool (drain/crash paths).

        The pool registry is process-wide, so this only matters when the
        service goes away for good — a recovered service respawns a
        fresh pool lazily on its next big score batch (asserted by the
        ``serve-crash-restart`` replay).
        """
        if self.model.workers > 0:
            from repro.core.parallel import release_pool

            release_pool(self.model.workers)

    # -- queries / shutdown ---------------------------------------------

    def current_allocation(self) -> dict[str, tuple[int, ...]]:
        """Per-session thread counts of the last re-optimization."""
        return dict(self._allocation)

    def current_score(self) -> float | None:
        """Scalar-model score of the current allocation (None = empty)."""
        return self._score

    @property
    def delta_fallbacks(self) -> int:
        """Full-search fall-backs the delta searcher took (0 = full mode)."""
        return self.delta.fallbacks if self.delta is not None else 0

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` was called; admission is closed."""
        return self._draining

    def thread_command(self, name: str) -> ThreadCommand:
        """The current allocation of ``name`` as an agent-wire command.

        This is the bridge to everything that speaks the PR-3 protocol:
        :class:`~repro.agent.protocol.RuntimeEndpoint` adapters and the
        :class:`~repro.faults.proxy.InjectionProxy` chaos path apply
        exactly this command.
        """
        per_node = self._allocation.get(name)
        if per_node is None:
            raise ServiceError(f"no allocation for session '{name}'")
        return ThreadCommand(
            kind=CommandKind.SET_ALLOCATION, per_node=per_node
        )

    def drain(self, reason: str = "draining") -> None:
        """Graceful shutdown: close admission, notify every session.

        Existing sessions get a final
        :class:`~repro.serve.protocol.ShutdownNotice`; the pending
        debounce timer (if armed) becomes a no-op.  Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        self._watchdog_interval = None
        notice = ShutdownNotice(reason=reason)
        for name, push in list(self._subscribers.items()):
            push(notice)
        self._subscribers.clear()
        for session in list(self.registry.live_sessions()):
            self.registry.remove(session.name)
            self._journal_event(
                {"kind": "deregister", "name": session.name}
            )
        if self.journal is not None and not self.journal.closed:
            # Final compaction so a later recover() starts from the
            # drained state instead of replaying the whole history.
            self.journal.compact(self.snapshot_state())
            self.journal.close()
        self._release_workers()
        if OBS.enabled:
            _SESSIONS.set(0)
