"""Live workload bookkeeping for the allocation service.

The :class:`WorkloadRegistry` is the service's single source of truth
about *who is running*: every admitted application has one
:class:`Session` carrying its :class:`~repro.core.spec.AppSpec`, its
lifecycle :class:`SessionState`, and its delivery bookkeeping (the last
allocation epoch the runtime acknowledged, the last heartbeat time).

Membership changes — admission, departure, quarantine — bump a
monotonically increasing *epoch*.  The epoch is what every
:class:`~repro.serve.protocol.AllocationUpdate` is stamped with, so a
runtime (and the service's at-least-once re-push loop) can tell a
current command from a stale one without comparing thread counts.

The registry is deliberately passive: it holds state and answers
queries (`active_specs`, `fingerprint`), while all policy — debounce,
staleness, quorum, degradation — lives in
:class:`~repro.serve.service.AllocationService`.  The lifecycle state
machine is documented in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.bwshare import RemainderRule
from repro.core.fasteval import workload_fingerprint
from repro.core.spec import AppSpec
from repro.errors import ServiceError
from repro.machine.topology import MachineTopology

__all__ = [
    "SessionState",
    "Session",
    "WorkloadRegistry",
]


class SessionState(enum.Enum):
    """Lifecycle of one admitted application.

    ``ACTIVE`` sessions shape the optimized workload.  ``QUARANTINED``
    sessions stopped reporting inside the freshness window; they keep
    their registration (a late heartbeat reactivates them) but are
    excluded from the workload the optimizer sees.  ``CLOSED`` is
    terminal: the session deregistered or the service drained.
    """

    ACTIVE = "active"
    QUARANTINED = "quarantined"
    CLOSED = "closed"


@dataclass
class Session:
    """One admitted application's mutable service-side state.

    Attributes
    ----------
    app:
        The immutable spec the workload is optimized against.
    state:
        Lifecycle position (see :class:`SessionState`).
    admitted_at:
        Service-clock time of admission; kept for diagnostics.
    last_report_time:
        Timestamp of the most recent progress report (the heartbeat the
        staleness check reads), or ``None`` before the first report.
    acked_epoch:
        Highest allocation epoch the runtime confirmed applying; the
        re-push loop retransmits while it trails the current epoch.
    pushed_epoch:
        Epoch of the last :class:`~repro.serve.protocol.AllocationUpdate`
        streamed to the session (unset until the first push).
    progress:
        Last reported application-defined progress counters.
    cpu_load:
        Last reported CPU load.
    """

    app: AppSpec
    state: SessionState = SessionState.ACTIVE
    admitted_at: float = 0.0
    last_report_time: float | None = None
    acked_epoch: int | None = None
    pushed_epoch: int | None = None
    progress: Mapping[str, float] = field(default_factory=dict)
    cpu_load: float = 0.0

    @property
    def name(self) -> str:
        """The session's (application's) unique name."""
        return self.app.name

    @property
    def active(self) -> bool:
        """True while the session shapes the optimized workload."""
        return self.state is SessionState.ACTIVE


class WorkloadRegistry:
    """Ordered registry of admitted applications.

    Admission order is preserved (`dict` insertion order) and is the
    order `active_specs` returns, so the workload handed to the
    optimizer — and therefore the
    :func:`~repro.core.fasteval.workload_fingerprint` keying the
    :class:`~repro.core.fasteval.ScoreCache` — is a pure function of
    the membership history, not of report timing.
    """

    def __init__(self, max_sessions: int | None = None) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        self.max_sessions = max_sessions
        self._sessions: dict[str, Session] = {}
        self._epoch = 0

    # -- membership -----------------------------------------------------

    def admit(self, app: AppSpec, now: float) -> Session:
        """Admit ``app``; returns its new session and bumps the epoch.

        Raises :class:`ServiceError` on a duplicate live name or when
        ``max_sessions`` is reached.  A name whose previous session is
        ``CLOSED`` may be reused.
        """
        existing = self._sessions.get(app.name)
        if existing is not None and existing.state is not SessionState.CLOSED:
            raise ServiceError(
                f"session '{app.name}' is already registered "
                f"({existing.state.value})",
                code="duplicate-session",
            )
        if self.max_sessions is not None:
            live = len(self)
            if live >= self.max_sessions:
                raise ServiceError(
                    f"admission of '{app.name}' refused: {live} sessions "
                    f"at the max_sessions={self.max_sessions} cap",
                    code="overloaded",
                )
        # Re-admission must take the *newest* position in admission
        # order, so drop the closed tombstone first.
        self._sessions.pop(app.name, None)
        session = Session(
            app=app, admitted_at=now, last_report_time=now
        )
        self._sessions[app.name] = session
        self._epoch += 1
        return session

    def remove(self, name: str) -> Session:
        """Close ``name``'s session; bumps the epoch if it was active.

        Deregistering an already-closed session (a duplicate
        ``Deregister``, or one sent after drain closed everything) is a
        deterministic error — the runtime's view of the session has
        diverged from the service's, and silently acknowledging would
        hide that.
        """
        session = self._require(name)
        if session.state is SessionState.CLOSED:
            raise ServiceError(
                f"session '{name}' is already closed",
                code="closed-session",
            )
        was_active = session.active
        session.state = SessionState.CLOSED
        if was_active:
            self._epoch += 1
        return session

    def quarantine(self, name: str) -> Session:
        """Move an active session out of the optimized workload."""
        session = self._require(name)
        if session.state is SessionState.CLOSED:
            raise ServiceError(
                f"cannot quarantine closed session '{name}'",
                code="closed-session",
            )
        if session.active:
            session.state = SessionState.QUARANTINED
            self._epoch += 1
        return session

    def reactivate(self, name: str) -> Session:
        """Return a quarantined session to the optimized workload."""
        session = self._require(name)
        if session.state is SessionState.CLOSED:
            raise ServiceError(
                f"cannot reactivate closed session '{name}'",
                code="closed-session",
            )
        if session.state is SessionState.QUARANTINED:
            session.state = SessionState.ACTIVE
            self._epoch += 1
        return session

    # -- reporting ------------------------------------------------------

    def record_report(
        self,
        name: str,
        time: float,
        progress: Mapping[str, float],
        cpu_load: float,
        acked_epoch: int | None,
    ) -> Session:
        """Fold one progress report into ``name``'s session state."""
        session = self._require(name)
        if session.state is SessionState.CLOSED:
            raise ServiceError(
                f"session '{name}' is closed; re-register first",
                code="closed-session",
            )
        last = session.last_report_time
        if last is not None and time < last:
            raise ServiceError(
                f"report time of '{name}' went backwards "
                f"({time} < {last})",
                code="backwards-report",
            )
        session.last_report_time = time
        session.progress = dict(progress)
        session.cpu_load = cpu_load
        if acked_epoch is not None:
            if session.acked_epoch is None or acked_epoch > session.acked_epoch:
                session.acked_epoch = acked_epoch
        return session

    # -- queries --------------------------------------------------------

    def _require(self, name: str) -> Session:
        session = self._sessions.get(name)
        if session is None:
            raise ServiceError(
                f"unknown session '{name}'", code="unknown-session"
            )
        return session

    def get(self, name: str) -> Session | None:
        """The session registered under ``name``, or ``None``."""
        return self._sessions.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def __len__(self) -> int:
        return sum(1 for _ in self.live_sessions())

    def live_sessions(self) -> Iterator[Session]:
        """All non-closed sessions, in admission order."""
        return (
            s
            for s in self._sessions.values()
            if s.state is not SessionState.CLOSED
        )

    def active_sessions(self) -> Iterator[Session]:
        """All active sessions, in admission order."""
        return (s for s in self._sessions.values() if s.active)

    def active_specs(self) -> tuple[AppSpec, ...]:
        """The optimized workload: active specs in admission order."""
        return tuple(s.app for s in self.active_sessions())

    @property
    def epoch(self) -> int:
        """Monotonic membership-change counter (starts at 0)."""
        return self._epoch

    # -- persistence ----------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-safe dump of the full registry, tombstones included.

        Insertion (admission) order is preserved in the ``sessions``
        list, so ``from_snapshot(to_snapshot())`` rebuilds a registry
        whose workload fingerprint — and therefore whose optimizer
        answer — is byte-identical to the original.  Equality of two
        snapshots is exactly state equality of two registries, which is
        what the crash-recovery tests assert with ``==``.
        """
        from repro.serve.protocol import app_spec_to_dict

        return {
            "epoch": self._epoch,
            "sessions": [
                {
                    "app": app_spec_to_dict(session.app),
                    "state": session.state.value,
                    "admitted_at": session.admitted_at,
                    "last_report_time": session.last_report_time,
                    "acked_epoch": session.acked_epoch,
                    "pushed_epoch": session.pushed_epoch,
                    "progress": dict(session.progress),
                    "cpu_load": session.cpu_load,
                }
                for session in self._sessions.values()
            ],
        }

    @classmethod
    def from_snapshot(
        cls, data: Mapping, max_sessions: int | None = None
    ) -> "WorkloadRegistry":
        """Rebuild a registry from :meth:`to_snapshot` output."""
        from repro.serve.protocol import app_spec_from_dict

        epoch = data.get("epoch")
        sessions = data.get("sessions")
        if not isinstance(epoch, int) or not isinstance(sessions, list):
            raise ServiceError(
                "registry snapshot needs integer 'epoch' and "
                "list 'sessions'"
            )
        registry = cls(max_sessions=max_sessions)
        for entry in sessions:
            app = app_spec_from_dict(entry["app"])
            if app.name in registry._sessions:
                raise ServiceError(
                    f"registry snapshot repeats session '{app.name}'"
                )
            registry._sessions[app.name] = Session(
                app=app,
                state=SessionState(entry["state"]),
                admitted_at=entry["admitted_at"],
                last_report_time=entry["last_report_time"],
                acked_epoch=entry["acked_epoch"],
                pushed_epoch=entry["pushed_epoch"],
                progress=dict(entry["progress"]),
                cpu_load=entry["cpu_load"],
            )
        registry._epoch = epoch
        return registry

    def fingerprint(
        self, machine: MachineTopology, rule: RemainderRule
    ) -> tuple:
        """Score-cache key of the current active workload."""
        return workload_fingerprint(machine, self.active_specs(), rule)
