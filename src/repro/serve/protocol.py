"""The allocation service's newline-delimited-JSON wire protocol.

One message per line, one JSON object per message, a ``type`` tag on
every object.  Four request types flow from a runtime to the service —
``register``, ``deregister``, ``progress-report``, ``query-allocation``
— and three reply/stream types flow back: ``ack``, ``allocation``
(both as the direct reply to a request, marked by ``in_reply_to``, and
as an unsolicited pushed update when a re-optimization changes the
session's thread counts), ``error``, plus a terminal ``shutdown``
notice sent to every connected session when the service drains.

The codec is strict both ways: :func:`decode_message` validates field
presence, types, and value ranges before anything reaches the service
core, so a malformed line is rejected at the socket with a
:class:`~repro.errors.ServiceError` instead of corrupting the registry;
:func:`encode_message` always emits a single ``\\n``-free line.  The
full message reference lives in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.spec import AppSpec, Placement
from repro.errors import ServiceError

__all__ = [
    "ERROR_CODES",
    "Register",
    "Deregister",
    "ProgressReport",
    "QueryAllocation",
    "Ack",
    "AllocationUpdate",
    "ErrorReply",
    "ShutdownNotice",
    "app_spec_to_dict",
    "app_spec_from_dict",
    "encode_message",
    "decode_message",
]

#: Every machine-readable rejection code an :class:`ErrorReply` may
#: carry, with what each one means.  This table is the single place a
#: code is minted: the codec rejects unknown codes, and
#: ``tests/test_serve_protocol.py`` asserts that every code here is
#: actually produced by some service path (and none is produced that
#: is not here), so the set cannot drift silently.
ERROR_CODES: dict[str, str] = {
    "malformed": "the wire line failed JSON or message validation",
    "unsupported": "a reply/stream type was sent as a request",
    "invalid-request": "the request violated a service invariant",
    "unknown-session": "no session is registered under that name",
    "duplicate-session": "a live session already holds that name",
    "closed-session": "the named session already deregistered/closed",
    "overloaded": (
        "admission refused, retry later: the connection cap, the rate "
        "limit, the admission queue or the max_sessions cap is full"
    ),
    "draining": "the service is shutting down; admission is closed",
    "backwards-report": "the report's timestamp went backwards",
    "no-allocation": "no allocation has been computed yet",
    "deadline-exceeded": "the command sat queued past its deadline",
    "frame-too-large": "the NDJSON line exceeded the frame cap",
}


def app_spec_to_dict(spec: AppSpec) -> dict:
    """JSON-safe form of an :class:`~repro.core.spec.AppSpec`."""
    return {
        "name": spec.name,
        "arithmetic_intensity": spec.arithmetic_intensity,
        "placement": spec.placement.value,
        "home_node": spec.home_node,
        "peak_gflops_per_thread": spec.peak_gflops_per_thread,
    }


def app_spec_from_dict(data: Mapping) -> AppSpec:
    """Inverse of :func:`app_spec_to_dict`; validates via ``AppSpec``."""
    if not isinstance(data, Mapping):
        raise ServiceError(f"'app' must be an object, got {data!r}")
    unknown = set(data) - {
        "name",
        "arithmetic_intensity",
        "placement",
        "home_node",
        "peak_gflops_per_thread",
    }
    if unknown:
        raise ServiceError(f"unknown app fields: {sorted(unknown)}")
    try:
        placement = Placement(data.get("placement", "numa-perfect"))
    except ValueError as exc:
        raise ServiceError(
            f"unknown placement {data.get('placement')!r} "
            f"(choose from {[p.value for p in Placement]})"
        ) from exc
    try:
        return AppSpec(
            name=data.get("name", ""),
            arithmetic_intensity=data.get("arithmetic_intensity", 0.0),
            placement=placement,
            home_node=data.get("home_node"),
            peak_gflops_per_thread=data.get("peak_gflops_per_thread"),
        )
    except Exception as exc:
        raise ServiceError(f"invalid app spec: {exc}") from exc


def _require_name(data: Mapping, msg_type: str) -> str:
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ServiceError(
            f"'{msg_type}' needs a non-empty string 'name', got {name!r}"
        )
    return name


def _require_number(value, what: str, *, minimum: float | None = None):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ServiceError(f"{what} must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ServiceError(f"{what} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class Register:
    """Admission request: a new application joins the live workload."""

    name: str
    app: AppSpec

    TYPE = "register"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {
            "type": self.TYPE,
            "name": self.name,
            "app": app_spec_to_dict(self.app),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Register":
        """Parse and validate the wire form."""
        name = _require_name(data, cls.TYPE)
        app = app_spec_from_dict(data.get("app"))
        if app.name != name:
            raise ServiceError(
                f"register name {name!r} does not match app name "
                f"{app.name!r}"
            )
        return cls(name=name, app=app)


@dataclass(frozen=True, slots=True)
class Deregister:
    """Departure notice: the application leaves the live workload."""

    name: str

    TYPE = "deregister"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {"type": self.TYPE, "name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Deregister":
        """Parse and validate the wire form."""
        return cls(name=_require_name(data, cls.TYPE))


@dataclass(frozen=True, slots=True)
class ProgressReport:
    """Periodic heartbeat with application-defined progress counters.

    ``acked_epoch`` is the allocation epoch the runtime last *applied*;
    when it trails the service's current epoch the service re-pushes the
    session's allocation, giving command delivery at-least-once
    semantics over a lossy path (see ``docs/SERVICE.md``).
    """

    name: str
    time: float
    progress: Mapping[str, float] = field(default_factory=dict)
    cpu_load: float = 0.0
    acked_epoch: int | None = None

    TYPE = "progress-report"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {
            "type": self.TYPE,
            "name": self.name,
            "time": self.time,
            "progress": dict(self.progress),
            "cpu_load": self.cpu_load,
            "acked_epoch": self.acked_epoch,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProgressReport":
        """Parse and validate the wire form."""
        name = _require_name(data, cls.TYPE)
        time = _require_number(data.get("time"), "'time'", minimum=0.0)
        progress = data.get("progress", {})
        if not isinstance(progress, Mapping):
            raise ServiceError(
                f"'progress' must be an object, got {progress!r}"
            )
        for key, value in progress.items():
            if not isinstance(key, str):
                raise ServiceError(f"progress keys must be strings: {key!r}")
            _require_number(value, f"progress[{key!r}]")
        cpu_load = _require_number(
            data.get("cpu_load", 0.0), "'cpu_load'", minimum=0.0
        )
        acked = data.get("acked_epoch")
        if acked is not None:
            if isinstance(acked, bool) or not isinstance(
                acked, numbers.Integral
            ):
                raise ServiceError(
                    f"'acked_epoch' must be an integer, got {acked!r}"
                )
            acked = int(acked)
        return cls(
            name=name,
            time=float(time),
            progress=dict(progress),
            cpu_load=float(cpu_load),
            acked_epoch=acked,
        )


@dataclass(frozen=True, slots=True)
class QueryAllocation:
    """Pull request for the session's current per-node thread counts."""

    name: str

    TYPE = "query-allocation"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {"type": self.TYPE, "name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping) -> "QueryAllocation":
        """Parse and validate the wire form."""
        return cls(name=_require_name(data, cls.TYPE))


@dataclass(frozen=True, slots=True)
class Ack:
    """Positive reply to a request that returns no allocation."""

    name: str
    epoch: int
    in_reply_to: str

    TYPE = "ack"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {
            "type": self.TYPE,
            "name": self.name,
            "epoch": self.epoch,
            "in_reply_to": self.in_reply_to,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Ack":
        """Parse the wire form."""
        return cls(
            name=_require_name(data, cls.TYPE),
            epoch=int(data.get("epoch", 0)),
            in_reply_to=str(data.get("in_reply_to", "")),
        )


@dataclass(frozen=True, slots=True)
class AllocationUpdate:
    """One session's thread counts: the service's downward command.

    Sent as the direct reply to ``query-allocation`` (``in_reply_to``
    set) and pushed unsolicited after every re-optimization that
    changes the session's counts (``in_reply_to`` is ``None``).
    ``per_node`` is exactly a ``SET_ALLOCATION``
    :class:`~repro.agent.protocol.ThreadCommand` payload.
    """

    name: str
    per_node: tuple[int, ...]
    epoch: int
    score: float
    degraded: bool = False
    in_reply_to: str | None = None

    TYPE = "allocation"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {
            "type": self.TYPE,
            "name": self.name,
            "per_node": list(self.per_node),
            "epoch": self.epoch,
            "score": self.score,
            "degraded": self.degraded,
            "in_reply_to": self.in_reply_to,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AllocationUpdate":
        """Parse and validate the wire form."""
        name = _require_name(data, cls.TYPE)
        per_node = data.get("per_node")
        if not isinstance(per_node, (list, tuple)) or not per_node:
            raise ServiceError(
                f"'per_node' must be a non-empty array, got {per_node!r}"
            )
        for x in per_node:
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ServiceError(
                    f"per_node entries must be integers, got {x!r}"
                )
            if x < 0:
                raise ServiceError(
                    f"per_node entries must be >= 0, got {x}"
                )
        reply_to = data.get("in_reply_to")
        return cls(
            name=name,
            per_node=tuple(int(x) for x in per_node),
            epoch=int(data.get("epoch", 0)),
            score=float(
                _require_number(data.get("score", 0.0), "'score'")
            ),
            degraded=bool(data.get("degraded", False)),
            in_reply_to=None if reply_to is None else str(reply_to),
        )


@dataclass(frozen=True, slots=True)
class ErrorReply:
    """Negative reply: the request was rejected (session state intact).

    ``code`` is one of :data:`ERROR_CODES` (or ``None`` for a legacy
    peer) so clients can branch on the kind of rejection — retry later
    on ``overloaded``, re-register on ``unknown-session`` — without
    parsing the human-readable ``error`` text.
    """

    error: str
    in_reply_to: str | None = None
    code: str | None = None

    TYPE = "error"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {
            "type": self.TYPE,
            "error": self.error,
            "in_reply_to": self.in_reply_to,
            "code": self.code,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ErrorReply":
        """Parse the wire form."""
        error = data.get("error")
        if not isinstance(error, str) or not error:
            raise ServiceError(
                f"'error' must be a non-empty string, got {error!r}"
            )
        code = data.get("code")
        if code is not None and code not in ERROR_CODES:
            raise ServiceError(
                f"unknown error code {code!r} "
                f"(known: {sorted(ERROR_CODES)})"
            )
        reply_to = data.get("in_reply_to")
        return cls(
            error=error,
            in_reply_to=None if reply_to is None else str(reply_to),
            code=code,
        )


@dataclass(frozen=True, slots=True)
class ShutdownNotice:
    """Terminal stream message: the service is draining; re-register
    against the replacement instance."""

    reason: str = "draining"

    TYPE = "shutdown"

    def to_dict(self) -> dict:
        """Wire form of the message."""
        return {"type": self.TYPE, "reason": self.reason}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ShutdownNotice":
        """Parse the wire form."""
        return cls(reason=str(data.get("reason", "draining")))


#: Wire tag -> message class, for :func:`decode_message`.
_MESSAGE_TYPES = {
    cls.TYPE: cls
    for cls in (
        Register,
        Deregister,
        ProgressReport,
        QueryAllocation,
        Ack,
        AllocationUpdate,
        ErrorReply,
        ShutdownNotice,
    )
}


def encode_message(message) -> str:
    """Render a message as one newline-free JSON line (no trailing ``\\n``)."""
    try:
        data = message.to_dict()
    except AttributeError as exc:
        raise ServiceError(
            f"not a protocol message: {message!r}"
        ) from exc
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


def decode_message(line: str):
    """Parse one wire line into its message object.

    Raises
    ------
    ServiceError
        On malformed JSON, a missing/unknown ``type`` tag, or any field
        that fails the message's validation.
    """
    line = line.strip()
    if not line:
        raise ServiceError("empty protocol line")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ServiceError(
            f"protocol line must be a JSON object, got {type(data).__name__}"
        )
    msg_type = data.get("type")
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ServiceError(
            f"unknown message type {msg_type!r} "
            f"(known: {sorted(_MESSAGE_TYPES)})"
        )
    return cls.from_dict(data)
