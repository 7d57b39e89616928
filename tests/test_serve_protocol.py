"""The NDJSON wire protocol: every message round-trips through the
codec byte-identically, and malformed input is rejected with
`ServiceError` rather than a stack trace."""

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.core import AppSpec
from repro.errors import ServiceError
from repro.serve import (
    Ack,
    AllocationUpdate,
    Deregister,
    ErrorReply,
    ProgressReport,
    QueryAllocation,
    Register,
    ShutdownNotice,
    decode_message,
    encode_message,
)
from repro.serve.protocol import _MESSAGE_TYPES

ALL_MESSAGES = [
    Register(name="a", app=AppSpec.memory_bound("a", 0.5)),
    Register(name="b", app=AppSpec.numa_bad("b", 1.0, home_node=2)),
    Deregister(name="a"),
    ProgressReport(
        name="a",
        time=0.25,
        progress={"tasks": 12.0},
        cpu_load=0.8,
        acked_epoch=3,
    ),
    ProgressReport(name="a", time=0.0, progress={}),
    QueryAllocation(name="a"),
    Ack(name="a", epoch=4, in_reply_to="register"),
    AllocationUpdate(
        name="a",
        per_node=(2, 2, 2, 2),
        epoch=4,
        score=79.8,
        degraded=False,
    ),
    AllocationUpdate(
        name="a",
        per_node=(8, 0, 0, 0),
        epoch=9,
        score=64.0,
        degraded=True,
        in_reply_to="query-allocation",
    ),
    ErrorReply(error="duplicate session 'a'", in_reply_to="register"),
    ErrorReply(
        error="admission refused",
        in_reply_to="register",
        code="overloaded",
    ),
    ShutdownNotice(reason="draining"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_codec_round_trip(self, message):
        line = encode_message(message)
        assert "\n" not in line
        assert decode_message(line) == message

    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_encoding_is_canonical(self, message):
        # Sorted keys, compact separators: same message, same bytes.
        assert encode_message(message) == encode_message(message)
        parsed = json.loads(encode_message(message))
        assert list(parsed) == sorted(parsed)

    def test_register_preserves_app_fingerprint(self):
        app = AppSpec.numa_bad("bad", 1.0, home_node=1)
        line = encode_message(Register(name="bad", app=app))
        decoded = decode_message(line)
        assert decoded.app.fingerprint == app.fingerprint


class TestSharedEncoder:
    """``encode_message`` reuses one encoder; its bytes are unchanged."""

    MESSAGES = ALL_MESSAGES + [
        ErrorReply(error='caf\u00e9 "quoted"\n\\', code="malformed"),
        AllocationUpdate(
            name="\u00e9t\u00e9", per_node=(1, 0, 3, 2), epoch=2**40,
            score=79.80000000000001,
        ),
        ProgressReport(
            name="a", time=1e-07, progress={"z": 2.5, "a": -0.0},
            cpu_load=0.1, acked_epoch=0,
        ),
    ]

    def test_every_message_type_is_covered(self):
        assert {type(m) for m in self.MESSAGES} == set(
            _MESSAGE_TYPES.values()
        )

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_encoding_equals_json_dumps(self, message):
        assert encode_message(message) == json.dumps(
            message.to_dict(), separators=(",", ":"), sort_keys=True
        )


#: ``(label, value, accepted as a number, accepted as an epoch)``: what
#: the checks accepted before their exact-type fast paths; ``None`` is
#: an absent ``acked_epoch``, not a number.
NUMBER_CHECKS = [
    ("int", 3, True, True),
    ("float", 2.5, True, False),
    ("bool", True, False, False),
    ("numpy.float64", np.float64(1.5), True, False),
    ("numpy.int64", np.int64(7), True, True),
    ("Fraction", Fraction(1, 3), True, False),
    ("str", "1", False, False),
    ("None", None, False, True),
]


class TestNumberChecks:
    @pytest.mark.parametrize(
        "label, value, number, _", NUMBER_CHECKS,
        ids=[c[0] for c in NUMBER_CHECKS],
    )
    def test_number_fields(self, label, value, number, _):
        for data in (
            {"name": "a", "time": value},
            {"name": "a", "time": 1.0, "cpu_load": value},
            {"name": "a", "time": 1.0, "progress": {"steps": value}},
        ):
            if number:
                report = ProgressReport.from_dict(data)
                assert report.time == float(data["time"])
                assert report.cpu_load == float(data.get("cpu_load", 0.0))
            else:
                with pytest.raises(ServiceError, match="must be a number"):
                    ProgressReport.from_dict(data)

    @pytest.mark.parametrize(
        "label, value, _, epoch", NUMBER_CHECKS,
        ids=[c[0] for c in NUMBER_CHECKS],
    )
    def test_acked_epoch(self, label, value, _, epoch):
        data = {"name": "a", "time": 1.0, "acked_epoch": value}
        if epoch:
            acked = ProgressReport.from_dict(data).acked_epoch
            assert acked == value
            assert value is None or type(acked) is int
        else:
            with pytest.raises(ServiceError, match="must be an integer"):
                ProgressReport.from_dict(data)

    def test_minimum_still_applies_to_exact_types(self):
        for bad in (-1, -0.5):
            with pytest.raises(ServiceError, match=">= 0.0"):
                ProgressReport.from_dict({"name": "a", "time": bad})


class TestRejection:
    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2, 3]",
            '{"no_type": true}',
            '{"type": "warp-drive"}',
            '{"type": "register", "app": {}}',
            '{"type": "deregister"}',
            '{"type": "progress-report", "name": "a"}',
            '{"type": "progress-report", "name": "a", "time": "soon"}',
            '{"type": "progress-report", "name": "a", "time": true}',
            '{"type": "allocation", "name": "a", "per_node": []}',
            '{"type": "allocation", "name": "a", "per_node": [1, -2]}',
        ],
    )
    def test_malformed_raises_service_error(self, line):
        with pytest.raises(ServiceError):
            decode_message(line)

    def test_register_name_must_match_app(self):
        payload = json.loads(
            encode_message(
                Register(name="y", app=AppSpec.memory_bound("y", 0.5))
            )
        )
        payload["name"] = "x"  # app inside still says "y"
        with pytest.raises(ServiceError):
            decode_message(json.dumps(payload))

    def test_error_survives_codec(self):
        line = encode_message(ErrorReply(error="boom"))
        reply = decode_message(line)
        assert isinstance(reply, ErrorReply)
        assert reply.error == "boom"


class TestErrorCodes:
    """ERROR_CODES is exhaustive: every listed code is provoked by a
    real service/transport path, and the codec refuses codes that are
    not in the table."""

    def _service(self, **config_kwargs):
        from repro.machine import model_machine
        from repro.serve import AllocationService, ServiceConfig
        from repro.sim.engine import Simulator

        sim = Simulator()
        config_kwargs.setdefault("machine", model_machine())
        service = AllocationService(
            ServiceConfig(**config_kwargs),
            clock=lambda: sim.now,
            call_later=lambda delay, fn: sim.schedule(delay, fn),
        )
        return sim, service

    def test_unknown_code_rejected_by_codec(self):
        line = encode_message(ErrorReply(error="x", code="overloaded"))
        payload = json.loads(line)
        payload["code"] = "flux-capacitor"
        with pytest.raises(ServiceError):
            decode_message(json.dumps(payload))

    def test_every_code_is_provoked(self, tmp_path):
        import asyncio

        from repro.machine import model_machine
        from repro.serve import (
            ERROR_CODES,
            GatewayConfig,
            GatewayServer,
            ServiceConfig,
        )

        mem = AppSpec.memory_bound("mem", 0.5)
        bad = AppSpec.numa_bad("bad", 1.0, home_node=0)
        codes: dict[str, str] = {}

        sim, service = self._service()
        codes["unsupported"] = service.handle(
            Ack(name="x", epoch=1, in_reply_to="register")
        ).code
        codes["unknown-session"] = service.handle(
            ProgressReport(name="ghost", time=0.0, progress={})
        ).code
        service.handle(Register(name="mem", app=mem))
        codes["duplicate-session"] = service.handle(
            Register(name="mem", app=mem)
        ).code
        # Debounce has not fired yet: nothing computed to query.
        codes["no-allocation"] = service.handle(
            QueryAllocation(name="mem")
        ).code
        service.handle(ProgressReport(name="mem", time=0.5, progress={}))
        codes["backwards-report"] = service.handle(
            ProgressReport(name="mem", time=0.4, progress={})
        ).code
        service.handle(Deregister(name="mem"))
        codes["closed-session"] = service.handle(
            ProgressReport(name="mem", time=1.0, progress={})
        ).code

        _, capped = self._service(max_sessions=1)
        capped.handle(Register(name="mem", app=mem))
        codes["overloaded"] = capped.handle(
            Register(name="bad", app=bad)
        ).code
        capped.drain("bye")
        codes["draining"] = capped.handle(
            Register(name="late", app=AppSpec.memory_bound("late", 0.5))
        ).code

        _, strict = self._service(command_deadline=0.01)
        strict.handle(Register(name="mem", app=mem))
        codes["deadline-exceeded"] = strict.handle(
            ProgressReport(name="mem", time=0.0, progress={}),
            received_at=-0.2,  # queued 0.2 s on a clock stuck at 0
        ).code

        # A service invariant without a more specific code of its own.
        _, broken = self._service()
        def violate(*args, **kwargs):
            raise ServiceError("invariant violated")
        broken.registry.admit = violate
        codes["invalid-request"] = broken.handle(
            Register(name="x", app=AppSpec.memory_bound("x", 0.5))
        ).code

        # Transport-level codes need the real socket: the gateway's
        # unix listener.
        socket_path = str(tmp_path / "codes.sock")

        async def transport():
            server = GatewayServer(
                ServiceConfig(machine=model_machine()),
                GatewayConfig(
                    port=None, unix_path=socket_path, max_line_bytes=1024
                ),
            )
            await server.start()
            reader, writer = await asyncio.open_unix_connection(
                socket_path
            )
            writer.write(b"\xff\xfe not utf-8\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            codes["malformed"] = decode_message(
                line.decode("utf-8")
            ).code
            writer.write(b"x" * 5000 + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            codes["frame-too-large"] = decode_message(
                line.decode("utf-8")
            ).code
            writer.close()
            await server.stop()

        asyncio.run(asyncio.wait_for(transport(), timeout=20.0))

        assert set(codes) == set(ERROR_CODES)
        for code, observed in codes.items():
            assert observed == code, f"{code} provoked {observed!r}"
