"""Service launcher of the benchmark: one gateway in its own process.

Run as ``python3 -m perfbench.service CONFIG_JSON`` from the checkout
root with ``src`` on ``PYTHONPATH``.  The config names the service's
re-optimization ``mode``, its ``report_interval``, an optional
``journal`` directory (journaled with fsync, as deployed), the ``cpu``
to pin the process to (or ``null``) and whether to ``trace``: then the
per-layer wrappers of :mod:`perfbench.layers` are installed before the
gateway starts.

Protocol with the parent, one JSON object per stdout line:

* ``{"ready": true, "port": N}`` once the TCP listener is bound on an
  ephemeral loopback port;
* stdin lines ``start`` / ``stop`` open and close the timed stretch:
  the traced segment, and the calibration rounds that gauge the CPU's
  speed while it lasts (:func:`calibration_round`);
* end of stdin drains the gateway; the last stdout line is
  ``{"final": {"rss_mb": ..., "calibration_ns": ..., "layers": {...}
  or null}}``.

The parent's death closes stdin, so the service never outlives it.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import statistics
import sys
import time

#: Seconds between two calibration rounds while timing.
CALIBRATE_EVERY = 0.25
_CALIBRATION_LINE = json.dumps({
    "type": "progress-report", "name": "app-0000", "cpu_load": 0.5,
    "time": 12.5, "acked_epoch": 3, "progress": {"steps": 1},
})


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def calibration_round() -> int:
    """CPU nanoseconds of a fixed round of the service's kind of work
    (decoding, updating and encoding a progress report); the same round
    takes longer while the host lets this CPU run slower."""
    t0 = time.thread_time_ns()
    for _ in range(100):
        message = json.loads(_CALIBRATION_LINE)
        message["progress"]["steps"] += 1
        json.dumps(message)
    return time.thread_time_ns() - t0


async def calibrate(rounds: list[int]) -> None:
    """Run a calibration round every :data:`CALIBRATE_EVERY` seconds."""
    while True:
        await asyncio.sleep(CALIBRATE_EVERY)
        rounds.append(calibration_round())


async def serve(config: dict) -> dict:
    """Run one gateway until stdin closes; returns the final stats."""
    recorder = None
    if config["trace"]:
        from perfbench import layers

        recorder = layers.Recorder()
        layers.install(recorder)

    from repro.machine import model_machine
    from repro.serve.gateway import GatewayConfig, GatewayServer
    from repro.serve.service import ServiceConfig

    gateway = GatewayServer(
        ServiceConfig(
            machine=model_machine(),
            mode=config["mode"],
            report_interval=config["report_interval"],
        ),
        GatewayConfig(port=0),
        journal_path=config["journal"],
    )
    service = await gateway.start()
    try:
        if recorder is not None:
            recorder.attach(gateway, service)
        loop = asyncio.get_running_loop()
        control = asyncio.StreamReader()
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(control), sys.stdin
        )
        _emit({"ready": True, "port": gateway.tcp_address[1]})
        rounds: list[int] = []
        calibrating = None
        while line := await control.readline():
            word = line.decode().strip()
            if word == "start":
                calibrating = asyncio.ensure_future(calibrate(rounds))
                if recorder is not None:
                    recorder.start()
            elif word == "stop":
                if calibrating is not None:
                    calibrating.cancel()
                if recorder is not None:
                    recorder.stop()
    finally:
        await gateway.stop()
    return {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_ns": statistics.fmean(rounds) if rounds else None,
        "layers": recorder.summary() if recorder is not None else None,
    }


def main() -> int:
    config = json.loads(sys.argv[1])
    if config["cpu"] is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    _emit({"final": asyncio.run(serve(config))})
    return 0


if __name__ == "__main__":
    sys.exit(main())
