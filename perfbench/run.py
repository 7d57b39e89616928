"""Serve-path benchmark of the allocation service: one workload, one seed.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload churn-delta --seed 1 \\
        --seconds 30 --trace 0

A run pins the generator and the service to different CPUs (when it
may use two), launches the service (:mod:`perfbench.service`) several
times to time its set-up, keeps the last launch, registers the workload's
initial population and waits for its first allocation (warm-up), then
drives the timed window with the seeded load generator
(:mod:`perfbench.loadgen`).  After timing it deregisters everything,
stops the service and checks the outputs (:mod:`perfbench.oracle`).

Standard output: a human-readable report (host stamp, sample counts,
checks; ``INVALID RUN`` lines when the generator, not the service,
limited the window), then, as the last line, one JSON object with the
keys ``correct`` (the output checks passed), ``attempted``, ``failed``
and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the workload untraced and then traced and reports the per-layer
metrics, the layer budget and the tracing overhead.

The command round trip (ack p50 and tail) and the first-allocation
tail are printed in the report but are not metrics of
``BENCHMARK.json``: at a few milliseconds they follow how fast a
shared host wakes an idle virtual CPU, not the program.  Over two
ten-seed sets on a 2-vCPU VM the report-durable ack p50 ranged from
1.3 to 6.8 ms (quartile spreads 0.53 and 0.76 of the median), against
0.04 and 0.10 for the service's CPU per command.

Exit status: 0 with a result; 1 when the run failed (service crash,
warm-up that never settles); 2 when there is no program to measure;
3 when the run overran its deadline.  The service process is always
stopped.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

if __package__ in (None, ""):
    # Run as a script: import the benchmark as the ``perfbench``
    # package, not its modules as top-level names.
    sys.path[:] = [str(SRC), str(ROOT)] + [
        p for p in sys.path if not p or Path(p).resolve() != HERE
    ]

from perfbench import oracle, stats  # noqa: E402
from perfbench.layers import moves_of  # noqa: E402
from perfbench.loadgen import Driver  # noqa: E402
from perfbench.workloads import REGISTER, WORKLOADS, schedule  # noqa: E402

#: Service launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 7
#: Seconds the whole run may take before it is abandoned.
RUN_DEADLINE = 165.0
#: Seconds to wait for a service to come up, for warm-up, for the
#: stragglers after the window and for teardown.
START_TIMEOUT = 60.0
SETTLE_TIMEOUT = 20.0
#: The generator, not the service, limits a run when its send lag p99
#: exceeds this (ms) or it is busier than this share of the window;
#: such a run is marked invalid in its report.  Its outputs are checked
#: all the same, and ``correct`` speaks only of them.
LAG_LIMIT_MS = 25.0
CPU_LIMIT = 0.9
#: A small gap between the warm-up and the timed window.
LEAD_IN = 0.1
#: CPU nanoseconds of one calibration round on the reference CPU that
#: ``cmds_per_cpu_s`` is scaled to (see :func:`cmds_per_cpu_s`).
REFERENCE_ROUND_NS = 1.0e6

_children: set[int] = set()


class RunFailed(Exception):
    """The run could not produce a result."""


@dataclass
class Pass:
    """Everything one pass over the workload measured."""

    setups: list[float]
    driver: Driver
    final: dict
    seconds: float
    loadgen_cpu: float
    service_cpu: float
    alloc_quality: float = 0.0
    checked_epochs: list[int] = field(default_factory=list)
    #: output check failures
    problems: list[str] = field(default_factory=list)
    #: why the generator, not the service, limited the window
    invalid: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def _cpu_seconds(pid: int) -> float:
    """CPU seconds the threads of process ``pid`` have run so far, to the
    nanosecond (``/proc/PID/stat`` counts whole clock ticks)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
    return total / 1e9


def pin_cpus() -> int | None:
    """Pin this process (the generator) to the first CPU it may use and
    return the second for the service, so neither migrates or competes
    with the other; ``None`` (no pinning) on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


class ServiceProcess:
    """One service launch; always terminated on the way out."""

    def __init__(self, workload, workdir: Path, trace: bool, index: int,
                 cpu: int | None):
        self.workload = workload
        self.cpu = cpu
        self.workdir = workdir
        self.trace = trace
        self.index = index
        self.proc = None
        self.port = 0
        self.setup_s = 0.0
        self.log = None

    async def __aenter__(self) -> "ServiceProcess":
        journal = None
        if self.workload.journal:
            journal = str(self.workdir / f"journal-{self.index}")
        config = {
            "mode": self.workload.mode,
            "report_interval": self.workload.report_interval,
            "journal": journal,
            "trace": self.trace,
            "cpu": self.cpu,
        }
        env = dict(os.environ)
        env.pop("REPRO_WORKERS", None)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        self.log = open(self.workdir / f"service-{self.index}.log", "wb")
        t0 = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.service", json.dumps(config),
            cwd=str(ROOT), env=env, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, stderr=self.log,
        )
        _children.add(self.proc.pid)
        try:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), START_TIMEOUT
            )
            ready = json.loads(line) if line.strip() else {}
            if not ready.get("ready"):
                raise RunFailed(f"service did not start: {self.log_tail()}")
            self.port = ready["port"]
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            writer.write(b'{"type":"query-allocation","name":"setup-probe"}\n')
            reply = await asyncio.wait_for(reader.readline(), START_TIMEOUT)
            self.setup_s = time.perf_counter() - t0
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
            if json.loads(reply).get("code") != "unknown-session":
                raise RunFailed(f"unexpected first answer {reply!r}")
        except BaseException:
            await self.__aexit__(None, None, None)
            raise
        return self

    async def control(self, line: str) -> None:
        """Send one control line (``start``/``stop``) to the service."""
        self.proc.stdin.write(line.encode() + b"\n")
        await self.proc.stdin.drain()

    async def finish(self) -> dict:
        """Drain the service gracefully; its final stats."""
        self.proc.stdin.close()
        final = None
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 30.0)
            if not line:
                break
            final = json.loads(line).get("final", final)
        await asyncio.wait_for(self.proc.wait(), 30.0)
        if self.proc.returncode != 0 or final is None:
            raise RunFailed(
                f"service exited {self.proc.returncode}: {self.log_tail()}"
            )
        return final

    def log_tail(self) -> str:
        self.log.flush()
        text = (self.workdir / f"service-{self.index}.log").read_text(
            errors="replace"
        )
        return text[-2000:] or "(no output)"

    async def __aexit__(self, *exc) -> None:
        proc = self.proc
        if proc is not None and proc.returncode is None:
            proc.terminate()
            try:
                await asyncio.wait_for(proc.wait(), 5.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        if proc is not None:
            _children.discard(proc.pid)
        if self.log is not None:
            self.log.close()


async def one_pass(workload, plan, args, workdir: Path, *, trace: bool,
                   launches: int, cpu: int | None) -> Pass:
    """Set up, warm up, drive the window, tear down, check."""
    setups = []
    for index in range(launches - 1):
        async with ServiceProcess(workload, workdir, False, index, cpu) as svc:
            setups.append(svc.setup_s)
            await svc.finish()
    tag = launches - 1 + (100 if trace else 0)
    async with ServiceProcess(workload, workdir, trace, tag, cpu) as svc:
        setups.append(svc.setup_s)
        driver = Driver(dict(plan.specs))
        await driver.connect(svc.port)
        try:
            if not await driver.arrive(plan.initial, START_TIMEOUT):
                raise RunFailed(f"warm-up never settled: {driver.problems[:3]}")
            warm_epoch = max(ack[0] for ack in driver.membership)
            await svc.control("start")
            if not await driver.probe(plan.probes, START_TIMEOUT):
                raise RunFailed(f"probes never settled: {driver.problems[:3]}")
            start = time.monotonic() + LEAD_IN
            cpu0, svc_cpu0 = time.process_time(), _cpu_seconds(svc.proc.pid)
            await driver.run_open(plan.events, start, args.seconds)
            loadgen_cpu = (time.process_time() - cpu0) / args.seconds
            service_cpu = (_cpu_seconds(svc.proc.pid) - svc_cpu0) / args.seconds
            await driver.settle(SETTLE_TIMEOUT)
            await svc.control("stop")
            window_epochs = set(driver.pushes)
            if not await driver.teardown(SETTLE_TIMEOUT):
                driver.problems.append("teardown never settled")
        finally:
            await driver.close()
        final = await svc.finish()
    if not driver.latency or not driver.first_allocations():
        raise RunFailed(f"no samples in the window: {driver.problems[:3]}")
    result = Pass(setups, driver, final, args.seconds, loadgen_cpu, service_cpu)
    result.problems.extend(driver.problems)
    check(result, workload, window_epochs, warm_epoch, args.seed)
    return result


def check(result: Pass, workload, window_epochs: set[int], warm: int,
          seed: int) -> None:
    """Output checks, whose failures go to ``problems``, and generator
    health, whose failures go to ``invalid``.

    ``warm`` is the registry epoch once the initial population is
    allocated; the oracle samples the epochs pushed after it (churn or
    probes).
    """
    from repro.machine import model_machine

    driver = result.driver
    machine = model_machine()
    try:
        pushed = sorted(driver.pushes)
        workloads = oracle.rebuild_workloads(driver.membership, pushed)
        oracle.check_pushes(driver.pushes, workloads, machine.cores_per_node)
        candidates = [e for e in window_epochs if e > warm] or window_epochs
        result.checked_epochs = oracle.sample_epochs(
            candidates, workload.oracle_epochs, seed
        )
        result.alloc_quality = oracle.judge(
            machine, workloads, driver.pushes, result.checked_epochs,
            exact=workload.mode == "full",
        )
    except oracle.CheckError as exc:
        result.problems.append(str(exc))
    result.invalid.extend(generator_health(driver.lag, result.loadgen_cpu))


def generator_health(lag: list[float], cpu_share: float) -> list[str]:
    """Why the generator, not the service, limited the window: its send
    lag (seconds) and the share of the window it was busy.  Empty when
    the run is valid."""
    invalid = []
    lag_p99 = 1e3 * stats.percentile(lag, 99)
    if lag_p99 > LAG_LIMIT_MS:
        invalid.append(f"generator send lag p99 {lag_p99:.1f} ms")
    if cpu_share > CPU_LIMIT:
        invalid.append(f"generator busy {cpu_share:.0%} of the window")
    return invalid


def end_to_end(p: Pass) -> dict[str, float]:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` for one pass."""
    return {
        "setup_s": statistics.median(p.setups),
        "peak_rss_mb": p.final["rss_mb"],
        "first_alloc_p50_ms": first_alloc_p50_ms(p),
        "cmds_per_cpu_s": cmds_per_cpu_s(p),
        "alloc_quality": p.alloc_quality,
        "ok_share": 1.0 - failed_commands(p.driver) / p.driver.attempted,
    }


def ack_p50_ms(p: Pass) -> float:
    """Median command round trip, from when the command was due."""
    return 1e3 * stats.percentile(p.driver.latency, 50)


def first_alloc_p50_ms(p: Pass) -> float:
    """Median time from a register's due time to its first push."""
    return 1e3 * stats.percentile(p.driver.first_allocations(), 50)


def cmds_per_cpu_s(p: Pass) -> float:
    """Commands completed in the window per CPU-second the service spent
    in it, scaled to a reference CPU.

    Unlike commands per wall-second it is set by the service alone: the
    schedule fixes how many commands arrive, and time the service spends
    waiting -- for its CPU, for an fsync -- does not count against it.
    A shared host also changes how fast the CPU runs from one second to
    the next, so the service measures that speed with calibration rounds
    while it is timed, and its CPU time is scaled to a CPU on which one
    round takes :data:`REFERENCE_ROUND_NS`."""
    speed = REFERENCE_ROUND_NS / p.final["calibration_ns"]
    return p.driver.completed / (p.service_cpu * p.seconds * speed)


def failed_commands(d: Driver) -> int:
    """Timed commands refused, errored or unanswered, plus timed
    registrations that never got an allocation."""
    return d.failed + d.timed_out() + d.missing_allocations()


def loadgen_metrics(p: Pass) -> dict[str, float]:
    """The generator's own health numbers."""
    return {
        "loadgen.lag_p99_ms": 1e3 * stats.percentile(p.driver.lag, 99),
        "loadgen.cpu_share": p.loadgen_cpu,
    }


def host_stamp(seed: int) -> str:
    """Where and with what this report was measured."""
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return (
        f"host: nproc={os.cpu_count()} "
        f"effective_cpus={len(os.sched_getaffinity(0))} cpu={model!r} "
        f"python={platform.python_version()} numpy={numpy} seed={seed}"
    )


def describe(p: Pass, workload, label: str) -> list[str]:
    """Report lines of one pass."""
    d = p.driver
    first = d.first_allocations()
    ack_q, ack_tail = stats.tail(d.latency)
    first_q, first_tail = stats.tail(first)
    source = "probes" if workload.probes else "churn registers"
    lines = [
        f"{label}: window {p.seconds:g} s, attempted {d.attempted}, "
        f"failed {failed_commands(d)} (errors {dict(d.error_codes)}, unanswered "
        f"{d.timed_out()}, unallocated {d.missing_allocations()}), "
        f"completed {d.completed}",
        f"{label}: ack p50 {ack_p50_ms(p):.3f} ms, "
        f"tail {ack_q} {1e3 * ack_tail:.3f} ms (n={len(d.latency)})",
        f"{label}: first_alloc ({source}) p50 "
        f"{first_alloc_p50_ms(p):.3f} ms, tail {first_q} "
        f"{1e3 * first_tail:.3f} ms (n={len(first)})",
        f"{label}: loadgen lag p99 {1e3 * stats.percentile(d.lag, 99):.3f} ms, "
        f"loadgen cpu {p.loadgen_cpu:.0%}, service cpu {p.service_cpu:.0%}, "
        f"skipped heartbeats {d.skipped_beats}",
        f"{label}: throughput {d.completed / p.seconds:.1f} commands/s, "
        f"{d.completed / (p.service_cpu * p.seconds):.1f} per service "
        f"CPU-second, {cmds_per_cpu_s(p):.1f} scaled to the reference CPU "
        f"(calibration round {p.final['calibration_ns'] / 1e6:.3f} ms)",
        f"{label}: checks: {len(d.pushes)} epochs pushed, "
        f"{len(p.checked_epochs)} against the offline optimum "
        f"{p.checked_epochs}, alloc_quality {p.alloc_quality!r}",
    ]
    if p.setups:
        lines.append(
            f"{label}: setup_s median of {len(p.setups)} launches: "
            + " ".join(f"{s:.3f}" for s in p.setups)
        )
    lines.extend(f"{label}: PROBLEM: {msg}" for msg in p.problems[:10])
    lines.extend(f"{label}: INVALID RUN: {msg}" for msg in p.invalid)
    return lines


def budget(p: Pass, layers: dict) -> list[str]:
    """Blocking-path layer sums of ack p50 and first_alloc p50."""
    m = layers["metrics"]
    ack = ack_p50_ms(p)
    path = m["gateway.queue_wait_ms_p50"] + layers["handle_ms_mean"]
    lines = [
        f"budget ack_p50_ms {ack:.3f} = queue wait p50 "
        f"{m['gateway.queue_wait_ms_p50']:.3f} + handle mean "
        f"{layers['handle_ms_mean']:.3f} + unexplained {ack - path:.3f} "
        f"(socket writes and client reads)"
    ]
    alloc = first_alloc_p50_ms(p)
    register = m["service.handle_us_mean.register"] / 1e3
    path = (
        m["gateway.queue_wait_ms_p50"] + register
        + m["service.debounce_wait_ms_p50"] + m["service.reopt_ms_p50"]
    )
    lines.append(
        f"budget first_alloc_p50_ms {alloc:.3f} = queue wait p50 "
        f"{m['gateway.queue_wait_ms_p50']:.3f} + register handle "
        f"{register:.3f} + debounce wait p50 "
        f"{m['service.debounce_wait_ms_p50']:.3f} + reopt p50 "
        f"{m['service.reopt_ms_p50']:.3f} + unexplained {alloc - path:.3f}"
    )
    return lines


def overhead(base: Pass, traced: Pass) -> str:
    """Traced vs untraced numbers of the same seed."""
    parts = []
    for measure in (ack_p50_ms, first_alloc_p50_ms, cmds_per_cpu_s):
        b, t = measure(base), measure(traced)
        parts.append(
            f"{measure.__name__} {b:.3f} -> {t:.3f} ({t / b - 1:+.1%})"
        )
    return "tracing overhead: " + ", ".join(parts)


async def bench(args) -> tuple[list[str], dict]:
    """Run the workload; ``(report lines, final JSON object)``."""
    workload = WORKLOADS[args.workload]
    plan = schedule(workload, args.seed, args.seconds)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        report = [
            host_stamp(args.seed),
            f"workload: {workload}",
            f"schedule: {len(plan.probes)} probes, {plan.count(REGISTER)} "
            f"churn registers, {len(plan.events)} scheduled commands",
        ]
        cpu = pin_cpus()
        report.append(
            "pinning: generator on CPU "
            f"{sorted(os.sched_getaffinity(0))}, service on CPU {cpu}"
        )
        base = await one_pass(
            workload, plan, args, workdir, trace=False,
            launches=1 if args.trace else SETUP_LAUNCHES, cpu=cpu,
        )
        report += describe(base, workload, "untraced")
        if not args.trace:
            d = base.driver
            final = {
                "correct": base.correct,
                "attempted": d.attempted,
                "failed": failed_commands(d),
                "metrics": with_units(end_to_end(base), "end_to_end"),
            }
            return report, final
        traced = await one_pass(
            workload, plan, args, workdir, trace=True, launches=1, cpu=cpu
        )
        report += describe(traced, workload, "traced")
        layers = traced.final["layers"]
        metrics = {**loadgen_metrics(traced), **layers["metrics"]}
        report += budget(traced, layers)
        report.append(overhead(base, traced))
        report.append(f"delta fallback reasons: {layers['fallback_reasons']}")
        for name, value in metrics.items():
            moves, on = moves_of(name)
            report.append(f"layer {name} = {value!r}  [moves {moves}; on {on}]")
        d = traced.driver
        final = {
            "correct": base.correct and traced.correct,
            "attempted": d.attempted,
            "failed": failed_commands(d),
            "metrics": with_units(metrics, "per_layer"),
        }
        return report, final
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def with_units(metrics: dict[str, float], section: str) -> dict[str, dict]:
    """``metrics`` as ``{name: {"value", "unit"}}`` in the order and
    with the units ``BENCHMARK.json`` lists under ``section``; a metric
    missing from either side is a bug in the benchmark."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(metrics):
        raise RunFailed(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(metrics))}"
        )
    return {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        for m in listed
    }


def _expired(signum, frame) -> None:
    """Hard deadline: kill the services, leave without a result."""
    for pid in list(_children):
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    sys.stderr.write("perfbench: run exceeded its hard deadline\n")
    os._exit(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(int(RUN_DEADLINE) + 10)
    try:
        report, final = asyncio.run(asyncio.wait_for(bench(args), RUN_DEADLINE))
    except asyncio.TimeoutError:
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 3
    except RunFailed as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for line in report:
        print(line)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
