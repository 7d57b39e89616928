"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``report``
    Regenerate every paper table/figure and print the full report.
``run <experiment-id>``
    Run one experiment (ids: ``table1 table2 fig1 fig2 fig3 table3
    oversub sublinear library distributed calibration``).
``list``
    List experiment ids with their titles.
``describe <preset>``
    Print a machine preset (``model``, ``skylake``, ``numa-bad``,
    ``knl-flat``, ``knl-snc4``) in the parseable topology format.
``trace <target>``
    Run an instrumented demo workload (``quickstart``, ``optimizer``,
    ``agent``) under :mod:`repro.obs` and print a span/metric summary;
    ``--export chrome --out trace.json`` writes a file that loads in
    ``chrome://tracing`` (``--export jsonl`` for JSON-lines).
``bench``
    Benchmark the batched/cached model-evaluation fast path
    (:mod:`repro.core.fasteval`) against the scalar reference model and
    time every search on both paths.  ``--json`` prints the report as
    JSON, ``--out`` writes it to a file (``BENCH_model.json`` is the
    committed baseline), ``--smoke`` is the quick CI mode, and
    ``--min-speedup`` / ``--max-delta-ms`` gate the exit code on the
    exhaustive-search speedup (default 5x) and the steady-state
    incremental re-optimization latency (default 1 ms).
``check [paths]``
    Run the project's static-analysis suite (:mod:`repro.lint`): the
    per-file AST rules and the whole-program rules (call graph, async
    safety, replay determinism, metric drift) over ``paths`` (default
    ``src``) plus the machine preset invariant checker.  Warm runs are
    incremental via a content-hash cache (``--no-cache`` disables).
    ``--rules`` with no ids prints the rule catalogue; ``--json`` /
    ``--sarif [PATH]`` emit machine-readable findings; findings ratchet
    against ``lint-baseline.json`` (``--update-baseline`` rewrites it,
    ``--no-baseline`` ignores it); ``--fail-on {error,warning}``
    controls the exit-code gate.
``chaos <scenario>``
    Run a fault-injection recovery scenario against the agent
    (:mod:`repro.faults`): ``crash-one``, ``flaky-reports`` or
    ``lossy-links``.  Prints a recovery report and exits non-zero when
    the scenario's recovery criteria are not met; ``--seed`` replays a
    different (still deterministic) fault sequence, ``--json`` emits
    the report as JSON.  The allocation service's fault drills run
    under ``serve --scenario``.
``serve``
    Run the long-running allocation service (:mod:`repro.serve`).
    ``--scenario <name>`` replays a seeded join/leave churn script on
    the DES clock (``churn-basic``, ``churn-burst``, ``churn-stale``,
    ``churn-cache``, ``serve-crash-restart``), or one of the fault
    drills ``serve-crash`` (a crash and dropped commands),
    ``serve-restart`` (the journal corrupted three ways before
    recovery) and ``serve-overload`` (admission overflow, a shed report
    flood, a queued-stale command), and exits non-zero when the
    scenario's criteria — including byte-identity of the final
    allocation with the offline optimizer — are not met.  ``--mode
    delta`` routes churn through the incremental
    :class:`~repro.core.delta.DeltaSearch` instead of the full
    per-event search (the oracle check still applies).  ``--journal
    DIR`` enables the :mod:`repro.serve.persist` write-ahead journal
    (for replays *and* the daemon; a daemon restarted on a non-empty
    journal directory recovers its pre-crash state).  ``--socket
    PATH`` and/or ``--tcp [HOST:]PORT`` (plus ``--http [HOST:]PORT``)
    instead run the :class:`~repro.serve.gateway.GatewayServer` daemon
    on those listeners until SIGINT or SIGTERM drains it (``--machine``
    picks the topology preset), every peer under the same admission
    control (connection caps, bounded admission queue, idle deadlines
    — see ``docs/GATEWAY.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import EXPERIMENTS, full_report, run_experiment
from repro.machine import (
    knl_flat,
    knl_snc4,
    model_machine,
    numa_bad_example_machine,
    skylake_4s,
)
from repro.machine.parser import format_topology
from repro.obs.demo import TRACE_TARGETS

_PRESETS = {
    "model": model_machine,
    "skylake": skylake_4s,
    "numa-bad": numa_bad_example_machine,
    "knl-flat": knl_flat,
    "knl-snc4": knl_snc4,
}


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'NUMA-aware CPU core allocation in "
        "cooperating dynamic applications' (IPPS 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("report", help="run every experiment")
    runp = sub.add_parser("run", help="run one experiment by id")
    runp.add_argument("experiment", choices=sorted(EXPERIMENTS))
    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("api", help="print the public API reference")
    desc = sub.add_parser("describe", help="print a machine preset")
    desc.add_argument("preset", choices=sorted(_PRESETS))
    tracep = sub.add_parser(
        "trace", help="run an instrumented demo and export spans/metrics"
    )
    tracep.add_argument("target", choices=sorted(TRACE_TARGETS))
    tracep.add_argument(
        "--export",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="trace file format (default: chrome trace-event JSON)",
    )
    tracep.add_argument(
        "--out",
        default=None,
        help="output path; omitted, only the summary is printed",
    )
    benchp = sub.add_parser(
        "bench", help="benchmark the model-evaluation fast path"
    )
    benchp.add_argument(
        "--smoke",
        action="store_true",
        help="quick mode for CI (fewer repeats, short annealing)",
    )
    benchp.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of a table",
    )
    benchp.add_argument(
        "--out",
        default=None,
        help="also write the JSON report to this path",
    )
    benchp.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="exit 1 unless batched exhaustive search beats scalar by "
        "this factor (default 5.0; 0 disables the gate)",
    )
    benchp.add_argument(
        "--max-delta-ms",
        type=float,
        default=1.0,
        help="exit 1 unless one steady-state delta re-optimization stays "
        "under this many milliseconds (default 1.0; 0 disables the gate)",
    )
    from repro.lint.cli import add_check_parser

    add_check_parser(sub)
    chaosp = sub.add_parser(
        "chaos", help="run a fault-injection recovery scenario"
    )
    from repro.faults import SCENARIOS

    chaosp.add_argument("scenario", choices=sorted(SCENARIOS))
    chaosp.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-sequence seed (default 0); same seed, same faults",
    )
    chaosp.add_argument(
        "--json",
        action="store_true",
        help="emit the recovery report as JSON",
    )
    servep = sub.add_parser(
        "serve", help="run the long-running allocation service"
    )
    from repro.serve import SERVE_SCENARIOS

    servep.add_argument(
        "--scenario",
        choices=sorted(SERVE_SCENARIOS),
        default=None,
        help="replay a seeded churn scenario instead of daemonizing",
    )
    servep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="churn-sequence seed (default 0); same seed, same replay",
    )
    servep.add_argument(
        "--json",
        action="store_true",
        help="emit the replay report as JSON",
    )
    servep.add_argument(
        "--mode",
        choices=("full", "delta"),
        default="full",
        help="re-optimization path: 'full' re-searches the whole space "
        "per churn event, 'delta' warm-starts from the previous "
        "allocation (default: full)",
    )
    servep.add_argument(
        "--socket",
        default=None,
        help="unix-socket path to serve the NDJSON protocol on through "
        "the gateway (combine with --tcp to serve both)",
    )
    servep.add_argument(
        "--machine",
        choices=sorted(_PRESETS),
        default="model",
        help="machine preset the daemon optimizes for (default: model)",
    )
    servep.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="write-ahead-journal directory; replays journal into it, "
        "the daemon additionally recovers from it on startup",
    )
    servep.add_argument(
        "--tcp",
        default=None,
        metavar="[HOST:]PORT",
        help="serve the NDJSON protocol over TCP through the gateway "
        "(admission control; see docs/GATEWAY.md)",
    )
    servep.add_argument(
        "--http",
        default=None,
        metavar="[HOST:]PORT",
        help="additionally expose the HTTP/1.1 adapter on this port "
        "(it shares --tcp's host when both are given)",
    )
    args = parser.parse_args(argv)

    if args.command == "report":
        print(full_report())
    elif args.command == "run":
        print(run_experiment(args.experiment))
    elif args.command == "list":
        for exp_id, (title, _) in EXPERIMENTS.items():
            print(f"{exp_id:12s} {title}")
    elif args.command == "api":
        from repro.analysis.apidoc import api_summary

        print(api_summary())
    elif args.command == "describe":
        print(format_topology(_PRESETS[args.preset]()), end="")
    elif args.command == "trace":
        _run_trace(args.target, args.export, args.out)
    elif args.command == "bench":
        return _run_bench(args)
    elif args.command == "check":
        from repro.lint.cli import run_check

        return run_check(args)
    elif args.command == "chaos":
        from repro.faults import run_scenario

        report = run_scenario(args.scenario, seed=args.seed)
        print(report.to_json() if args.json else report.format())
        return 0 if report.passed else 1
    elif args.command == "serve":
        return _run_serve(args)
    return 0


def _parse_bind(value: str) -> tuple[str, int]:
    """``[HOST:]PORT`` -> ``(host, port)`` (default host: loopback)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host = "127.0.0.1"
        port = value
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"invalid bind address {value!r}") from None


def _run_serve(args) -> int:
    """Replay a churn scenario, or daemonize on a socket/gateway."""
    if args.scenario is not None:
        from repro.serve import run_replay

        report = run_replay(
            args.scenario,
            seed=args.seed,
            mode=args.mode,
            journal=args.journal,
        )
        print(report.to_json() if args.json else report.format())
        return 0 if report.passed else 1
    if args.socket is None and args.tcp is None:
        print(
            "serve needs --scenario <name>, --socket PATH, or "
            "--tcp [HOST:]PORT",
            file=sys.stderr,
        )
        return 2
    import asyncio
    import signal

    from repro.serve import ServiceConfig
    from repro.serve.gateway import GatewayConfig, GatewayServer

    tcp = _parse_bind(args.tcp) if args.tcp is not None else None
    http = _parse_bind(args.http) if args.http is not None else None
    gateway = GatewayServer(
        ServiceConfig(
            machine=_PRESETS[args.machine](),
            mode=args.mode,
        ),
        GatewayConfig(
            # One host for both network listeners: --tcp's, else --http's.
            host=(tcp or http or ("127.0.0.1", None))[0],
            port=None if tcp is None else tcp[1],
            http_port=None if http is None else http[1],
            unix_path=args.socket,
        ),
        journal_path=args.journal,
    )

    async def _daemon() -> None:
        # SIGINT/SIGTERM end the wait below instead of raising into the
        # loop, so stop() drains with every connection's writer alive.
        stopped = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopped.set)
        await gateway.start()
        where = [] if args.socket is None else [args.socket]
        if args.tcp is not None:
            where.append("%s:%d" % gateway.tcp_address)
        if args.http is not None:
            where.append("HTTP on %s:%d" % gateway.http_address)
        print(
            f"gateway serving allocation protocol on {', '.join(where)}",
            flush=True,
        )
        try:
            await stopped.wait()
        finally:
            await gateway.stop()

    asyncio.run(_daemon())
    print("drained")
    return 0


def _run_bench(args) -> int:
    """Run the fast-path benchmark; exit 1 when any gate fails.

    Every gate is evaluated and each failing one prints its own ``FAIL``
    line, so one failure never hides another.
    """
    import json

    from repro.analysis.bench import format_report, run_bench, write_report

    report = run_bench(smoke=args.smoke)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
    if args.out is not None:
        write_report(report, args.out)
        if not args.json:
            print(f"wrote {args.out}")
    failures = []
    speedup = report["speedups"]["search/exhaustive_fast"]
    if args.min_speedup > 0 and speedup < args.min_speedup:
        failures.append(
            f"exhaustive-search speedup {speedup:.2f}x is below "
            f"the {args.min_speedup:.1f}x gate"
        )
    delta_ms = report["delta"]["steady_state_ms"]
    if args.max_delta_ms > 0 and delta_ms > args.max_delta_ms:
        failures.append(
            f"steady-state delta re-optimization {delta_ms:.4f} ms "
            f"exceeds the {args.max_delta_ms:.1f} ms gate"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _run_trace(target: str, export: str, out: str | None) -> None:
    """Run one demo target under a fresh capture and export the result."""
    from repro.obs import capture
    from repro.obs.demo import run_trace_target
    from repro.obs.export import write_chrome_trace, write_jsonl

    with capture() as cap:
        summary = run_trace_target(target)
    print(summary)
    print(f"spans: {len(cap.tracer.spans)}")
    snapshot = cap.metrics.snapshot()
    for key in sorted(snapshot):
        print(f"  {key} = {snapshot[key]:g}")
    if out is not None:
        if export == "chrome":
            count = write_chrome_trace(out, cap.tracer, metrics=cap.metrics)
            print(f"wrote {count} trace events to {out} (chrome://tracing)")
        else:
            write_jsonl(out, cap.tracer.spans)
            print(f"wrote {len(cap.tracer.spans)} spans to {out} (jsonl)")


if __name__ == "__main__":
    sys.exit(main())
