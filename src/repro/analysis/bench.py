"""Benchmark the model-evaluation fast path: ``python -m repro bench``.

Times the three layers of the fast evaluation engine
(:mod:`repro.core.fasteval`) against the scalar reference model on the
paper's model machine and a four-application workload:

* ``model/*`` — raw evaluation throughput: scalar
  :meth:`~repro.core.model.NumaPerformanceModel.predict` per-candidate,
  and one batched
  :meth:`~repro.core.model.NumaPerformanceModel.predict_scores` call
  over the same candidates.
* ``search/*`` — end-to-end searches, each loop run through the scalar
  evaluator (``use_fast=False``) and the fast one, measured in model
  evaluations per second.
* ``delta/*`` — churn-time re-optimization on a ten-application
  workload (24,310 symmetric candidates): a full exhaustive re-search
  with a cold and a warm score cache versus the incremental
  :class:`~repro.core.delta.DeltaSearch` warm-started from the previous
  allocation across a leave/rejoin cycle.

The report is a JSON document mapping each op to its measured
``evals_per_sec`` (plus ``seconds`` and ``evaluations``), with a
``speedups`` section pairing each fast op against its scalar baseline
and a ``delta`` section recording ``steady_state_ms`` — the wall time
of one steady-state delta re-optimization — with its speedups over the
full re-search.  The committed ``BENCH_model.json`` at the repo root
records the numbers of the environment that produced it; CI re-runs
``--smoke`` mode and gates on the exhaustive-search speedup staying
above ``--min-speedup`` (default 5x) and on ``steady_state_ms``
staying under ``--max-delta-ms`` (default 1 ms) — see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.candidates import CandidateSpace, symmetric_counts_tensor
from repro.core.delta import DeltaSearch
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import (
    AnnealingSearch,
    ExhaustiveSearch,
    GreedySearch,
    HillClimbSearch,
)
from repro.core.spec import AppSpec
from repro.machine.presets import model_machine

__all__ = [
    "bench_workload",
    "delta_workload",
    "effective_cpus",
    "host_stamp",
    "run_bench",
    "format_report",
    "write_report",
]

#: Baseline op each fast op's speedup is computed against.
_SPEEDUP_PAIRS = {
    "model/batched": "model/scalar",
    "search/exhaustive_fast": "search/exhaustive_scalar",
    "search/greedy_fast": "search/greedy_scalar",
    "search/hillclimb_fast": "search/hillclimb_scalar",
    "search/annealing_fast": "search/annealing_scalar",
}


def bench_workload() -> tuple:
    """The fixed (machine, apps) pair every benchmark op runs against."""
    machine = model_machine()
    apps = [
        AppSpec.memory_bound("mem-a"),
        AppSpec.memory_bound("mem-b", 0.25),
        AppSpec.compute_bound("cpu-a"),
        AppSpec.numa_bad("bad-a", 1.0, home_node=0),
    ]
    return machine, apps


def delta_workload() -> tuple:
    """The ten-application churn workload behind the ``delta/*`` ops.

    Ten apps on the eight-core model machine span a 24,310-candidate
    symmetric space — large enough that :class:`DeltaSearch` skips its
    exactness audit and the steady-state path is a genuine O(delta)
    move search rather than a disguised full enumeration.
    """
    machine = model_machine()
    apps = [
        AppSpec.memory_bound(f"mem-{i}", 0.2 + 0.1 * i) for i in range(6)
    ] + [AppSpec.compute_bound(f"cpu-{i}", 4.0 + 2.0 * i) for i in range(4)]
    return machine, apps


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (minimum filters noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_stamp() -> dict:
    """The host a bench report was measured on.

    Effective CPUs (:func:`effective_cpus`), the CPU model, and the
    Python and NumPy versions: what decides whether two reports' times
    can be compared at all.  ``python -m repro bench`` records it as
    its report's ``host`` section.
    """
    return {
        "effective_cpus": effective_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _cpu_model() -> str:
    """The CPU's model name (Linux ``/proc/cpuinfo``, else ``platform``)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "model name" and value.strip():
            return value.strip()
    return platform.processor() or platform.machine() or "unknown"


def run_bench(
    *,
    smoke: bool = False,
    annealing_steps: int | None = None,
) -> dict:
    """Run the benchmark suite; returns the report as a plain dict.

    ``smoke`` shrinks repeat counts and the annealing schedule so CI can
    afford the run; the measured speedups are the same ballpark either
    way because every op scales down together.
    """
    repeats = 2 if smoke else 5
    steps = annealing_steps or (200 if smoke else 2000)
    machine, apps = bench_workload()
    names = tuple(a.name for a in apps)
    counts = symmetric_counts_tensor(machine, len(apps))
    allocations = [
        ThreadAllocation(app_names=names, counts=c) for c in counts
    ]
    ops: dict[str, dict] = {}

    def record(op: str, seconds: float, evaluations: int) -> None:
        ops[op] = {
            "seconds": round(seconds, 6),
            "evaluations": evaluations,
            "evals_per_sec": round(evaluations / seconds, 1),
        }

    # --- raw model evaluation ----------------------------------------
    scalar_model = NumaPerformanceModel()

    def scalar_sweep() -> None:
        for alloc in allocations:
            scalar_model.predict(machine, apps, alloc)

    scalar_sweep()  # warm-up (table/import costs out of the timing)
    record(
        "model/scalar",
        _best_seconds(scalar_sweep, repeats),
        len(allocations),
    )

    batched_model = NumaPerformanceModel()
    batched_model.predict_scores(machine, apps, counts[:1])  # warm tables
    record(
        "model/batched",
        _best_seconds(
            lambda: batched_model.predict_scores(machine, apps, counts),
            repeats,
        ),
        len(allocations),
    )

    # --- end-to-end searches -----------------------------------------
    searches: list[tuple[str, Callable[[bool], object]]] = [
        (
            "exhaustive",
            lambda fast: ExhaustiveSearch(
                NumaPerformanceModel(), use_fast=fast
            ),
        ),
        (
            "greedy",
            lambda fast: GreedySearch(NumaPerformanceModel(), use_fast=fast),
        ),
        (
            "hillclimb",
            lambda fast: HillClimbSearch(
                NumaPerformanceModel(), use_fast=fast
            ),
        ),
        (
            "annealing",
            lambda fast: AnnealingSearch(
                NumaPerformanceModel(), steps=steps, use_fast=fast
            ),
        ),
    ]
    for name, make in searches:
        for fast in (False, True):
            evaluations = 0

            def run_search() -> None:
                nonlocal evaluations
                search = make(fast)
                result = search.search(machine, apps)
                evaluations = result.evaluations

            run_search()  # warm-up
            suffix = "fast" if fast else "scalar"
            record(
                f"search/{name}_{suffix}",
                _best_seconds(run_search, repeats),
                evaluations,
            )

    speedups = {
        op: round(
            ops[op]["evals_per_sec"] / ops[base]["evals_per_sec"], 2
        )
        for op, base in _SPEEDUP_PAIRS.items()
    }

    # --- churn-time re-optimization (delta path) ---------------------
    d_machine, d_apps = delta_workload()
    d_model = NumaPerformanceModel()
    d_full = ExhaustiveSearch(d_model)
    d_search = DeltaSearch(d_model, fallback=d_full)
    delta_ops: dict[str, dict] = {}

    def record_delta(op: str, seconds: float, evaluations: int) -> None:
        delta_ops[op] = {
            "seconds": round(seconds, 6),
            "evaluations": evaluations,
            "evals_per_sec": round(evaluations / seconds, 1),
        }

    base = d_full.search(d_machine, d_apps)  # warm-up (tables + cache)

    def full_cold() -> None:
        d_model.cache.clear()  # a churn event changes the fingerprint
        d_full.search(d_machine, d_apps)

    record_delta(
        "delta/full_cold",
        _best_seconds(full_cold, repeats),
        base.evaluations,
    )
    d_full.search(d_machine, d_apps)  # refill the cache
    record_delta(
        "delta/full_warm",
        _best_seconds(
            lambda: d_full.search(d_machine, d_apps), repeats
        ),
        base.evaluations,
    )

    survivors = d_apps[:-1]
    departed = d_search.search(
        d_machine,
        survivors,
        previous=base.allocation,
        previous_specs=tuple(d_apps),
        previous_score=base.score,
    )
    steady_evals = 0

    def rejoin() -> None:
        nonlocal steady_evals
        res = d_search.search(
            d_machine,
            d_apps,
            previous=departed.allocation,
            previous_specs=tuple(survivors),
            previous_score=departed.score,
        )
        steady_evals = res.result.evaluations

    rejoin()  # warm-up
    steady_seconds = _best_seconds(rejoin, repeats)
    record_delta("delta/steady_state", steady_seconds, steady_evals)

    delta_section = {
        "apps": len(d_apps),
        "candidates": CandidateSpace(
            d_machine, len(d_apps)
        ).symmetric_size(),
        "ops": delta_ops,
        "steady_state_ms": round(steady_seconds * 1e3, 4),
        "speedups": {
            "vs_full_cold": round(
                delta_ops["delta/full_cold"]["seconds"] / steady_seconds, 1
            ),
            "vs_full_warm": round(
                delta_ops["delta/full_warm"]["seconds"] / steady_seconds, 1
            ),
        },
    }

    report = {
        "schema": "repro-bench/1",
        "mode": "smoke" if smoke else "full",
        "host": host_stamp(),
        "machine": machine.name,
        "apps": len(apps),
        "candidates": len(allocations),
        "annealing_steps": steps,
        "ops": ops,
        "speedups": speedups,
        "delta": delta_section,
    }
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of a :func:`run_bench` report."""
    host = report["host"]
    lines = [
        f"bench on '{report['machine']}' "
        f"({report['apps']} apps, {report['candidates']} symmetric "
        f"candidates, {report['mode']} mode)",
        f"host: {host['cpu_model']}, {host['effective_cpus']} effective "
        f"CPUs, Python {host['python']}, NumPy {host['numpy']}",
        "",
        f"{'op':28s} {'evals/sec':>12s} {'seconds':>10s} {'speedup':>8s}",
    ]
    for op, stats in report["ops"].items():
        speedup = report["speedups"].get(op)
        tail = f"{speedup:>7.1f}x" if speedup is not None else f"{'-':>8s}"
        lines.append(
            f"{op:28s} {stats['evals_per_sec']:>12,.1f} "
            f"{stats['seconds']:>10.4f} {tail}"
        )
    delta = report.get("delta")
    if delta:
        lines += [
            "",
            f"churn-time re-optimization ({delta['apps']} apps, "
            f"{delta['candidates']:,} symmetric candidates)",
            f"{'op':28s} {'evaluations':>12s} {'ms':>10s}",
        ]
        for op, stats in delta["ops"].items():
            lines.append(
                f"{op:28s} {stats['evaluations']:>12,d} "
                f"{stats['seconds'] * 1e3:>10.4f}"
            )
        lines.append(
            f"steady-state delta re-optimization: "
            f"{delta['steady_state_ms']:.4f} ms "
            f"({delta['speedups']['vs_full_cold']:.1f}x vs cold full "
            f"re-search, {delta['speedups']['vs_full_warm']:.1f}x vs warm)"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    """Write ``report`` as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
