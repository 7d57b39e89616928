"""One driver per paper table/figure (the experiment index of DESIGN.md).

Each function is self-contained, deterministic, and returns a small result
object carrying both the paper's published values and this reproduction's
values, so benchmarks, tests and EXPERIMENTS.md all consume the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.agent import (
    Agent,
    LibraryShiftStrategy,
    OcrVxEndpoint,
    ProducerConsumerAlignment,
)
from repro.apps import ComposedAppScenario, ProducerConsumerScenario, SyntheticApp
from repro.core import (
    AppSpec,
    EvenSharePolicy,
    ExhaustiveSearch,
    NodeExclusivePolicy,
    NumaPerformanceModel,
    Placement,
    Prediction,
    ThreadAllocation,
    UnevenSharePolicy,
    worked_example,
)
from repro.distributed import (
    ClusterExperiment,
    DynamicSharingPartition,
    NodePerformance,
    StaticExclusivePartition,
    StaticSplitPartition,
)
from repro.machine import (
    model_machine,
    numa_bad_example_machine,
    skylake_4s,
)
from repro.machine.calibration import calibrate_from_even_run
from repro.runtime import OCRVxRuntime
from repro.sim import CfsScheduler, ExecutionSimulator

__all__ = [
    "ScenarioResult",
    "Table3Row",
    "run_table1",
    "run_table2",
    "run_fig2",
    "run_fig3",
    "table3_scenarios",
    "run_table3_model",
    "run_table3_real",
    "run_fig1_agent",
    "run_oversubscription",
    "run_sublinear",
    "run_library_shift",
    "run_distributed",
    "run_calibration",
    "OversubBenefitResult",
    "run_oversub_benefit",
    "DvfsResult",
    "run_dvfs_ablation",
    "ValidationResult",
    "run_model_validation",
    "AdaptiveResult",
    "run_adaptive_agent",
    "ThreadControlResult",
    "run_thread_control_options",
    "CacheHandoffResult",
    "run_cache_handoff",
    "MixedRuntimesResult",
    "run_mixed_runtimes",
]


@dataclass(frozen=True)
class ScenarioResult:
    """A named scenario's predicted-vs-paper GFLOPS."""

    name: str
    gflops: float
    paper_gflops: float | None = None

    @property
    def relative_error(self) -> float | None:
        """Signed relative deviation from the paper's value."""
        if self.paper_gflops is None:
            return None
        return (self.gflops - self.paper_gflops) / self.paper_gflops


# ----------------------------------------------------------------------
# Tables I / II and Figure 2 (the worked model examples)
# ----------------------------------------------------------------------
def _model_apps() -> list[AppSpec]:
    return [
        AppSpec.memory_bound("mem0", 0.5),
        AppSpec.memory_bound("mem1", 0.5),
        AppSpec.memory_bound("mem2", 0.5),
        AppSpec.compute_bound("comp", 10.0),
    ]


def run_table1():
    """Table I: uneven allocation (1,1,1,5) on the model machine."""
    machine = model_machine()
    return worked_example(
        machine,
        [
            (AppSpec.memory_bound("memory-bound", 0.5), 3, 1),
            (AppSpec.compute_bound("compute-bound", 10.0), 1, 5),
        ],
    )


def run_table2():
    """Table II: even allocation (2,2,2,2) on the model machine."""
    machine = model_machine()
    return worked_example(
        machine,
        [
            (AppSpec.memory_bound("memory-bound", 0.5), 3, 2),
            (AppSpec.compute_bound("compute-bound", 10.0), 1, 2),
        ],
    )


def run_fig2() -> list[ScenarioResult]:
    """Figure 2: the three allocation scenarios (254 / 140 / 128)."""
    machine = model_machine()
    apps = _model_apps()
    model = NumaPerformanceModel()
    uneven = UnevenSharePolicy(
        {"mem0": 1, "mem1": 1, "mem2": 1, "comp": 5}
    ).allocate(machine, apps)
    even = EvenSharePolicy().allocate(machine, apps)
    exclusive = NodeExclusivePolicy().allocate(machine, apps)
    return [
        ScenarioResult(
            "a) uneven (1,1,1,5)",
            model.predict(machine, apps, uneven).total_gflops,
            254.0,
        ),
        ScenarioResult(
            "b) even (2,2,2,2)",
            model.predict(machine, apps, even).total_gflops,
            140.0,
        ),
        ScenarioResult(
            "c) node-exclusive",
            model.predict(machine, apps, exclusive).total_gflops,
            128.0,
        ),
    ]


def run_fig3() -> list[ScenarioResult]:
    """Figure 3: NUMA-bad example (even 138 vs node-exclusive 150).

    Machine bandwidths recovered as 60 GB/s local + 10 GB/s links (see
    DESIGN.md Section 3); 138.75 reproduces the paper's printed 138.
    """
    machine = numa_bad_example_machine()
    apps = [
        AppSpec.memory_bound("mem0", 0.5),
        AppSpec.memory_bound("mem1", 0.5),
        AppSpec.memory_bound("mem2", 0.5),
        AppSpec.numa_bad("bad", 1.0, home_node=3),
    ]
    model = NumaPerformanceModel()
    even = EvenSharePolicy().allocate(machine, apps)
    exclusive = NodeExclusivePolicy(data_affine=True).allocate(machine, apps)
    return [
        ScenarioResult(
            "even (2,2,2,2)",
            model.predict(machine, apps, even).total_gflops,
            138.0,
        ),
        ScenarioResult(
            "node-exclusive (data-affine)",
            model.predict(machine, apps, exclusive).total_gflops,
            150.0,
        ),
    ]


# ----------------------------------------------------------------------
# Table III (model vs "real" synthetic benchmark on the Skylake server)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table3Row:
    """One Table III scenario: paper's model/real vs ours."""

    name: str
    paper_model: float
    paper_real: float
    our_model: float
    our_real: float | None = None


def _skylake_apps_basic() -> list[AppSpec]:
    return [
        AppSpec.memory_bound("mem0", 1 / 32),
        AppSpec.memory_bound("mem1", 1 / 32),
        AppSpec.memory_bound("mem2", 1 / 32),
        AppSpec.compute_bound("comp", 1.0),
    ]


def _skylake_apps_numabad() -> list[AppSpec]:
    return [
        AppSpec.memory_bound("mem0", 1 / 32),
        AppSpec.memory_bound("mem1", 1 / 32),
        AppSpec.memory_bound("mem2", 1 / 32),
        AppSpec.numa_bad("bad", 1 / 16, home_node=0),
    ]


def table3_scenarios() -> list[
    tuple[str, list[AppSpec], ThreadAllocation, float, float]
]:
    """The five Table III scenarios: (name, apps, allocation, paper model,
    paper real)."""
    machine = skylake_4s()
    basic = _skylake_apps_basic()
    bad = _skylake_apps_numabad()
    names_basic = [a.name for a in basic]
    names_bad = [a.name for a in bad]
    return [
        (
            "uneven (1,1,1,17)",
            basic,
            ThreadAllocation.uniform(names_basic, 4, [1, 1, 1, 17]),
            23.20,
            22.82,
        ),
        (
            "even (5,5,5,5)",
            basic,
            ThreadAllocation.uniform(names_basic, 4, 5),
            18.12,
            18.14,
        ),
        (
            "node-exclusive",
            basic,
            ThreadAllocation.node_exclusive(names_basic, machine),
            15.18,
            15.28,
        ),
        (
            "NUMA-bad cross-node (even)",
            bad,
            ThreadAllocation.uniform(names_bad, 4, 5),
            13.98,
            13.25,
        ),
        (
            "NUMA-bad on-node (exclusive)",
            bad,
            ThreadAllocation.node_exclusive(
                names_bad,
                machine,
                assignment={"bad": 0, "mem0": 1, "mem1": 2, "mem2": 3},
            ),
            15.18,
            14.52,
        ),
    ]


def run_table3_model() -> list[Table3Row]:
    """Table III, model column only (fast, exact)."""
    machine = skylake_4s()
    model = NumaPerformanceModel()
    rows = []
    for name, apps, alloc, paper_model, paper_real in table3_scenarios():
        ours = model.predict(machine, apps, alloc).total_gflops
        rows.append(
            Table3Row(
                name=name,
                paper_model=paper_model,
                paper_real=paper_real,
                our_model=ours,
            )
        )
    return rows


def _run_real_scenario(
    apps: Sequence[AppSpec],
    allocation: ThreadAllocation,
    *,
    duration: float = 0.5,
    task_flops: float | None = None,
    noise: float = 0.0,
    noise_seed: int = 0,
) -> float:
    """Measure a Table III scenario on the full runtime+simulator stack."""
    machine = skylake_4s()
    ex = ExecutionSimulator(machine, noise=noise, noise_seed=noise_seed)
    streams = []
    for app in apps:
        rt = OCRVxRuntime(app.name, ex)
        rt.start([int(x) for x in allocation.threads_of(app.name)])
        flops = task_flops
        if flops is None:
            # ~10 slices per task at this app's peak rate.
            core_peak = machine.nodes[0].cores[0].peak_gflops
            flops = core_peak * ex.slice_seconds * 10
        sapp = SyntheticApp(rt, app, task_flops=flops)
        sapp.submit_stream(10**9)
        streams.append(sapp)
    ex.run(duration)
    return ex.total_gflops(duration)


def run_table3_real(
    *, duration: float = 0.5, noise: float = 0.0, noise_seed: int = 0
) -> list[Table3Row]:
    """Table III, both columns: model (analytic) and real (simulated
    synthetic benchmark through the OCR-Vx runtime stack).

    ``noise`` adds seeded per-slice rate jitter, reproducing the
    few-percent model-vs-real deviations the paper's hardware showed.
    """
    rows = []
    machine = skylake_4s()
    model = NumaPerformanceModel()
    for name, apps, alloc, paper_model, paper_real in table3_scenarios():
        ours_model = model.predict(machine, apps, alloc).total_gflops
        ours_real = _run_real_scenario(
            apps,
            alloc,
            duration=duration,
            noise=noise,
            noise_seed=noise_seed,
        )
        rows.append(
            Table3Row(
                name=name,
                paper_model=paper_model,
                paper_real=paper_real,
                our_model=ours_model,
                our_real=ours_real,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 1: the agent architecture (producer-consumer alignment)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig1Result:
    """Producer-consumer outcome with and without the agent."""

    time_without_agent: float
    time_with_agent: float
    peak_items_without_agent: int
    peak_items_with_agent: int
    agent_rounds: int
    agent_commands: int


def run_fig1_agent(
    *,
    iterations: int = 40,
    producer_flops: float = 0.004,
    consumer_flops: float = 0.012,
    max_lead: float = 3.0,
) -> Fig1Result:
    """Reproduce the Figure 1 architecture experiment.

    Both applications start with a full set of worker threads (one per
    core, heavily over-subscribing the machine); the agent aligns their
    progress, which should cut the intermediate-data high-water mark
    sharply while changing wall-clock only marginally (the paper's [10]
    finding)."""

    def _run(with_agent: bool):
        machine = model_machine()
        ex = ExecutionSimulator(machine)
        prod = OCRVxRuntime("producer", ex)
        cons = OCRVxRuntime("consumer", ex)
        prod.start()
        cons.start()
        scenario = ProducerConsumerScenario(
            ex,
            prod,
            cons,
            iterations=iterations,
            tasks_per_iteration=8,
            producer_flops=producer_flops,
            consumer_flops=consumer_flops,
        )
        scenario.build()
        agent = None
        if with_agent:
            agent = Agent(
                ex,
                ProducerConsumerAlignment(
                    "producer", "consumer", max_lead=max_lead, min_lead=1.0
                ),
                period=0.005,
            )
            agent.register(OcrVxEndpoint(prod))
            agent.register(OcrVxEndpoint(cons))
            agent.start()
        end = ex.run_until_condition(
            lambda: scenario.finished, max_time=600.0
        )
        return end, scenario.max_intermediate_items(), agent

    t0, peak0, _ = _run(False)
    t1, peak1, agent = _run(True)
    return Fig1Result(
        time_without_agent=t0,
        time_with_agent=t1,
        peak_items_without_agent=peak0,
        peak_items_with_agent=peak1,
        agent_rounds=agent.rounds,
        agent_commands=agent.commands_issued(),
    )


# ----------------------------------------------------------------------
# Section II claims: over-subscription and sub-linear scaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OversubResult:
    """Over-subscribed vs fair-share co-execution."""

    oversubscribed_gflops: float
    fair_share_gflops: float

    @property
    def improvement(self) -> float:
        """Relative gain of fair share over over-subscription."""
        return (
            self.fair_share_gflops - self.oversubscribed_gflops
        ) / self.oversubscribed_gflops


def run_oversubscription(
    *,
    context_switch_penalty: float = 0.03,
    duration: float = 0.3,
    arithmetic_intensity: float = 4.0,
) -> OversubResult:
    """Two apps, each with a full thread set, vs agent-style fair share.

    The paper: over-subscription "forces the operating system to
    constantly switch between threads ... leading to extra overhead", yet
    measured benefits of avoiding it were "only marginal (a few percent)".
    """

    def _run(fair: bool) -> float:
        machine = model_machine()
        ex = ExecutionSimulator(
            machine,
            scheduler=CfsScheduler(
                context_switch_penalty=context_switch_penalty
            ),
        )
        spec_a = AppSpec("appA", arithmetic_intensity)
        spec_b = AppSpec("appB", arithmetic_intensity)
        for spec in (spec_a, spec_b):
            rt = OCRVxRuntime(spec.name, ex)
            rt.start()  # full thread set: 2x over-subscription
            if fair:
                half = [n.num_cores // 2 for n in machine.nodes]
                rt.set_allocation(half)
            app = SyntheticApp(rt, spec)
            app.submit_stream(10**9)
        ex.run(duration)
        return ex.total_gflops(duration)

    return OversubResult(
        oversubscribed_gflops=_run(False),
        fair_share_gflops=_run(True),
    )


@dataclass(frozen=True)
class SublinearResult:
    """Fair share vs model-optimal allocation for a sub-linear app mix."""

    fair_gflops: float
    optimal_gflops: float
    optimal_allocation: ThreadAllocation

    @property
    def speedup(self) -> float:
        """optimal / fair."""
        return self.optimal_gflops / self.fair_gflops


def run_sublinear() -> SublinearResult:
    """Section II: when an app scales sub-linearly (memory bound), give
    its cores to an app that can use them.

    The Tables I/II workload *is* the example: the memory-bound apps stop
    scaling once the node bandwidth saturates, so the optimizer moves
    cores to the compute-bound app (the 254 vs 140 GFLOPS gap)."""
    machine = model_machine()
    apps = _model_apps()
    model = NumaPerformanceModel()
    fair = EvenSharePolicy().allocate(machine, apps)
    fair_g = model.predict(machine, apps, fair).total_gflops

    def floored_gflops(prediction: Prediction) -> float:
        # A 1-thread-per-app floor so nobody is starved outright.
        if prediction.allocation.counts.min() < 1:
            return -math.inf
        return prediction.total_gflops

    best = ExhaustiveSearch(model, floored_gflops).search(machine, apps)
    return SublinearResult(
        fair_gflops=fair_g,
        optimal_gflops=best.score,
        optimal_allocation=best.allocation,
    )


# ----------------------------------------------------------------------
# Tight integration: the library-call scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LibraryResult:
    """Composed main+library app under three core policies."""

    static_split_time: float
    dynamic_shift_time: float
    static_generous_time: float

    @property
    def speedup(self) -> float:
        """static split / dynamic shifting."""
        return self.static_split_time / self.dynamic_shift_time


def run_library_shift(
    *,
    phases: int = 12,
    main_tasks: int = 24,
    library_tasks: int = 48,
) -> LibraryResult:
    """The paper's 'use the other application like a library' scenario.

    Compared policies: a static half/half split, agent-driven dynamic
    shifting (LibraryShiftStrategy), and a static generous-library split.
    Dynamic shifting should beat both statics because main and library
    phases alternate and never overlap."""

    def _run(mode: str) -> float:
        machine = model_machine()
        ex = ExecutionSimulator(machine)
        main = OCRVxRuntime("main", ex)
        lib = OCRVxRuntime("library", ex)
        main.start()
        lib.start()
        scenario = ComposedAppScenario(
            ex,
            main,
            lib,
            phases=phases,
            main_tasks=main_tasks,
            library_tasks=library_tasks,
        )
        if mode == "static-split":
            main.set_allocation([4, 4, 4, 4])
            lib.set_allocation([4, 4, 4, 4])
        elif mode == "static-generous":
            main.set_allocation([2, 2, 2, 2])
            lib.set_allocation([6, 6, 6, 6])
        else:
            agent = Agent(
                ex,
                LibraryShiftStrategy("main", "library", library_share=0.75),
                period=0.002,
            )
            agent.register(OcrVxEndpoint(main))
            agent.register(OcrVxEndpoint(lib))
            agent.start()
        scenario.build()
        return ex.run_until_condition(
            lambda: scenario.finished, max_time=600.0
        )

    return LibraryResult(
        static_split_time=_run("static-split"),
        dynamic_shift_time=_run("dynamic"),
        static_generous_time=_run("static-generous"),
    )


# ----------------------------------------------------------------------
# Section V: distributed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DistributedResult:
    """Makespans per (partition, synchronisation) combination."""

    runs: dict[tuple[str, str], float]

    def makespan(self, partition: str, workload: str) -> float:
        """Makespan of one combination."""
        return self.runs[(partition, workload)]


def run_distributed(
    *, num_ranks: int = 8, iterations: int = 30
) -> DistributedResult:
    """Section V: static vs dynamic partitioning under barrier vs
    task-bag synchronisation."""
    machine = model_machine()
    main = AppSpec("main", 2.0)
    colocated = AppSpec("colocated", 2.0)
    perf = NodePerformance(machine, main, colocated)
    partitions = {
        "static-exclusive": StaticExclusivePartition(
            perf, main_fraction=0.5
        ),
        "static-split": StaticSplitPartition(
            perf, main_share=0.5, colocated_duty_cycle=0.5
        ),
        "dynamic": DynamicSharingPartition(
            perf,
            main_share_busy=0.5,
            main_share_quiet=1.0,
            colocated_duty_cycle=0.5,
            reallocation_penalty=0.02,
        ),
    }
    exp = ClusterExperiment(
        num_ranks=num_ranks,
        iterations=iterations,
        work_per_iteration=20.0,
    )
    runs = {}
    for run in exp.compare(partitions):
        runs[(run.partition_name, run.workload_name)] = run.makespan
    return DistributedResult(runs=runs)


# ----------------------------------------------------------------------
# Section III-B: calibration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationResult:
    """Recovered vs true machine parameters."""

    true_peak: float
    true_bandwidth: float
    est_peak: float
    est_bandwidth: float

    @property
    def peak_error(self) -> float:
        """Relative error of the peak estimate."""
        return abs(self.est_peak - self.true_peak) / self.true_peak

    @property
    def bandwidth_error(self) -> float:
        """Relative error of the bandwidth estimate."""
        return abs(self.est_bandwidth - self.true_bandwidth) / (
            self.true_bandwidth
        )


def run_calibration(*, duration: float = 0.5) -> CalibrationResult:
    """Run the paper's calibration procedure against the simulator.

    Executes the even scenario on the 'real' (simulated) Skylake machine,
    measures per-app throughput, applies the closed-form estimator, and
    reports how well the true parameters are recovered."""
    machine = skylake_4s()
    apps = _skylake_apps_basic()
    names = [a.name for a in apps]
    alloc = ThreadAllocation.uniform(names, 4, 5)
    ex = ExecutionSimulator(machine)
    for app in apps:
        rt = OCRVxRuntime(app.name, ex)
        rt.start([int(x) for x in alloc.threads_of(app.name)])
        core_peak = machine.nodes[0].cores[0].peak_gflops
        sapp = SyntheticApp(
            rt, app, task_flops=core_peak * ex.slice_seconds * 10
        )
        sapp.submit_stream(10**9)
    ex.run(duration)
    per_node = machine.num_nodes
    comp = ex.achieved_gflops("comp", duration) / per_node
    mems = [
        ex.achieved_gflops(f"mem{i}", duration) / per_node for i in range(3)
    ]
    est = calibrate_from_even_run(
        compute_app_gflops_per_node=comp,
        compute_app_threads_per_node=5,
        per_app_gflops_per_node=mems + [comp],
        per_app_ai=[1 / 32] * 3 + [1.0],
    )
    return CalibrationResult(
        true_peak=machine.nodes[0].cores[0].peak_gflops,
        true_bandwidth=machine.nodes[0].local_bandwidth,
        est_peak=est.peak_gflops_per_thread,
        est_bandwidth=est.node_bandwidth,
    )


# ----------------------------------------------------------------------
# Section II: over-subscription that HELPS (I/O-blocked threads)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OversubBenefitResult:
    """Throughput vs thread count for an I/O-heavy workload."""

    gflops_by_threads: dict[int, float]

    @property
    def best_thread_count(self) -> int:
        """Thread count with the highest throughput."""
        return max(
            self.gflops_by_threads, key=self.gflops_by_threads.get
        )


def run_oversub_benefit(
    *,
    thread_counts: Sequence[int] = (8, 12, 16, 24),
    io_fraction: float = 0.5,
    duration: float = 0.3,
) -> OversubBenefitResult:
    """Section II: "some over-subscription might be beneficial. If some
    tasks are unable to fully utilize the available cores, for example by
    being blocked in I/O operations, it might be beneficial if there are
    other threads available that could be scheduled to such cores."

    An application whose threads alternate compute bursts with I/O waits
    runs on one 8-core node with varying thread counts; the sweep shows
    throughput climbing past 8 threads (the over-subscribed configurations
    fill the I/O gaps) before the context-switch penalty flattens it.
    """
    from repro.apps.nonworker import IoThread
    from repro.machine import uma_machine
    from repro.sim.cpu import Binding

    out: dict[int, float] = {}
    for n in thread_counts:
        machine = uma_machine(cores=8)
        ex = ExecutionSimulator(machine)
        burst = 0.002  # 2 ms of compute per burst
        wait = burst * io_fraction / (1 - io_fraction)
        period = burst + wait
        core_peak = machine.nodes[0].cores[0].peak_gflops
        for i in range(n):
            io = IoThread(
                ex,
                burst_flops=core_peak * burst,
                wait_seconds=wait,
                arithmetic_intensity=8.0,
                # stagger the threads so their I/O windows interleave
                initial_delay=(i * period / n),
            )
            ex.add_thread(
                f"io{i}", Binding.to_node(0), io, app_name="io-app"
            )
        ex.run(duration)
        out[n] = ex.achieved_gflops("io-app", duration)
    return OversubBenefitResult(gflops_by_threads=out)


# ----------------------------------------------------------------------
# DVFS ablation: relaxing model assumption 2
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DvfsResult:
    """Packed vs spread placement, with and without DVFS."""

    packed_no_dvfs: float
    spread_no_dvfs: float
    packed_dvfs: float
    spread_dvfs: float


def run_dvfs_ablation(
    *, max_boost: float = 0.3, duration: float = 0.3
) -> DvfsResult:
    """Quantify what the paper's no-DVFS assumption (assumption 2) hides.

    A compute-bound application with 8 threads on the model machine,
    placed either packed (all on one node) or spread (2 per node).
    Without DVFS the two placements are identical for a compute-bound
    code; with turbo boost the spread placement runs each core faster
    (fewer active cores per node), so placement starts to matter even
    for compute-bound applications — a consideration the paper's model
    cannot see."""
    from repro.machine import model_machine
    from repro.runtime import OCRVxRuntime
    from repro.sim.dvfs import DvfsModel

    def measure(spread: bool, dvfs: bool) -> float:
        machine = model_machine()
        ex = ExecutionSimulator(
            machine,
            dvfs=DvfsModel(max_boost=max_boost) if dvfs else None,
        )
        rt = OCRVxRuntime("comp", ex)
        rt.start([2, 2, 2, 2] if spread else [8, 0, 0, 0])
        app = SyntheticApp(
            rt, AppSpec.compute_bound("comp", 10.0), task_flops=0.05
        )
        app.submit_stream(10**9)
        ex.run(duration)
        return ex.total_gflops(duration)

    return DvfsResult(
        packed_no_dvfs=measure(spread=False, dvfs=False),
        spread_no_dvfs=measure(spread=True, dvfs=False),
        packed_dvfs=measure(spread=False, dvfs=True),
        spread_dvfs=measure(spread=True, dvfs=True),
    )


# ----------------------------------------------------------------------
# Model validation sweep: analytic model vs executor on random workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationResult:
    """Model-vs-simulator agreement over random workloads."""

    relative_errors: tuple[float, ...]

    @property
    def max_error(self) -> float:
        """Largest |relative error| observed."""
        return max(abs(e) for e in self.relative_errors)

    @property
    def mean_error(self) -> float:
        """Mean |relative error|."""
        return float(
            np.mean([abs(e) for e in self.relative_errors])
        )


def run_model_validation(
    *, scenarios: int = 10, seed: int = 0, duration: float = 0.25
) -> ValidationResult:
    """Cross-validate the analytic model against the execution simulator
    on randomly generated workloads (random AIs, placements and
    allocations on the model machine).  This is the reproduction's
    counterpart of the paper's Table III exercise, run at scale."""
    from repro.machine import model_machine
    from repro.runtime import OCRVxRuntime

    rng = np.random.default_rng(seed)
    machine = model_machine()
    model = NumaPerformanceModel()
    errors = []
    for s in range(scenarios):
        n_apps = int(rng.integers(1, 4))
        specs = []
        counts = np.zeros((n_apps, machine.num_nodes), dtype=np.int64)
        free = np.array([n.num_cores for n in machine.nodes])
        for a in range(n_apps):
            ai = float(rng.choice([0.25, 0.5, 1.0, 4.0, 10.0]))
            if rng.random() < 0.3:
                specs.append(
                    AppSpec.numa_bad(
                        f"s{s}a{a}",
                        ai,
                        home_node=int(rng.integers(machine.num_nodes)),
                    )
                )
            else:
                specs.append(AppSpec(f"s{s}a{a}", ai))
            for n in range(machine.num_nodes):
                take = int(rng.integers(0, free[n] + 1))
                counts[a, n] = take
                free[n] -= take
        if counts.sum() == 0:
            counts[0, 0] = 1
        alloc = ThreadAllocation(
            app_names=tuple(sp.name for sp in specs), counts=counts
        )
        analytic = model.predict(machine, specs, alloc).total_gflops
        if analytic <= 0:
            continue
        ex = ExecutionSimulator(machine)
        for spec in specs:
            rt = OCRVxRuntime(spec.name, ex)
            rt.start([int(x) for x in alloc.threads_of(spec.name)])
            if alloc.threads_of(spec.name).sum() == 0:
                continue
            SyntheticApp(rt, spec, task_flops=0.05).submit_stream(10**9)
        ex.run(duration)
        measured = ex.total_gflops(duration)
        errors.append((measured - analytic) / analytic)
    return ValidationResult(relative_errors=tuple(errors))


# ----------------------------------------------------------------------
# Adaptive agent: learn the allocation from observations alone
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveResult:
    """Static fair share vs feedback hill-climbing vs model-guided."""

    static_gflops: float
    adaptive_gflops: float
    model_guided_gflops: float
    adaptive_final_split: dict[str, list[int]]
    moves_kept: int
    moves_reverted: int

    @property
    def adaptive_vs_static(self) -> float:
        """Adaptive throughput relative to the static fair share."""
        return self.adaptive_gflops / self.static_gflops

    @property
    def adaptive_vs_oracle(self) -> float:
        """Fraction of the model-guided (spec-aware) throughput that the
        spec-free adaptive agent achieves."""
        return self.adaptive_gflops / self.model_guided_gflops


def run_adaptive_agent(*, duration: float = 0.6) -> AdaptiveResult:
    """Compare three agent policies on the memory+compute mix.

    The paper's agent only observes runtime behaviour; this experiment
    shows an observation-only hill climber recovering most of the gain a
    model-guided (spec-aware) agent achieves over static fair share."""
    from repro.agent import Agent, FeedbackHillClimb, ModelGuidedStrategy, OcrVxEndpoint

    specs = [
        AppSpec.memory_bound("mem", 0.5),
        AppSpec.compute_bound("comp", 10.0),
    ]

    def run(mode: str):
        machine = model_machine()
        ex = ExecutionSimulator(machine)
        runtimes = []
        for spec in specs:
            rt = OCRVxRuntime(spec.name, ex)
            rt.start()
            if mode == "static":
                rt.set_allocation([4, 4, 4, 4])
            SyntheticApp(rt, spec, task_flops=0.02).submit_stream(10**9)
            runtimes.append(rt)
        strategy = None
        if mode == "adaptive":
            strategy = FeedbackHillClimb([s.name for s in specs])
        elif mode == "model":
            strategy = ModelGuidedStrategy(specs)
        if strategy is not None:
            agent = Agent(ex, strategy, period=0.01)
            for rt in runtimes:
                agent.register(OcrVxEndpoint(rt))
            agent.start()
        ex.run(duration)
        return ex.total_gflops(duration), strategy

    static, _ = run("static")
    adaptive, strat = run("adaptive")
    guided, _ = run("model")
    return AdaptiveResult(
        static_gflops=static,
        adaptive_gflops=adaptive,
        model_guided_gflops=guided,
        adaptive_final_split={
            k: list(v) for k, v in strat._split.items()
        },
        moves_kept=strat.moves_kept,
        moves_reverted=strat.moves_reverted,
    )


# ----------------------------------------------------------------------
# Thread-control options: the paper's central Section III argument
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThreadControlResult:
    """Completion time of a NUMA-aware app under each control option."""

    full_machine: float
    option1_total: float
    option3_even: float
    option3_packed: float
    option2_two_nodes: float

    @property
    def option1_penalty(self) -> float:
        """Option 1 time relative to option 3 (the paper predicts > 1)."""
        return self.option1_total / self.option3_even


def run_thread_control_options(
    *,
    blocks: int = 64,
    iterations: int = 10,
    arithmetic_intensity: float = 1 / 16,
    seed: int = 3,
) -> ThreadControlResult:
    """Section III: "Allocating cores to such [NUMA-aware] applications
    by specifying the total number of worker threads could be very
    inefficient, unless the runtime systems ... can make good decisions
    about which threads to block ... it would be better to use the
    option 3."

    A NUMA-aware stencil on the Skylake machine is reduced from 80 to 40
    threads in four ways:

    * option 1 (total count): the runtime blocks whichever workers go
      idle first — the survivors are unevenly spread over the nodes, so
      part of the data loses its local workers;
    * option 3 (even per node): 10 threads per node — locality preserved;
    * option 3 (packed): 20 threads on each of two nodes — half the
      blocks are remote (a deliberately bad but *controlled* choice);
    * option 2 (explicit): block every worker of nodes 2 and 3 — the
      worst case of node-agnostic blocking, for reference.

    Two findings beyond the paper's prediction: (a) under this runtime's
    option 1, the workers that happen to poll first block first, which
    strands *entire nodes* — the exact coordination failure the paper
    warns about; and (b) even the un-reduced full machine loses to the
    even option-3 allocation, because surplus workers steal remote
    blocks across the slow links and stretch every sweep's critical
    path.
    """
    from repro.apps.stencil import StencilApp
    from repro.machine import skylake_4s

    def run(mode: str) -> float:
        machine = skylake_4s()
        ex = ExecutionSimulator(machine)
        rt = OCRVxRuntime("stencil", ex, seed=seed)
        rt.start()
        if mode == "option1":
            rt.set_total_threads(40)
        elif mode == "option3-even":
            rt.set_allocation([10, 10, 10, 10])
        elif mode == "option3-packed":
            rt.set_allocation([20, 20, 0, 0])
        elif mode == "option2-two-nodes":
            rt.block_workers(
                [w.name for w in rt.workers if w.node in (2, 3)]
            )
        app = StencilApp(
            rt,
            blocks=blocks,
            iterations=iterations,
            numa_aware=True,
            flops_per_block=0.02,
            arithmetic_intensity=arithmetic_intensity,
        )
        app.build()
        return ex.run_until_condition(lambda: app.finished, max_time=600)

    return ThreadControlResult(
        full_machine=run("full"),
        option1_total=run("option1"),
        option3_even=run("option3-even"),
        option3_packed=run("option3-packed"),
        option2_two_nodes=run("option2-two-nodes"),
    )


# ----------------------------------------------------------------------
# Cache handoff: the tightest integration level of Section II
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheHandoffResult:
    """Producer->consumer handoff under three placement regimes."""

    handoff_time: float
    colocated_no_cache_time: float
    separate_nodes_time: float
    cache_hit_rate: float

    @property
    def cache_speedup(self) -> float:
        """Gain attributable to cache reuse alone (same placement)."""
        return self.colocated_no_cache_time / self.handoff_time

    @property
    def total_speedup(self) -> float:
        """Gain of full handoff over the separate-nodes layout."""
        return self.separate_nodes_time / self.handoff_time


def run_cache_handoff(
    *,
    items: int = 60,
    item_flops: float = 0.02,
    arithmetic_intensity: float = 0.4,
    item_bytes: float = 4 * 2**20,
) -> CacheHandoffResult:
    """Section II's tightest integration: "make sure that the core that
    wrote the data ... also starts processing the data inside the other
    application, enabling cache reuse."

    A producer application writes one datablock per item on node 0; a
    consumer application processes each item as it appears.  Three
    configurations:

    * **handoff** — consumer workers co-located on node 0 and the LLC
      model enabled: consumer tasks find their input warm;
    * **co-located, no cache** — same placement, cache model off:
      isolates the NUMA-locality part of the gain;
    * **separate nodes** — consumer on node 1, reading node 0's memory
      over the link: the loose-integration baseline.
    """
    from repro.sim.cache import CacheModel

    def run(consumer_node: int, with_cache: bool):
        machine = model_machine()
        cache = CacheModel() if with_cache else None
        ex = ExecutionSimulator(machine, cache=cache)
        prod = OCRVxRuntime("producer", ex)
        cons = OCRVxRuntime("consumer", ex)
        prod.start([4, 0, 0, 0])
        cons.start(
            [4, 0, 0, 0] if consumer_node == 0 else [0, 4, 0, 0]
        )
        done = [0]
        for i in range(items):
            db = prod.create_datablock(
                item_bytes, 0, name=f"item{i}"
            )
            ptask = prod.create_task(
                f"write{i}",
                flops=item_flops,
                arithmetic_intensity=arithmetic_intensity,
                datablocks=[db],
                affinity_node=0,
            )
            cons.create_task(
                f"read{i}",
                flops=item_flops,
                arithmetic_intensity=arithmetic_intensity,
                depends_on=[ptask],
                datablocks=[db],
                affinity_node=consumer_node,
                on_finish=lambda _t: done.__setitem__(0, done[0] + 1),
            )
        end = ex.run_until_condition(
            lambda: done[0] == items, max_time=600
        )
        hit_rate = cache.hit_rate if cache else 0.0
        return end, hit_rate

    handoff, hit_rate = run(consumer_node=0, with_cache=True)
    colocated, _ = run(consumer_node=0, with_cache=False)
    separate, _ = run(consumer_node=1, with_cache=False)
    return CacheHandoffResult(
        handoff_time=handoff,
        colocated_no_cache_time=colocated,
        separate_nodes_time=separate,
        cache_hit_rate=hit_rate,
    )


# ----------------------------------------------------------------------
# Mixed runtimes: the paper's stated future work, implemented
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MixedRuntimesResult:
    """OCR-Vx + TBB coordinated by one agent."""

    uncoordinated_gflops: float
    fair_share_gflops: float
    adaptive_gflops: float

    @property
    def adaptive_gain(self) -> float:
        """Adaptive coordination relative to no coordination."""
        return self.adaptive_gflops / self.uncoordinated_gflops


def run_mixed_runtimes(*, duration: float = 0.5) -> MixedRuntimesResult:
    """The conclusion's next step, implemented: "incorporate TBB,
    allowing TBB and OCR-Vx applications to cooperatively manage CPU
    cores."

    An OCR-Vx application (memory-bound) and a TBB application
    (compute-bound, arena-per-node as Section II prescribes) share the
    model machine under three regimes: uncoordinated (both sized to the
    full machine), agent fair share, and the observation-only adaptive
    agent — which, exactly as in the single-runtime case, discovers that
    the compute-bound TBB code should receive most of the cores."""
    from repro.agent import (
        Agent,
        FairShareStrategy,
        FeedbackHillClimb,
        OcrVxEndpoint,
        TbbEndpoint,
    )
    from repro.runtime.task import Task
    from repro.runtime.tbb import TbbRuntime

    def run(mode: str) -> float:
        machine = model_machine()
        ex = ExecutionSimulator(machine)
        ocr = OCRVxRuntime("ocr-app", ex)
        ocr.start()
        SyntheticApp(
            ocr, AppSpec.memory_bound("ocr-app", 0.5), task_flops=0.02
        ).submit_stream(10**9)
        tbb = TbbRuntime("tbb-app", ex, num_threads=32)
        ep = TbbEndpoint(tbb)

        class _TbbFeeder:
            """Keeps every arena's queue topped up."""

            def __init__(self) -> None:
                self.count = 0
                self._refill()
                ex.sim.schedule(0.002, self._tick)

            def _refill(self) -> None:
                for node in range(machine.num_nodes):
                    arena = ep.arena_for(node)
                    while arena.pending < 16:
                        self.count += 1
                        arena.enqueue(
                            Task(
                                f"tbb{self.count}",
                                flops=0.02,
                                arithmetic_intensity=10.0,
                            )
                        )

            def _tick(self) -> None:
                self._refill()
                ex.sim.schedule(0.002, self._tick)

        _TbbFeeder()
        if mode != "uncoordinated":
            strategy = (
                FairShareStrategy()
                if mode == "fair"
                else FeedbackHillClimb(["ocr-app", "tbb-app"])
            )
            agent = Agent(ex, strategy, period=0.01)
            agent.register(OcrVxEndpoint(ocr))
            agent.register(ep)
            agent.start()
        ex.run(duration)
        return ex.total_gflops(duration)

    return MixedRuntimesResult(
        uncoordinated_gflops=run("uncoordinated"),
        fair_share_gflops=run("fair"),
        adaptive_gflops=run("adaptive"),
    )
