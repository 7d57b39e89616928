"""End-to-end chaos scenarios behind ``python -m repro chaos``.

Each preset builds a full Figure 1 deployment — runtimes on the
simulated machine, the hardened agent, injection proxies on the wire —
runs it with faults enabled, and condenses the outcome into a
:class:`RecoveryReport` whose ``passed`` flag encodes the scenario's
recovery criteria:

* ``crash-one`` — one of two runtimes crashes mid-run.  Pass: the agent
  quarantines the dead runtime within 3 rounds of the first missed
  report, redistributes its cores, and machine utilisation recovers to
  >= 90% of the no-fault steady state.
* ``flaky-reports`` — both runtimes drop, replay, and delay reports
  probabilistically.  Pass: the paper's producer-consumer pipeline still
  completes, the agent visibly retried, and no healthy runtime was
  quarantined.
* ``lossy-links`` — the network loses and duplicates messages.  Pass:
  every message gets through a :class:`ReliableChannel` within its
  retransmit budget, and the pipeline completes although commands are
  being dropped and delayed on the wire.

The allocation service's fault drills (``serve-crash``,
``serve-restart``, ``serve-overload``) are service replays like any
other, checked against the offline oracle: they live in
:mod:`repro.serve.scenarios` and run as ``python -m repro serve
--scenario <name>``.

Everything is seeded; the same ``(scenario, seed)`` pair replays the
same faults, retries, and recovery, which is what makes the CI smoke job
(``python -m repro chaos crash-one --seed 0``) meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.errors import FaultError, SimulationError
from repro.faults.chaos import ChaosConfig
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.proxy import InjectionProxy

__all__ = ["RecoveryReport", "SCENARIOS", "run_scenario"]


@dataclass(frozen=True)
class RecoveryReport:
    """Condensed outcome of one chaos scenario run."""

    scenario: str
    seed: int
    passed: bool
    rounds: int
    faults_injected: int
    retries: int
    quarantined: tuple[str, ...]
    quarantine_rounds: int | None
    baseline_utilization: float
    final_utilization: float
    recovery_ratio: float
    degraded_rounds: int
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form (the ``--json`` record)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "rounds": self.rounds,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "quarantined": list(self.quarantined),
            "quarantine_rounds": self.quarantine_rounds,
            "baseline_utilization": self.baseline_utilization,
            "final_utilization": self.final_utilization,
            "recovery_ratio": self.recovery_ratio,
            "degraded_rounds": self.degraded_rounds,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """The report as a JSON object."""
        return json.dumps(self.to_dict(), indent=2)

    def format(self) -> str:
        """Human-readable recovery report."""
        lines = [
            f"chaos scenario: {self.scenario} (seed {self.seed})",
            f"  agent rounds:        {self.rounds}",
            f"  faults injected:     {self.faults_injected}",
            f"  report retries:      {self.retries}",
            f"  degraded rounds:     {self.degraded_rounds}",
        ]
        if self.quarantined:
            rounds = (
                f" after {self.quarantine_rounds} round(s)"
                if self.quarantine_rounds is not None
                else ""
            )
            lines.append(
                f"  quarantined:         "
                f"{', '.join(self.quarantined)}{rounds}"
            )
        else:
            lines.append("  quarantined:         none")
        lines.append(
            f"  utilisation:         baseline "
            f"{self.baseline_utilization:.3f} -> final "
            f"{self.final_utilization:.3f} "
            f"(recovery {self.recovery_ratio:.1%})"
        )
        lines.extend(f"  {note}" for note in self.notes)
        lines.append(f"  result:              {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Shared scaffolding
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def _utilization_stats(agent) -> tuple[float, float, float]:
    """(baseline, final, ratio) machine utilisation from agent samples.

    Baseline is the pre-fault steady state (rounds 3..6, skipping the
    start-up transient); final is the mean of the last five rounds.
    """
    utils = [d.load.machine_utilization for d in agent.decisions]
    if len(utils) < 8:
        return 0.0, 0.0, 0.0
    baseline = _mean(utils[2:6])
    final = _mean(utils[-5:])
    ratio = final / baseline if baseline > 0 else 0.0
    return baseline, final, ratio


def _retries(agent) -> int:
    return sum(h.retries for h in agent.health.values())


def _quarantine_latency(agent, name: str) -> int | None:
    """Rounds from the first missed report of ``name`` to quarantine."""
    first_failure = None
    for i, d in enumerate(agent.decisions):
        if first_failure is None and name in d.failures:
            first_failure = i
        if name in d.quarantined:
            return i - (first_failure if first_failure is not None else i) + 1
    return None


def _compute_runtimes(executor, names, tasks, flops=0.05, ai=50.0):
    """Start one compute-bound OCR-Vx runtime per name, pre-filled with
    enough uniform tasks to keep the machine busy for the whole run."""
    from repro.runtime import OCRVxRuntime

    runtimes = []
    for name in names:
        rt = OCRVxRuntime(name, executor)
        rt.start()
        for i in range(tasks):
            rt.create_task(f"{name}{i}", flops, ai)
        runtimes.append(rt)
    return runtimes


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
def _crash_one(seed: int) -> RecoveryReport:
    """Two cooperating runtimes; one crashes and halts mid-run."""
    from repro.agent import Agent, FairShareStrategy, OcrVxEndpoint
    from repro.machine import model_machine
    from repro.sim import ExecutionSimulator

    ex = ExecutionSimulator(model_machine())
    alive, victim = _compute_runtimes(ex, ["alive", "victim"], tasks=3000)
    agent = Agent(ex, FairShareStrategy(), period=0.01)
    plan = FaultPlan(
        [FaultSpec(FaultKind.CRASH, target="victim", at=0.065)]
    )
    agent.register(InjectionProxy(OcrVxEndpoint(alive), ex.sim))
    agent.register(
        InjectionProxy(
            OcrVxEndpoint(victim), ex.sim, plan=plan, on_crash=victim.stop
        )
    )
    agent.start()
    ex.run(0.25)

    baseline, final, ratio = _utilization_stats(agent)
    latency = _quarantine_latency(agent, "victim")
    injected = sum(
        len(ep.injected)
        for ep in agent.endpoints.values()
        if isinstance(ep, InjectionProxy)
    )
    quarantined = tuple(agent.quarantined_endpoints)
    passed = (
        quarantined == ("victim",)
        and latency is not None
        and latency <= 3
        and ratio >= 0.9
    )
    return RecoveryReport(
        scenario="crash-one",
        seed=seed,
        passed=passed,
        rounds=agent.rounds,
        faults_injected=injected,
        retries=_retries(agent),
        quarantined=quarantined,
        quarantine_rounds=latency,
        baseline_utilization=baseline,
        final_utilization=final,
        recovery_ratio=ratio,
        degraded_rounds=sum(1 for d in agent.decisions if d.degraded),
        notes=(
            "criteria: quarantine within 3 rounds, utilisation "
            "recovers to >= 90% of the pre-crash steady state",
        ),
    )


def _pipeline_run(seed: int, chaos: ChaosConfig, *, quarantine_after: int):
    """Producer-consumer pipeline with chaos on both endpoints.

    Returns ``(agent, scenario, proxies, finish_time)`` for the caller
    to assess.
    """
    from repro.agent import Agent, OcrVxEndpoint, ProducerConsumerAlignment
    from repro.agent.resilience import ResiliencePolicy
    from repro.apps import ProducerConsumerScenario
    from repro.machine import model_machine
    from repro.runtime import OCRVxRuntime
    from repro.sim import ExecutionSimulator

    ex = ExecutionSimulator(model_machine())
    producer = OCRVxRuntime("producer", ex)
    consumer = OCRVxRuntime("consumer", ex)
    producer.start()
    consumer.start()
    scenario = ProducerConsumerScenario(
        ex,
        producer,
        consumer,
        iterations=40,
        tasks_per_iteration=8,
        producer_flops=0.004,
        consumer_flops=0.012,
    )
    scenario.build()
    agent = Agent(
        ex,
        ProducerConsumerAlignment(
            "producer", "consumer", max_lead=3.0, min_lead=1.0
        ),
        period=0.005,
        resilience=ResiliencePolicy(quarantine_after=quarantine_after),
    )
    proxies = [
        InjectionProxy(OcrVxEndpoint(producer), ex.sim, chaos=chaos),
        InjectionProxy(OcrVxEndpoint(consumer), ex.sim, chaos=chaos),
    ]
    for proxy in proxies:
        agent.register(proxy)
    agent.start()
    try:
        end = ex.run_until_condition(lambda: scenario.finished, max_time=60.0)
    except SimulationError:
        end = ex.sim.now  # pipeline stalled; the report will say FAIL
    return agent, scenario, proxies, end


def _flaky_reports(seed: int) -> RecoveryReport:
    """Reports drop, replay stale, and commands go missing — ambient noise."""
    chaos = ChaosConfig(
        report_failure=0.15,
        report_stale=0.15,
        command_drop=0.10,
        command_delay=0.05,
        delay=0.002,
        seed=seed,
    )
    agent, scenario, proxies, end = _pipeline_run(
        seed, chaos, quarantine_after=5
    )
    baseline, final, ratio = _utilization_stats(agent)
    injected = sum(len(p.injected) for p in proxies)
    retries = _retries(agent)
    quarantined = tuple(agent.quarantined_endpoints)
    passed = (
        scenario.finished
        and retries > 0
        and injected > 0
        and not quarantined
    )
    return RecoveryReport(
        scenario="flaky-reports",
        seed=seed,
        passed=passed,
        rounds=agent.rounds,
        faults_injected=injected,
        retries=retries,
        quarantined=quarantined,
        quarantine_rounds=None,
        baseline_utilization=baseline,
        final_utilization=final,
        recovery_ratio=ratio,
        degraded_rounds=sum(1 for d in agent.decisions if d.degraded),
        notes=(
            f"pipeline finished at t={end:.3f}s despite flaky reporting",
            "criteria: pipeline completes, agent retried, no healthy "
            "runtime quarantined",
        ),
    )


def _lossy_links(seed: int) -> RecoveryReport:
    """Message loss on the wire: retransmit budgets plus dropped commands."""
    from repro.distributed.messaging import LossyNetworkModel, ReliableChannel

    network = LossyNetworkModel(
        loss_rate=0.2, duplication_rate=0.05
    )
    channel = ReliableChannel(network, max_retransmits=6, seed=seed)
    results = [channel.send(1e6) for _ in range(300)]
    all_delivered = all(r.delivered for r in results)

    chaos = ChaosConfig(
        command_drop=0.25,
        command_delay=0.10,
        delay=0.002,
        seed=seed,
    )
    agent, scenario, proxies, end = _pipeline_run(
        seed, chaos, quarantine_after=5
    )
    baseline, final, ratio = _utilization_stats(agent)
    injected = sum(len(p.injected) for p in proxies)
    command_faults = sum(
        1
        for p in proxies
        for f in p.injected
        if f.kind in (FaultKind.DROP_COMMAND, FaultKind.DELAY_COMMAND)
    )
    passed = (
        all_delivered
        and channel.retransmits > 0
        and scenario.finished
        and command_faults > 0
    )
    return RecoveryReport(
        scenario="lossy-links",
        seed=seed,
        passed=passed,
        rounds=agent.rounds,
        faults_injected=injected,
        retries=_retries(agent),
        quarantined=tuple(agent.quarantined_endpoints),
        quarantine_rounds=None,
        baseline_utilization=baseline,
        final_utilization=final,
        recovery_ratio=ratio,
        degraded_rounds=sum(1 for d in agent.decisions if d.degraded),
        notes=(
            f"channel: {channel.delivered}/{channel.sent} delivered, "
            f"{channel.retransmits} retransmits, "
            f"{channel.duplicates} duplicates "
            f"(budget {channel.max_retransmits})",
            f"pipeline finished at t={end:.3f}s with "
            f"{command_faults} command(s) dropped or delayed",
            "criteria: every message within budget, pipeline completes "
            "under command loss",
        ),
    )


#: Scenario name -> builder; each returns a :class:`RecoveryReport`.
SCENARIOS: dict[str, Callable[[int], RecoveryReport]] = {
    "crash-one": _crash_one,
    "flaky-reports": _flaky_reports,
    "lossy-links": _lossy_links,
}


def run_scenario(name: str, seed: int = 0) -> RecoveryReport:
    """Run one chaos preset by name."""
    if name not in SCENARIOS:
        raise FaultError(
            f"unknown chaos scenario '{name}' "
            f"(choose from {sorted(SCENARIOS)})"
        )
    return SCENARIOS[name](seed)
