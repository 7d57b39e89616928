"""Deterministic fault injection for the agent <-> runtime path.

The robustness counterpart of :mod:`repro.obs`: where observability
makes behaviour visible, :mod:`repro.faults` makes *misbehaviour*
schedulable.  A :class:`FaultPlan` scripts specific failures (crash,
hang, stale/corrupt report, dropped/delayed command, slowdown) at
specific simulated times; a :class:`ChaosConfig` adds seeded ambient
unreliability; an :class:`InjectionProxy` executes both against any
:class:`~repro.agent.protocol.RuntimeEndpoint` without either side
knowing.  :func:`apply_journal_fault` corrupts
:mod:`repro.serve.persist` journal directories on disk (torn tail,
stale snapshot, duplicated segment).  :func:`run_scenario` packages
full recovery experiments for the agent (``python -m repro chaos``);
the allocation service's fault drills are replays in
:mod:`repro.serve.scenarios` (``python -m repro serve --scenario``).

Everything is seeded and replayable: the same plan + seed produces the
same faults, retries, quarantines, and recovery, run after run.
"""

from repro.faults.chaos import ChaosConfig
from repro.faults.journal import apply_journal_fault
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.proxy import InjectedFault, InjectionProxy
from repro.faults.scenarios import SCENARIOS, RecoveryReport, run_scenario

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "ChaosConfig",
    "InjectedFault",
    "InjectionProxy",
    "apply_journal_fault",
    "RecoveryReport",
    "SCENARIOS",
    "run_scenario",
]
