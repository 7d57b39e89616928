"""Agent decision strategies.

A strategy turns the latest round of :class:`StatusReport`s into zero or
more :class:`ThreadCommand`s per runtime.  Five are provided, matching
the scenarios the paper discusses:

* :class:`FairShareStrategy` — the "simple core allocation strategy ...
  give each application a fair share of the cores" (issued once).
* :class:`ProducerConsumerAlignment` — the authors' SBAC-PAD'18 scenario
  [10]: keep the producer "only ahead by a small number of iterations" by
  shifting threads between the two applications.
* :class:`ModelGuidedStrategy` — use the Section III model plus an
  allocation search to issue option-3 per-node allocations (the paper's
  proposal, made concrete).
* :class:`LibraryShiftStrategy` — the tight-integration scenario: "quickly
  shifting resources to the 'library' application when it is called ...
  when the 'library' finishes, we can quickly free up the CPU cores".
* :class:`FeedbackHillClimb` — observation-only online search: no
  declared arithmetic intensities, just the load signals the paper's
  agent polls; converges to the model-guided allocation on the paper
  workloads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.agent.protocol import CommandKind, StatusReport, ThreadCommand
from repro.core.allocation import ThreadAllocation
from repro.core.candidates import CandidateSpace
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch, HillClimbSearch
from repro.core.spec import AppSpec
from repro.errors import AgentError
from repro.machine.topology import MachineTopology

__all__ = [
    "AgentStrategy",
    "FairShareStrategy",
    "ProducerConsumerAlignment",
    "ModelGuidedStrategy",
    "LibraryShiftStrategy",
    "FeedbackHillClimb",
]


class AgentStrategy(ABC):
    """Interface: one decision round."""

    @abstractmethod
    def decide(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        """Map runtime name -> commands to apply this round."""

    @staticmethod
    def _clamped_allocation(
        per_node: Sequence[int], report: StatusReport
    ) -> ThreadCommand:
        """Build a SET_ALLOCATION command clamped to the runtime's actual
        worker counts (a runtime can only activate workers it created)."""
        clamped = tuple(
            min(int(n), w)
            for n, w in zip(per_node, report.workers_per_node)
        )
        return ThreadCommand(
            kind=CommandKind.SET_ALLOCATION, per_node=clamped
        )


class FairShareStrategy(AgentStrategy):
    """Issue an even option-3 allocation once, then stay quiet."""

    def __init__(self) -> None:
        self._issued = False

    def decide(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        """Give every responding runtime an equal per-node share."""
        if self._issued or not reports:
            return {}
        self._issued = True
        n_apps = len(reports)
        out: dict[str, list[ThreadCommand]] = {}
        for i, name in enumerate(sorted(reports)):
            per_node = []
            for node in machine.nodes:
                share, leftover = divmod(node.num_cores, n_apps)
                per_node.append(share + (1 if i < leftover else 0))
            out[name] = [
                self._clamped_allocation(per_node, reports[name])
            ]
        return out


class ProducerConsumerAlignment(AgentStrategy):
    """Keep the producer at most ``max_lead`` iterations ahead.

    Reads the runtimes' ``progress["iterations"]`` counters.  When the
    producer's lead exceeds ``max_lead``, one thread per NUMA node moves
    from producer to consumer; when the lead drops below ``min_lead``, one
    moves back.  Moves respect a floor of one thread per node per
    application.  This reproduces the paper's agent, which "dynamically
    adjust[s] the number of threads in both applications to keep them
    aligned".
    """

    def __init__(
        self,
        producer: str,
        consumer: str,
        *,
        max_lead: float = 4.0,
        min_lead: float = 1.0,
    ) -> None:
        if max_lead <= min_lead:
            raise AgentError(
                f"max_lead ({max_lead}) must exceed min_lead ({min_lead})"
            )
        self.producer = producer
        self.consumer = consumer
        self.max_lead = max_lead
        self.min_lead = min_lead
        self._split: dict[int, tuple[int, int]] | None = None

    def _initial_split(
        self, machine: MachineTopology
    ) -> dict[int, tuple[int, int]]:
        split = {}
        for node in machine.nodes:
            half = node.num_cores // 2
            split[node.node_id] = (half, node.num_cores - half)
        return split

    def decide(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        """Steer threads to keep the producer's lead inside the band."""
        if self.producer not in reports or self.consumer not in reports:
            return {}
        if self._split is None:
            self._split = self._initial_split(machine)
            return self._emit(machine, reports)
        prod = reports[self.producer].progress.get("iterations", 0.0)
        cons = reports[self.consumer].progress.get("iterations", 0.0)
        lead = prod - cons
        changed = False
        if lead > self.max_lead:
            # Producer too far ahead: shift one thread per node to consumer.
            for n, (p, c) in self._split.items():
                if p > 1:
                    self._split[n] = (p - 1, c + 1)
                    changed = True
        elif lead < self.min_lead:
            for n, (p, c) in self._split.items():
                if c > 1:
                    self._split[n] = (p + 1, c - 1)
                    changed = True
        return self._emit(machine, reports) if changed else {}

    def _emit(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        prod = [self._split[n][0] for n in sorted(self._split)]
        cons = [self._split[n][1] for n in sorted(self._split)]
        return {
            self.producer: [
                self._clamped_allocation(prod, reports[self.producer])
            ],
            self.consumer: [
                self._clamped_allocation(cons, reports[self.consumer])
            ],
        }


class ModelGuidedStrategy(AgentStrategy):
    """Search the Section III model for the best option-3 allocation.

    Needs each application's :class:`~repro.core.spec.AppSpec` (in a real
    deployment the agent would learn AI from hardware counters; here the
    specs are declared).  Decides once unless ``replan_every`` reports.
    """

    def __init__(
        self,
        specs: Sequence[AppSpec],
        *,
        model: NumaPerformanceModel | None = None,
        replan_every: int | None = None,
        exhaustive_limit: int = 20000,
    ) -> None:
        if not specs:
            raise AgentError("ModelGuidedStrategy needs app specs")
        self.specs = list(specs)
        self.model = model or NumaPerformanceModel()
        self.replan_every = replan_every
        self.exhaustive_limit = exhaustive_limit
        self._rounds = 0
        self._last: ThreadAllocation | None = None

    def decide(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        """Re-run the model search and command the winning allocation."""
        self._rounds += 1
        if self._last is not None and (
            self.replan_every is None
            or self._rounds % self.replan_every != 0
        ):
            return {}
        space = CandidateSpace(machine, len(self.specs))
        if space.symmetric and space.symmetric_size() <= self.exhaustive_limit:
            # Deliberate periodic full re-plan, throttled by replan_every.
            result = ExhaustiveSearch(self.model).search(  # repro: noqa[PERF002]
                machine, self.specs
            )
        else:
            result = HillClimbSearch(self.model).search(  # repro: noqa[PERF002]
                machine, self.specs
            )
        self._last = result.allocation
        out: dict[str, list[ThreadCommand]] = {}
        for spec in self.specs:
            if spec.name not in reports:
                continue
            per_node = [
                int(x) for x in result.allocation.threads_of(spec.name)
            ]
            out[spec.name] = [
                self._clamped_allocation(per_node, reports[spec.name])
            ]
        return out


class LibraryShiftStrategy(AgentStrategy):
    """Shift cores to a delegated "library" application while it has work.

    When the library runtime reports a non-empty ready queue (a call is in
    flight), it receives ``library_share`` of every node's cores; when its
    queue drains, cores flow back to the main application.  The paper
    expects exactly this reactivity to make tight integration efficient.
    """

    def __init__(
        self,
        main: str,
        library: str,
        *,
        library_share: float = 0.75,
        idle_library_threads: int = 1,
    ) -> None:
        if not 0 < library_share < 1:
            raise AgentError(
                f"library_share must be in (0,1), got {library_share}"
            )
        self.main = main
        self.library = library
        self.library_share = library_share
        self.idle_library_threads = idle_library_threads
        self._library_active: bool | None = None

    def decide(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        """Shift cores toward the library runtime while it has work."""
        if self.library not in reports or self.main not in reports:
            return {}
        lib = reports[self.library]
        active = lib.queue_length > 0
        if active == self._library_active:
            return {}
        self._library_active = active
        main_alloc, lib_alloc = [], []
        for node in machine.nodes:
            c = node.num_cores
            if active:
                lib_threads = max(1, int(round(c * self.library_share)))
                lib_threads = min(lib_threads, c - 1)
            else:
                lib_threads = min(self.idle_library_threads, c - 1)
            lib_alloc.append(lib_threads)
            main_alloc.append(c - lib_threads)
        return {
            self.main: [
                self._clamped_allocation(main_alloc, reports[self.main])
            ],
            self.library: [
                self._clamped_allocation(lib_alloc, reports[self.library])
            ],
        }


class FeedbackHillClimb(AgentStrategy):
    """Online allocation search from observed throughput alone.

    The model-guided strategy needs each application's arithmetic
    intensity declared up front; in the paper's architecture the agent
    only *observes* ("It receives information about the execution from
    the runtimes...").  This strategy hill-climbs live: every round it
    compares the machine throughput achieved since the last round against
    the previous round, keeps the last thread move if throughput improved,
    reverts it and tries the next candidate move otherwise.

    Moves shift one thread per node between an ordered pair of
    applications; candidate pairs are scanned round-robin, and the search
    stops (``converged``) after a full scan without improvement.  All
    state is deterministic, so co-located deployments of the same
    strategy make identical decisions.

    Throughput is read from the reports' ``cpu_load`` (achieved GFLOPS
    divided by the active threads' peak), which the endpoints compute by
    differencing the runtime's FLOP counters — the same "actual CPU load"
    signal the paper's agent polls the OS for.
    """

    def __init__(
        self,
        app_names: Sequence[str],
        *,
        min_threads_per_node: int = 1,
        improvement_threshold: float = 0.01,
    ) -> None:
        if len(app_names) < 2:
            raise AgentError("feedback climbing needs >= 2 applications")
        self.app_names = list(app_names)
        self.min_threads = min_threads_per_node
        self.threshold = improvement_threshold
        self._split: dict[str, list[int]] | None = None
        self._last_score: float | None = None
        self._pending_move: tuple[str, str] | None = None
        self._pair_index = 0
        self._misses = 0
        self.converged = False
        self.moves_kept = 0
        self.moves_reverted = 0

    # -- helpers -------------------------------------------------------
    def _pairs(self) -> list[tuple[str, str]]:
        return [
            (a, b)
            for a in self.app_names
            for b in self.app_names
            if a != b
        ]

    def _observed_gflops(
        self, machine: MachineTopology, reports: Mapping[str, StatusReport]
    ) -> float:
        core_peak = machine.nodes[0].cores[0].peak_gflops
        total = 0.0
        for name in self.app_names:
            r = reports[name]
            total += r.cpu_load * core_peak * r.active_threads
        return total

    def _apply_move(self, src: str, dst: str) -> bool:
        """Move one thread per node src -> dst; False if floor binds."""
        moved = False
        for n in range(len(self._split[src])):
            if self._split[src][n] > self.min_threads:
                self._split[src][n] -= 1
                self._split[dst][n] += 1
                moved = True
        return moved

    def _revert_move(self, src: str, dst: str) -> None:
        for n in range(len(self._split[src])):
            if self._split[dst][n] > 0:
                self._split[dst][n] -= 1
                self._split[src][n] += 1

    def _emit(
        self, reports: Mapping[str, StatusReport]
    ) -> dict[str, list[ThreadCommand]]:
        return {
            name: [self._clamped_allocation(self._split[name], reports[name])]
            for name in self.app_names
        }

    # -- protocol ------------------------------------------------------
    def decide(
        self,
        machine: MachineTopology,
        reports: Mapping[str, StatusReport],
    ) -> dict[str, list[ThreadCommand]]:
        """Propose one hill-climb move from measured throughput."""
        if any(name not in reports for name in self.app_names):
            return {}
        if self._split is None:
            # Round 0: even split, establish the baseline measurement.
            self._split = {}
            n_apps = len(self.app_names)
            for i, name in enumerate(self.app_names):
                per_node = []
                for node in machine.nodes:
                    share, leftover = divmod(node.num_cores, n_apps)
                    per_node.append(share + (1 if i < leftover else 0))
                self._split[name] = per_node
            return self._emit(reports)
        if self.converged:
            return {}

        score = self._observed_gflops(machine, reports)
        if self._last_score is None:
            # First measurement under the even split; try the first move.
            self._last_score = score
            return self._try_next_move(reports)

        if self._pending_move is not None:
            src, dst = self._pending_move
            if score > self._last_score * (1 + self.threshold):
                # Keep the move, try the same direction again.
                self._last_score = score
                self.moves_kept += 1
                self._misses = 0
                if self._apply_move(src, dst):
                    return self._emit(reports)
                self._pending_move = None
                return self._try_next_move(reports)
            # Revert and try the next pair.
            self._revert_move(src, dst)
            self.moves_reverted += 1
            self._pending_move = None
            self._misses += 1
            if self._misses >= len(self._pairs()):
                self.converged = True
                return self._emit(reports)
            out = self._try_next_move(reports)
            return out if out else self._emit(reports)
        self._last_score = score
        return self._try_next_move(reports)

    def _try_next_move(
        self, reports: Mapping[str, StatusReport]
    ) -> dict[str, list[ThreadCommand]]:
        pairs = self._pairs()
        for _ in range(len(pairs)):
            src, dst = pairs[self._pair_index % len(pairs)]
            self._pair_index += 1
            if self._apply_move(src, dst):
                self._pending_move = (src, dst)
                return self._emit(reports)
            self._misses += 1
        self.converged = True
        return {}
