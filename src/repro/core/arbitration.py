"""Core-allocation arbitration between cooperating runtime systems.

Section II of the paper describes two ways multiple task-based runtimes can
agree on a partition of the node's cores:

* a dedicated **agent** process collects information from every runtime and
  issues thread-count commands (the architecture of Figure 1) — here the
  :class:`AgentArbiter`, which decides with the analytic model plus an
  allocation search, honouring per-application constraints;
* the runtimes **cooperatively come to an agreement** without a central
  agent — here :class:`CooperativeConsensus`, a deterministic round-based
  claim/yield protocol.

Both produce a :class:`~repro.core.allocation.ThreadAllocation`; the
dynamic, in-flight counterpart (reacting to load while applications run on
the simulator) lives in :mod:`repro.agent`.

The paper's coordination pitfall — "we would not want all runtime systems
to decide that ... they will all use node 0" — is exactly what the
consensus protocol's conflict-resolution rounds avoid: claims are ordered
deterministically, and a runtime that loses a contested core re-claims on
the least-contended node instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.candidates import CandidateSpace
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import (
    ExhaustiveSearch,
    HillClimbSearch,
    Objective,
    total_gflops,
)
from repro.core.spec import AppSpec, Placement
from repro.errors import AllocationError
from repro.machine.topology import MachineTopology

__all__ = [
    "ResourceRequest",
    "ArbitrationOutcome",
    "FairShareArbiter",
    "AgentArbiter",
    "CooperativeConsensus",
]


@dataclass(frozen=True, slots=True)
class ResourceRequest:
    """One runtime system's standing resource request.

    Attributes
    ----------
    spec:
        The analytic description of the application the runtime hosts.
    min_threads:
        Threads the application needs to make progress at all (machine
        wide).  Arbiters never go below this.
    max_threads:
        Threads beyond which the application cannot profit (machine wide);
        ``None`` means unbounded.
    priority:
        Relative weight used by priority-aware arbiters; higher wins ties.
    """

    spec: AppSpec
    min_threads: int = 1
    max_threads: int | None = None
    priority: float = 1.0

    def __post_init__(self) -> None:
        if self.min_threads < 0:
            raise AllocationError(
                f"'{self.spec.name}': min_threads must be >= 0"
            )
        if self.max_threads is not None and self.max_threads < self.min_threads:
            raise AllocationError(
                f"'{self.spec.name}': max_threads {self.max_threads} below "
                f"min_threads {self.min_threads}"
            )
        if self.priority <= 0:
            raise AllocationError(
                f"'{self.spec.name}': priority must be positive"
            )


@dataclass(frozen=True)
class ArbitrationOutcome:
    """Result of an arbitration round."""

    allocation: ThreadAllocation
    predicted_gflops: float
    rounds: int
    log: tuple[str, ...] = ()


def _check_requests(
    machine: MachineTopology, requests: Sequence[ResourceRequest]
) -> None:
    if not requests:
        raise AllocationError("no resource requests to arbitrate")
    names = [r.spec.name for r in requests]
    if len(set(names)) != len(names):
        raise AllocationError(f"duplicate app names in requests: {names}")
    total_min = sum(r.min_threads for r in requests)
    if total_min > machine.total_cores:
        raise AllocationError(
            f"minimum demands ({total_min} threads) exceed machine "
            f"capacity ({machine.total_cores} cores)"
        )


class FairShareArbiter:
    """The paper's "simple core allocation strategy": equal shares.

    Each application receives ``total_cores / num_apps`` threads, spread
    evenly over the NUMA nodes, "so that the total number of worker threads
    across all applications is equal to the total number of available CPU
    cores" — i.e. no over-subscription.  Constraints are applied by
    clamping to ``[min, max]`` and re-distributing the slack by priority.
    """

    def __init__(self, model: NumaPerformanceModel | None = None) -> None:
        self.model = model or NumaPerformanceModel()

    def decide(
        self,
        machine: MachineTopology,
        requests: Sequence[ResourceRequest],
    ) -> ArbitrationOutcome:
        """Compute the fair-share allocation."""
        _check_requests(machine, requests)
        names = [r.spec.name for r in requests]
        n_apps = len(requests)
        counts = np.zeros((n_apps, machine.num_nodes), dtype=np.int64)
        log: list[str] = []
        for node in machine.nodes:
            share, leftover = divmod(node.num_cores, n_apps)
            node_counts = np.full(n_apps, share, dtype=np.int64)
            order = np.argsort([-r.priority for r in requests], kind="stable")
            for i in order[:leftover]:
                node_counts[i] += 1
            counts[:, node.node_id] = node_counts
        # Clamp machine-wide to [min, max] and recycle freed threads.
        for i, req in enumerate(requests):
            total = counts[i].sum()
            if req.max_threads is not None and total > req.max_threads:
                excess = total - req.max_threads
                log.append(
                    f"{req.spec.name}: clamped {total} -> {req.max_threads}"
                )
                for n in np.argsort(-counts[i], kind="stable"):
                    take = min(excess, counts[i, n])
                    counts[i, n] -= take
                    excess -= take
                    if excess == 0:
                        break
        allocation = ThreadAllocation(app_names=tuple(names), counts=counts)
        allocation.validate(machine)
        prediction = self.model.predict(
            machine, [r.spec for r in requests], allocation
        )
        return ArbitrationOutcome(
            allocation=allocation,
            predicted_gflops=prediction.total_gflops,
            rounds=1,
            log=tuple(log),
        )


class AgentArbiter:
    """Central agent deciding with the model plus an allocation search.

    Runs :class:`~repro.core.optimizer.ExhaustiveSearch` over the symmetric
    space when it is small enough, otherwise falls back to
    :class:`~repro.core.optimizer.HillClimbSearch`, then repairs any
    min/max-thread constraint violations with single-thread moves.

    This is the "sophisticated, CPU-intensive scheduling algorithm" case of
    Section IV; its deliberation cost is surfaced via ``evaluations`` in
    the log so experiments can charge for it.
    """

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        exhaustive_limit: int = 20000,
    ) -> None:
        self.model = model or NumaPerformanceModel()
        self.objective = objective
        self.exhaustive_limit = exhaustive_limit

    def decide(
        self,
        machine: MachineTopology,
        requests: Sequence[ResourceRequest],
    ) -> ArbitrationOutcome:
        """Search for the best allocation satisfying all constraints."""
        _check_requests(machine, requests)
        specs = [r.spec for r in requests]
        log: list[str] = []
        space = CandidateSpace(machine, len(specs))
        if space.symmetric and space.symmetric_size() <= self.exhaustive_limit:
            search = ExhaustiveSearch(self.model, self.objective)
            result = search.search(machine, specs)
            log.append(
                f"exhaustive symmetric search: {result.evaluations} "
                f"evaluations"
            )
        else:
            search = HillClimbSearch(self.model, self.objective)
            result = search.search(machine, specs)
            log.append(
                f"hill-climb search: {result.evaluations} evaluations"
            )
        allocation = self._repair(machine, requests, result.allocation, log)
        prediction = self.model.predict(machine, specs, allocation)
        return ArbitrationOutcome(
            allocation=allocation,
            predicted_gflops=prediction.total_gflops,
            rounds=1,
            log=tuple(log),
        )

    def _repair(
        self,
        machine: MachineTopology,
        requests: Sequence[ResourceRequest],
        allocation: ThreadAllocation,
        log: list[str],
    ) -> ThreadAllocation:
        """Move threads until every request's min/max bound holds."""
        counts = np.array(allocation.counts)
        names = list(allocation.app_names)
        by_name = {r.spec.name: r for r in requests}

        def total(i: int) -> int:
            return int(counts[i].sum())

        for _ in range(machine.total_cores * len(names)):
            under = [
                i
                for i, n in enumerate(names)
                if total(i) < by_name[n].min_threads
            ]
            over = [
                i
                for i, n in enumerate(names)
                if by_name[n].max_threads is not None
                and total(i) > by_name[n].max_threads
            ]
            if not under and not over:
                break
            if over:
                src = over[0]
            else:
                # Take from the app with the largest surplus over its min.
                surplus = [
                    total(i) - by_name[n].min_threads
                    for i, n in enumerate(names)
                ]
                src = int(np.argmax(surplus))
                if surplus[src] <= 0:
                    raise AllocationError(
                        "cannot satisfy minimum thread constraints"
                    )
            if under:
                dst = under[0]
            else:
                # Give to the highest-priority app that still has headroom.
                candidates = [
                    i
                    for i, n in enumerate(names)
                    if i != src
                    and (
                        by_name[n].max_threads is None
                        or total(i) < by_name[n].max_threads
                    )
                ]
                if not candidates:
                    # Nobody can take the surplus thread: leave the core idle.
                    n = int(np.argmax(counts[src]))
                    counts[src, n] -= 1
                    log.append(f"{names[src]}: parked one thread (node {n})")
                    continue
                dst = max(
                    candidates, key=lambda i: by_name[names[i]].priority
                )
            n = int(np.argmax(counts[src]))
            if counts[src, n] == 0:
                raise AllocationError(
                    f"repair stuck: '{names[src]}' has no threads to move"
                )
            counts[src, n] -= 1
            counts[dst, n] += 1
            log.append(
                f"repair: moved one thread on node {n} from "
                f"{names[src]} to {names[dst]}"
            )
        repaired = ThreadAllocation(app_names=tuple(names), counts=counts)
        repaired.validate(machine)
        return repaired


class CooperativeConsensus:
    """Agentless agreement: runtimes claim cores in deterministic rounds.

    Protocol (synchronous rounds, no central decision maker):

    1. every runtime computes its *desired* per-node thread vector from its
       own spec (data-affine for SINGLE_NODE apps, spread otherwise) and a
       fair share of the machine scaled by priority;
    2. claims are resolved node by node: if a node is over-claimed, the
       lowest-priority claims shrink first (ties broken by app name, so
       every participant computes the same outcome — the determinism is
       what replaces the central agent);
    3. runtimes whose claims were cut re-claim their deficit on the nodes
       with the most free cores; repeat until a fixpoint (at most
       ``num_nodes + 1`` rounds, since each round either settles a node
       permanently or stops changing).
    """

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        *,
        max_rounds: int = 32,
    ) -> None:
        self.model = model or NumaPerformanceModel()
        self.max_rounds = max_rounds

    def decide(
        self,
        machine: MachineTopology,
        requests: Sequence[ResourceRequest],
    ) -> ArbitrationOutcome:
        """Run the claim/yield protocol to a fixpoint."""
        _check_requests(machine, requests)
        names = [r.spec.name for r in requests]
        n_nodes = machine.num_nodes
        cores = np.array([n.num_cores for n in machine.nodes])
        log: list[str] = []

        # Step 1: initial desires.
        weights = np.array([r.priority for r in requests])
        share = weights / weights.sum()
        desired_total = np.floor(share * machine.total_cores).astype(int)
        for i in np.argsort(
            -(share * machine.total_cores - desired_total), kind="stable"
        )[: machine.total_cores - desired_total.sum()]:
            desired_total[i] += 1
        for i, req in enumerate(requests):
            desired_total[i] = max(desired_total[i], req.min_threads)
            if req.max_threads is not None:
                desired_total[i] = min(desired_total[i], req.max_threads)

        claims = np.zeros((len(requests), n_nodes), dtype=np.int64)
        for i, req in enumerate(requests):
            claims[i] = self._spread(req.spec, desired_total[i], cores)

        # Steps 2-3: resolve over-claims, re-claim deficits.
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            changed = False
            # Resolve each over-claimed node.
            for n in range(n_nodes):
                excess = claims[:, n].sum() - cores[n]
                if excess <= 0:
                    continue
                changed = True
                order = sorted(
                    range(len(requests)),
                    key=lambda i: (requests[i].priority, names[i]),
                )
                for i in order:
                    cut = min(excess, claims[i, n])
                    claims[i, n] -= cut
                    excess -= cut
                    if cut:
                        log.append(
                            f"round {rounds}: {names[i]} yields {cut} "
                            f"core(s) on node {n}"
                        )
                    if excess == 0:
                        break
            # Re-claim deficits on the freest nodes.
            free = cores - claims.sum(axis=0)
            order = sorted(
                range(len(requests)),
                key=lambda i: (-requests[i].priority, names[i]),
            )
            for i in order:
                deficit = desired_total[i] - claims[i].sum()
                while deficit > 0 and free.sum() > 0:
                    n = int(np.argmax(free))
                    if free[n] == 0:
                        break
                    take = min(deficit, free[n])
                    claims[i, n] += take
                    free[n] -= take
                    deficit -= take
                    changed = True
                    log.append(
                        f"round {rounds}: {names[i]} re-claims {take} "
                        f"core(s) on node {n}"
                    )
            if not changed:
                break

        allocation = ThreadAllocation(app_names=tuple(names), counts=claims)
        allocation.validate(machine)
        prediction = self.model.predict(
            machine, [r.spec for r in requests], allocation
        )
        return ArbitrationOutcome(
            allocation=allocation,
            predicted_gflops=prediction.total_gflops,
            rounds=rounds,
            log=tuple(log),
        )

    @staticmethod
    def _spread(
        spec: AppSpec, total: int, cores: np.ndarray
    ) -> np.ndarray:
        """Initial claim: data-affine for NUMA-bad apps, even otherwise."""
        n_nodes = len(cores)
        claim = np.zeros(n_nodes, dtype=np.int64)
        if spec.placement is Placement.SINGLE_NODE and spec.home_node is not None:
            # Prefer the home node, overflow round-robin outward.
            home = spec.home_node
            claim[home] = min(total, cores[home])
            rest = total - claim[home]
            order = [n for n in range(n_nodes) if n != home]
            while rest > 0 and order:
                for n in list(order):
                    if claim[n] < cores[n]:
                        claim[n] += 1
                        rest -= 1
                        if rest == 0:
                            break
                    else:
                        order.remove(n)
                if not order:
                    break
            return claim
        base, leftover = divmod(total, n_nodes)
        claim[:] = base
        claim[:leftover] += 1
        return np.minimum(claim, cores)
