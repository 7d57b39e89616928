"""Allocation policies: generators of :class:`ThreadAllocation` candidates.

Section II/III of the paper sketch several "simple core allocation
strategies": a fair share of the cores per application, uneven splits that
favour applications which can use the bandwidth, and dedicating whole NUMA
nodes.  This module turns each into a policy object with a common
interface.  The enumerations the searches walk live in
:mod:`repro.core.candidates`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.spec import AppSpec, Placement
from repro.errors import AllocationError
from repro.machine.topology import MachineTopology

__all__ = [
    "AllocationPolicy",
    "EvenSharePolicy",
    "UnevenSharePolicy",
    "NodeExclusivePolicy",
    "ProportionalDemandPolicy",
    "SingleAppFillPolicy",
]


class AllocationPolicy(ABC):
    """A rule mapping (machine, apps) to one concrete allocation."""

    name: str = "policy"

    @abstractmethod
    def allocate(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ThreadAllocation:
        """Produce an allocation for ``apps`` on ``machine``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} '{self.name}'>"


@dataclass
class EvenSharePolicy(AllocationPolicy):
    """Fair share: every app gets the same thread count on every node.

    This is the paper's Figure 2 b) scenario.  When the cores of a node do
    not divide evenly, the left-over cores stay idle unless
    ``distribute_leftover`` is set, in which case they are handed to apps
    in listing order.
    """

    distribute_leftover: bool = False
    name: str = "even-share"

    def allocate(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ThreadAllocation:
        """Split every node's cores evenly across the apps."""
        if not apps:
            raise AllocationError("no apps to allocate")
        names = [a.name for a in apps]
        counts = np.zeros((len(apps), machine.num_nodes), dtype=np.int64)
        for node in machine.nodes:
            share, leftover = divmod(node.num_cores, len(apps))
            counts[:, node.node_id] = share
            if self.distribute_leftover:
                for a in range(leftover):
                    counts[a, node.node_id] += 1
        return ThreadAllocation(app_names=tuple(names), counts=counts)


@dataclass
class UnevenSharePolicy(AllocationPolicy):
    """Fixed per-app thread counts replicated on every node.

    The paper's Figure 2 a) scenario ("1,1,1,5") expressed as a policy.
    """

    threads_per_app: Mapping[str, int]
    name: str = "uneven-share"

    def allocate(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ThreadAllocation:
        """Replicate the configured per-app counts on every node."""
        names = [a.name for a in apps]
        missing = set(names) - set(self.threads_per_app)
        if missing:
            raise AllocationError(
                f"uneven policy missing thread counts for {sorted(missing)}"
            )
        counts = np.array(
            [
                [self.threads_per_app[n]] * machine.num_nodes
                for n in names
            ],
            dtype=np.int64,
        )
        alloc = ThreadAllocation(app_names=tuple(names), counts=counts)
        alloc.validate(machine)
        return alloc


@dataclass
class NodeExclusivePolicy(AllocationPolicy):
    """Dedicate one whole NUMA node to each application (Figure 2 c).

    ``data_affine`` pins each SINGLE_NODE ("NUMA-bad") application to its
    home node — the paper's "ensuring the NUMA-bad code is on the right
    node".  Remaining apps fill remaining nodes in listing order.
    """

    data_affine: bool = True
    name: str = "node-exclusive"

    def allocate(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ThreadAllocation:
        """Dedicate whole NUMA nodes to applications round-robin."""
        names = [a.name for a in apps]
        if len(apps) != machine.num_nodes:
            raise AllocationError(
                f"node-exclusive needs one app per node "
                f"({len(apps)} apps, {machine.num_nodes} nodes)"
            )
        assignment: dict[str, int] = {}
        taken: set[int] = set()
        if self.data_affine:
            for app in apps:
                if (
                    app.placement is Placement.SINGLE_NODE
                    and app.home_node is not None
                    and app.home_node not in taken
                ):
                    assignment[app.name] = app.home_node
                    taken.add(app.home_node)
        free = [n for n in range(machine.num_nodes) if n not in taken]
        for app in apps:
            if app.name not in assignment:
                assignment[app.name] = free.pop(0)
        return ThreadAllocation.node_exclusive(names, machine, assignment)


@dataclass
class ProportionalDemandPolicy(AllocationPolicy):
    """Give each app per-node threads proportional to a weight.

    By default the weight is the inverse of the app's per-thread bandwidth
    demand, so compute-bound applications (cheap threads) receive more
    cores — the heuristic behind the paper's observation that the uneven
    (1,1,1,5) split beats the fair share on the Tables I/II workload.
    """

    weights: Mapping[str, float] | None = None
    min_threads: int = 1
    name: str = "proportional-demand"

    def allocate(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ThreadAllocation:
        """Size each app's per-node share by its weight."""
        if not apps:
            raise AllocationError("no apps to allocate")
        names = [a.name for a in apps]
        if self.weights is not None:
            w = np.array([float(self.weights[n]) for n in names])
        else:
            core_peak = machine.nodes[0].cores[0].peak_gflops
            w = np.array(
                [1.0 / a.demand_per_thread(core_peak) for a in apps]
            )
        if np.any(w <= 0):
            raise AllocationError("weights must be positive")
        counts = np.zeros((len(apps), machine.num_nodes), dtype=np.int64)
        for node in machine.nodes:
            cores = node.num_cores
            floor = self.min_threads * len(apps)
            if floor > cores:
                raise AllocationError(
                    f"node {node.node_id}: cannot give {self.min_threads} "
                    f"thread(s) to each of {len(apps)} apps with only "
                    f"{cores} cores"
                )
            base = np.full(len(apps), self.min_threads, dtype=np.int64)
            spare = cores - floor
            # Largest-remainder apportionment of the spare cores.
            ideal = spare * w / w.sum()
            extra = np.floor(ideal).astype(np.int64)
            rema = ideal - extra
            for i in np.argsort(-rema)[: spare - int(extra.sum())]:
                extra[i] += 1
            counts[:, node.node_id] = base + extra
        return ThreadAllocation(app_names=tuple(names), counts=counts)


@dataclass
class SingleAppFillPolicy(AllocationPolicy):
    """Give one app everything, others a single thread per node.

    Models the paper's tight-integration scenario where cores are shifted
    wholesale to a "library" application while it runs.
    """

    favoured: str
    name: str = "single-app-fill"

    def allocate(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ThreadAllocation:
        """Fill the machine with one app; one thread each for the rest."""
        names = [a.name for a in apps]
        if self.favoured not in names:
            raise AllocationError(f"unknown favoured app '{self.favoured}'")
        counts = np.ones((len(apps), machine.num_nodes), dtype=np.int64)
        fi = names.index(self.favoured)
        for node in machine.nodes:
            others = len(apps) - 1
            counts[fi, node.node_id] = node.num_cores - others
            if counts[fi, node.node_id] < 1:
                raise AllocationError(
                    f"node {node.node_id} too small to favour "
                    f"'{self.favoured}' among {len(apps)} apps"
                )
        return ThreadAllocation(app_names=tuple(names), counts=counts)
