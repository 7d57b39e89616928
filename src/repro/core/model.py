"""The paper's NUMA performance model (Section III-A), end to end.

Given a :class:`~repro.machine.topology.MachineTopology`, a set of
:class:`~repro.core.spec.AppSpec` applications and a
:class:`~repro.core.allocation.ThreadAllocation`, the model predicts the
GFLOPS each application achieves.  The computation follows the paper's
assumptions:

1. every thread attempts to draw ``peak_gflops / AI`` GB/s;
2. per NUMA node, **remote** requests (threads of a "NUMA-bad" application
   reading their single home node from elsewhere) are served first, capped
   per source node by the inter-node link bandwidth;
3. the remaining bandwidth is shared among the node's **local** threads:
   every core is entitled to a baseline of ``capacity / cores``, and the
   remainder water-fills the unsatisfied threads
   (:mod:`repro.core.bwshare`);
4. a thread's achieved GFLOPS is its granted bandwidth times its
   arithmetic intensity, capped at the core's peak.

The model is deterministic and cheap (microseconds per prediction), which
is what makes the allocation-search optimizers in
:mod:`repro.core.optimizer` practical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.bwshare import RemainderRule, share_node_bandwidth
from repro.core.fasteval import (
    ModelTables,
    ScoreCache,
    as_counts_batch,
    batched_app_gflops,
    workload_fingerprint,
)
from repro.core.spec import AppSpec, Placement
from repro.errors import ModelError
from repro.machine.topology import MachineTopology
from repro.obs import OBS, CounterHandle, HistogramHandle

__all__ = [
    "GroupResult",
    "AppResult",
    "NodeResult",
    "Prediction",
    "NumaPerformanceModel",
]


@dataclass(frozen=True, slots=True)
class GroupResult:
    """Outcome for one (application, source node) thread group.

    All threads of one application bound to the same NUMA node are
    symmetric under the model, so results are reported per group.
    """

    app_name: str
    source_node: int
    threads: int
    demand_per_thread: float
    local_bw: float
    remote_bw: float
    gflops: float

    @property
    def total_bw(self) -> float:
        """Granted bandwidth of the whole group (GB/s)."""
        return self.local_bw + self.remote_bw

    @property
    def bw_per_thread(self) -> float:
        """Granted bandwidth per thread (GB/s)."""
        return self.total_bw / self.threads if self.threads else 0.0

    @property
    def gflops_per_thread(self) -> float:
        """Achieved GFLOPS per thread."""
        return self.gflops / self.threads if self.threads else 0.0

    @property
    def satisfied(self) -> bool:
        """True when the group received its full demand."""
        want = self.demand_per_thread * self.threads
        return self.total_bw >= want - 1e-9


@dataclass(frozen=True, slots=True)
class AppResult:
    """Aggregate outcome for one application."""

    name: str
    gflops: float
    bandwidth: float
    threads: int
    groups: tuple[GroupResult, ...]

    @property
    def gflops_per_thread(self) -> float:
        """Average achieved GFLOPS per thread."""
        return self.gflops / self.threads if self.threads else 0.0


@dataclass(frozen=True, slots=True)
class NodeResult:
    """Memory-side outcome for one NUMA node."""

    node_id: int
    capacity: float
    remote_served: float
    local_capacity: float
    local_consumed: float
    baseline: float

    @property
    def consumed(self) -> float:
        """Total bandwidth drawn from this node's memory (GB/s)."""
        return self.remote_served + self.local_consumed

    @property
    def utilization(self) -> float:
        """Fraction of the node's bandwidth in use."""
        return self.consumed / self.capacity if self.capacity else 0.0


@dataclass(frozen=True)
class Prediction:
    """Full model output for one (machine, apps, allocation) triple."""

    machine_name: str
    allocation: ThreadAllocation
    apps: tuple[AppResult, ...]
    nodes: tuple[NodeResult, ...]

    @property
    def total_gflops(self) -> float:
        """Machine-wide achieved GFLOPS."""
        return float(sum(a.gflops for a in self.apps))

    @property
    def total_bandwidth(self) -> float:
        """Machine-wide consumed bandwidth (GB/s)."""
        return float(sum(n.consumed for n in self.nodes))

    def app(self, name: str) -> AppResult:
        """Result of application ``name``."""
        for a in self.apps:
            if a.name == name:
                return a
        raise ModelError(f"no app '{name}' in prediction")

    def gflops_by_source_node(self) -> np.ndarray:
        """GFLOPS attributed to the node where compute runs."""
        out = np.zeros(len(self.nodes))
        for a in self.apps:
            for g in a.groups:
                out[g.source_node] += g.gflops
        return out

    def summary(self) -> str:
        """One-line-per-app human-readable summary."""
        lines = [
            f"prediction on '{self.machine_name}': "
            f"{self.total_gflops:.2f} GFLOPS total"
        ]
        for a in self.apps:
            lines.append(
                f"  {a.name}: {a.gflops:.2f} GFLOPS on {a.threads} threads "
                f"({a.bandwidth:.2f} GB/s)"
            )
        return "\n".join(lines)


class NumaPerformanceModel:
    """Evaluator for the paper's NUMA bandwidth-sharing model.

    Parameters
    ----------
    remainder_rule:
        How leftover node bandwidth is split among unsatisfied threads;
        see :class:`~repro.core.bwshare.RemainderRule`.  The paper's
        published numbers are identical under both rules.
    cache_size:
        Capacity of the score cache, in rows (LRU-evicted): it keeps
        the winning row of each whole symmetric space searched, and an
        entry weighs its space's ``B`` rows
        (:class:`~repro.core.fasteval.ScoreCache`).  A returning
        workload's exhaustive search is then one lookup; pass ``0`` to
        disable the cache.
    workers:
        Must be ``0``: the model scores every batch in-process, and any
        other value raises :class:`TypeError`.  The keyword is still
        accepted because the serve-path benchmark's oracle
        (``perfbench/oracle.py``) passes ``workers=0``.
    """

    #: How many (machine, apps) workloads keep precomputed tables alive.
    _TABLES_KEPT = 8

    def __init__(
        self,
        remainder_rule: RemainderRule = RemainderRule.PROPORTIONAL,
        *,
        cache_size: int = 65536,
        workers: int = 0,
    ) -> None:
        if workers != 0:
            raise TypeError(
                f"the model scores in-process only; workers must be 0, "
                f"got {workers!r}"
            )
        self.remainder_rule = remainder_rule
        self.cache = ScoreCache(cache_size) if cache_size > 0 else None
        self._tables: dict[tuple, ModelTables] = {}
        self._obs_predictions = CounterHandle("model/predictions")
        self._obs_predict_seconds = HistogramHandle("model/predict_seconds")
        self._obs_batched = CounterHandle("model/batched_evaluations")
        self._obs_cache_hits = CounterHandle("model/cache_hits")
        self._obs_cache_misses = CounterHandle("model/cache_misses")

    # ------------------------------------------------------------------
    def _batch_gflops(
        self, tables: ModelTables, counts: np.ndarray
    ) -> np.ndarray:
        """Per-app GFLOPS of a counts batch: the serial kernel, in-process.

        The kernel is called through this module's
        ``batched_app_gflops`` binding, so a wrapper installed there
        sees every batch the model scores.  No search produces a batch
        large enough to pay for a process round trip (see "Why scoring
        is serial" in ``docs/PERFORMANCE.md``).
        """
        return batched_app_gflops(tables, counts, self.remainder_rule)

    # ------------------------------------------------------------------
    def predict(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
    ) -> Prediction:
        """Predict achieved GFLOPS for every application.

        When observability is enabled (:mod:`repro.obs`) each call bumps
        the ``model/predictions`` counter and records its latency in the
        ``model/predict_seconds`` histogram, from which evaluations/sec
        falls out; disabled, the overhead is one boolean check.

        Raises
        ------
        ModelError
            If the apps and allocation are inconsistent with each other or
            with the machine.
        """
        if not OBS.enabled:
            return self._predict(machine, apps, allocation)
        t0 = time.perf_counter()
        prediction = self._predict(machine, apps, allocation)
        self._obs_predictions.add()
        self._obs_predict_seconds.record(time.perf_counter() - t0)
        return prediction

    # ------------------------------------------------------------------
    def predict_scores(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocations,
    ) -> np.ndarray:
        """Per-app GFLOPS for a batch of allocations (the fast path).

        The score-only counterpart of :meth:`predict`: phases 1 and 2 of
        the model run vectorised over a batch axis
        (:mod:`repro.core.fasteval`) and no result dataclasses are
        assembled.  Every row goes through the kernel, in one batched
        call.  A whole-space search does not come through here: it
        needs only the first best row, which
        :meth:`~repro.core.fasteval.FastEvaluator.best_row` finds
        through the same tables and kernel, and this model's cache
        keeps as one entry.

        Parameters
        ----------
        machine, apps:
            The fixed workload every candidate is scored against.
        allocations:
            One :class:`~repro.core.allocation.ThreadAllocation`, a
            sequence of them, an ``(apps, nodes)`` counts matrix, or a
            ``(B, apps, nodes)`` counts tensor.

        Returns
        -------
        np.ndarray
            ``(B, len(apps))`` achieved GFLOPS per candidate and app;
            agrees with :meth:`predict` to within 1e-9 per app.  Reduce
            with an objective's ``batched`` form to get search scores.
            The array is the caller's own (writeable).

        Raises
        ------
        ModelError
            If the workload is inconsistent (duplicate apps, bad home
            node, malformed counts).
        OversubscriptionError
            If any candidate over-subscribes a node.
        """
        self._check_workload(machine, apps)
        counts = as_counts_batch(allocations, len(apps), machine.num_nodes)
        gflops = self._batch_gflops(self._tables_for(machine, apps), counts)
        if OBS.enabled:
            self._obs_batched.add(len(counts))
        return gflops

    def _cached_space(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        counts: np.ndarray,
        key: Hashable,
        pick: Callable[[ModelTables, np.ndarray], tuple[int, int, int]],
    ) -> tuple[int, int, int]:
        """A whole space's winning row, cached as one entry.

        ``counts`` is the memoised symmetric tensor ``key`` names, which
        the caller has checked.  On a hit of the entry under ``key`` the
        answer is ``(row, 0, 0)``
        (:meth:`~repro.core.fasteval.ScoreCache.lookup_space`).  On a
        miss ``pick(tables, counts)`` returns ``(row, rows scored, rows
        ruled out)``, and the row is stored as one entry weighing
        ``len(counts)`` rows.
        """
        self._check_workload(machine, apps)
        tables = self._tables_for(machine, apps)
        cache = self.cache
        best = (
            None
            if cache is None
            else cache.lookup_space(tables.key, key, len(counts))
        )
        if OBS.enabled:
            self._obs_batched.add(len(counts))
            if best is None:
                self._obs_cache_misses.add(len(counts))
            else:
                self._obs_cache_hits.add(len(counts))
        if best is not None:
            return best, 0, 0
        answer = pick(tables, counts)
        if cache is not None:
            cache.store_space(tables.key, key, answer[0], len(counts))
        return answer

    def _tables_for(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> ModelTables:
        """Precomputed tables for (machine, apps), built once per workload."""
        key = workload_fingerprint(machine, apps, self.remainder_rule)
        tables = self._tables.get(key)
        if tables is None:
            tables = ModelTables.build(machine, apps, self.remainder_rule)
            if len(self._tables) >= self._TABLES_KEPT:
                self._tables.pop(next(iter(self._tables)))
            self._tables[key] = tables
        return tables

    def _predict(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
    ) -> Prediction:
        self._check_inputs(machine, apps, allocation)
        n_nodes = machine.num_nodes
        n_apps = len(apps)
        counts = allocation.counts  # (apps, nodes)

        # Per-(app, source-node) demand routed to each memory node:
        # route[a, s, m] = GB/s that app a's threads on node s attempt to
        # draw from node m's memory.
        route = np.zeros((n_apps, n_nodes, n_nodes))
        for a, app in enumerate(apps):
            for s in range(n_nodes):
                t = counts[a, s]
                if t == 0:
                    continue
                core_peak = machine.node(s).cores[0].peak_gflops
                demand = app.demand_per_thread(core_peak) * t
                if app.placement is Placement.NUMA_PERFECT:
                    route[a, s, s] = demand
                elif app.placement is Placement.SINGLE_NODE:
                    route[a, s, app.home_node] = demand
                else:  # INTERLEAVED
                    route[a, s, :] = demand / n_nodes

        # Phase 1 — remote service.  For each memory node m and each
        # foreign source node s, the aggregate remote demand is capped by
        # the s->m link; if the sum of link-capped remote flows exceeds the
        # node's bandwidth they are scaled down proportionally (the paper's
        # parameters never trigger the scaling, but the model must stay
        # physical for arbitrary inputs).
        remote_demand = route.sum(axis=0)  # (source, memory)
        served = np.zeros((n_nodes, n_nodes))
        for m in range(n_nodes):
            for s in range(n_nodes):
                if s == m:
                    continue
                d = remote_demand[s, m]
                if d <= 0:
                    continue
                served[s, m] = min(d, machine.bandwidth(s, m))
            total = served[:, m].sum()
            cap = machine.node(m).local_bandwidth
            if total > cap:
                served[:, m] *= cap / total

        # Per-group remote grants: each source node's served flow is split
        # among the contributing groups proportionally to their demand.
        remote_grant = np.zeros((n_apps, n_nodes))  # by (app, source node)
        for m in range(n_nodes):
            for s in range(n_nodes):
                if s == m or served[s, m] <= 0:
                    continue
                demands = route[:, s, m]
                share = served[s, m] / demands.sum()
                remote_grant[:, s] += demands * share

        # Phase 2 — local arbitration on what remains of each node.
        local_grant = np.zeros((n_apps, n_nodes))  # by (app, source node)
        node_results: list[NodeResult] = []
        for m in range(n_nodes):
            node = machine.node(m)
            remote_served = float(served[:, m].sum())
            capacity = node.local_bandwidth - remote_served
            # Expand group-level local demands into per-thread demands so
            # the baseline/water-fill operates at thread granularity, as
            # the paper's rules are stated per core.
            thread_demands: list[float] = []
            owners: list[int] = []
            for a in range(n_apps):
                t = counts[a, m]
                d = route[a, m, m]
                if t == 0:
                    continue
                per_thread = d / t
                thread_demands.extend([per_thread] * t)
                owners.extend([a] * t)
            # Threads with zero local demand (e.g. NUMA-bad threads away
            # from home) still occupy a core but draw nothing locally;
            # including them (demand 0) or excluding them is equivalent
            # under the baseline rule, which divides by cores, not threads.
            share = share_node_bandwidth(
                max(capacity, 0.0),
                node.num_cores,
                np.asarray(thread_demands, dtype=float),
                rule=self.remainder_rule,
            )
            for grant, a in zip(share.allocated, owners):
                local_grant[a, m] += grant
            node_results.append(
                NodeResult(
                    node_id=m,
                    capacity=node.local_bandwidth,
                    remote_served=remote_served,
                    local_capacity=max(capacity, 0.0),
                    local_consumed=share.consumed,
                    baseline=share.baseline,
                )
            )

        # Assemble per-app results.
        app_results: list[AppResult] = []
        for a, app in enumerate(apps):
            groups: list[GroupResult] = []
            for s in range(n_nodes):
                t = int(counts[a, s])
                if t == 0:
                    continue
                core_peak = machine.node(s).cores[0].peak_gflops
                peak = app.peak_gflops(core_peak)
                bw = float(local_grant[a, s] + remote_grant[a, s])
                gflops = min(bw * app.arithmetic_intensity, peak * t)
                groups.append(
                    GroupResult(
                        app_name=app.name,
                        source_node=s,
                        threads=t,
                        demand_per_thread=app.demand_per_thread(core_peak),
                        local_bw=float(local_grant[a, s]),
                        remote_bw=float(remote_grant[a, s]),
                        gflops=gflops,
                    )
                )
            app_results.append(
                AppResult(
                    name=app.name,
                    gflops=float(sum(g.gflops for g in groups)),
                    bandwidth=float(sum(g.total_bw for g in groups)),
                    threads=int(counts[a].sum()),
                    groups=tuple(groups),
                )
            )

        return Prediction(
            machine_name=machine.name,
            allocation=allocation,
            apps=tuple(app_results),
            nodes=tuple(node_results),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check_workload(
        machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> None:
        """Validate the allocation-independent part of the inputs."""
        if not apps:
            raise ModelError("need at least one application")
        names = [a.name for a in apps]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate app names: {names}")
        for app in apps:
            if (
                app.placement is Placement.SINGLE_NODE
                and app.home_node is not None
                and app.home_node >= machine.num_nodes
            ):
                raise ModelError(
                    f"app '{app.name}' home_node {app.home_node} out of "
                    f"range for machine with {machine.num_nodes} nodes"
                )

    @classmethod
    def _check_inputs(
        cls,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
    ) -> None:
        cls._check_workload(machine, apps)
        names = tuple(a.name for a in apps)
        if names != allocation.app_names:
            raise ModelError(
                f"allocation apps {allocation.app_names} do not match "
                f"workload apps {names} (order matters)"
            )
        allocation.validate(machine)
