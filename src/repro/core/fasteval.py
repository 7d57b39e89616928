"""Batched + cached model evaluation: the allocation-search fast path.

The paper's premise is that the analytic model is "cheap enough to
search over" (Section III-A), but the reference implementation in
:mod:`repro.core.model` pays for generality on every call: Python loops
rebuild the ``(apps, nodes, nodes)`` routing tensor, per-thread demand
lists are expanded, and a full :class:`~repro.core.model.Prediction`
object tree is assembled even when the caller only consumes one scalar
score.  Search inner loops evaluate thousands of candidate allocations
against a *fixed* machine and application set, which makes the work
almost entirely redundant.  This module removes the redundancy in three
layers:

1. **Precomputed tables** — :class:`ModelTables` factors everything that
   depends only on (machine, apps) out of the per-candidate work: the
   per-thread routing tensor, demand and peak matrices, link and
   capacity vectors.  Built once per workload, cached by fingerprint.
2. **Batched evaluation** — :func:`batched_app_gflops` runs phase 1
   (remote/link capping) and phase 2 (baseline + water-fill, using the
   closed-form :func:`~repro.core.bwshare.share_node_bandwidth_batch`)
   over a whole ``(B, apps, nodes)`` tensor of candidate allocations
   with NumPy, producing per-app GFLOPS for every candidate without
   creating a single dataclass.
3. **Memoisation** — :class:`ScoreCache` is a bounded LRU keyed by
   ``(workload fingerprint, counts bytes)``.  Hill climbing and
   annealing revisit the same allocations constantly; a revisit costs
   one dict lookup instead of a model evaluation.  A batch makes one
   round trip: its row keys are built in one step (:func:`row_keys`)
   and the fingerprint is hashed once per lookup and store, not per
   row.

The scalar :meth:`~repro.core.model.NumaPerformanceModel.predict`
remains the ground truth; parity (``|batched - reference| <= 1e-9``) is
enforced by the property tests in ``tests/test_core_fasteval.py`` and
the speedup is tracked by ``python -m repro bench``
(see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.bwshare import RemainderRule, share_node_bandwidth_batch
from repro.core.spec import AppSpec, Placement
from repro.errors import ModelError, OversubscriptionError
from repro.machine.topology import MachineTopology

__all__ = [
    "ModelTables",
    "ScoreCache",
    "FastEvaluator",
    "batched_app_gflops",
    "as_counts_batch",
    "check_oversubscription",
    "row_keys",
    "workload_fingerprint",
]

#: An objective's batched form: ``(per-app GFLOPS (B, A), apps) -> (B,)``.
BatchedObjective = Callable[[np.ndarray, Sequence[AppSpec]], np.ndarray]


def workload_fingerprint(
    machine: MachineTopology,
    apps: Sequence[AppSpec],
    rule: RemainderRule,
) -> tuple:
    """Hashable key identifying one (machine, apps, remainder-rule) triple.

    Includes the machine name *and* its structural fingerprint, so two
    differently-parameterised machines that happen to share a name can
    never alias each other's cached scores.
    """
    return (
        machine.fingerprint,
        tuple(app.fingerprint for app in apps),
        rule.value,
    )


@dataclass(frozen=True)
class ModelTables:
    """Everything about (machine, apps) the batched evaluator reads.

    All arrays are constant across candidates, so building them once per
    workload removes the Python-loop tensor assembly from the
    per-candidate cost.  Shapes use ``A`` = apps, ``N`` = nodes.

    Attributes
    ----------
    route_per_thread:
        ``(A, N, N)`` — GB/s one thread of app ``a`` running on node
        ``s`` attempts to draw from node ``m``'s memory.  Multiplying by
        a counts matrix recovers the model's routing tensor.
    local_demand:
        ``(A, N)`` — the diagonal ``route_per_thread[a, s, s]``: one
        thread's demand on its own node's memory.
    peak_per_thread:
        ``(A, N)`` — per-thread GFLOPS cap of app ``a`` on node ``s``.
    intensity:
        ``(A,)`` — arithmetic intensity (GFLOPS per GB/s granted).
    link:
        ``(N, N)`` — inter-node link bandwidth matrix.
    node_capacity:
        ``(N,)`` — local memory bandwidth per node.
    cores_per_node:
        ``(N,)`` — baseline divisor per node.
    key:
        The workload fingerprint these tables were built for.
    """

    route_per_thread: np.ndarray
    local_demand: np.ndarray
    peak_per_thread: np.ndarray
    intensity: np.ndarray
    link: np.ndarray
    node_capacity: np.ndarray
    cores_per_node: np.ndarray
    key: tuple

    @classmethod
    def build(
        cls,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        rule: RemainderRule,
    ) -> "ModelTables":
        """Precompute the constant tensors for one workload."""
        n_apps, n_nodes = len(apps), machine.num_nodes
        route = np.zeros((n_apps, n_nodes, n_nodes))
        peak = np.zeros((n_apps, n_nodes))
        for a, app in enumerate(apps):
            for s in range(n_nodes):
                core_peak = machine.node(s).cores[0].peak_gflops
                demand = app.demand_per_thread(core_peak)
                peak[a, s] = app.peak_gflops(core_peak)
                if app.placement is Placement.NUMA_PERFECT:
                    route[a, s, s] = demand
                elif app.placement is Placement.SINGLE_NODE:
                    route[a, s, app.home_node] = demand
                else:  # INTERLEAVED
                    route[a, s, :] = demand / n_nodes
        return cls(
            route_per_thread=route,
            local_demand=np.ascontiguousarray(
                np.einsum("ass->as", route)
            ),
            peak_per_thread=peak,
            intensity=np.array([app.arithmetic_intensity for app in apps]),
            link=np.asarray(machine.link_bandwidth, dtype=float),
            node_capacity=np.array(
                [node.local_bandwidth for node in machine.nodes]
            ),
            cores_per_node=np.array(machine.cores_per_node, dtype=np.int64),
            key=workload_fingerprint(machine, apps, rule),
        )


def as_counts_batch(
    allocations, n_apps: int, n_nodes: int
) -> np.ndarray:
    """Normalise ``allocations`` to an ``(B, A, N)`` int64 counts tensor.

    Accepts a single :class:`ThreadAllocation`, a sequence of them, a
    single ``(A, N)`` matrix, or a ready ``(B, A, N)`` tensor.
    """
    if isinstance(allocations, ThreadAllocation):
        counts = allocations.counts[None]
    elif isinstance(allocations, np.ndarray):
        counts = allocations if allocations.ndim == 3 else allocations[None]
    else:
        seq = list(allocations)
        if not seq:
            raise ModelError("empty allocation batch")
        if isinstance(seq[0], ThreadAllocation):
            counts = np.stack([a.counts for a in seq])
        else:
            counts = np.asarray(seq)
            if counts.ndim == 2:
                counts = counts[None]
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[1:] != (n_apps, n_nodes):
        raise ModelError(
            f"allocation batch must have shape (B, {n_apps}, {n_nodes}), "
            f"got {counts.shape}"
        )
    if not np.issubdtype(counts.dtype, np.integer):
        rounded = np.rint(counts)
        if not np.allclose(counts, rounded):
            raise ModelError("thread counts must be integers")
        counts = rounded
    counts = counts.astype(np.int64, copy=False)
    if np.any(counts < 0):
        raise ModelError("thread counts must be non-negative")
    return counts


def check_oversubscription(
    tables: ModelTables, counts: np.ndarray
) -> None:
    """Reject any candidate placing more threads on a node than cores.

    Shared by the serial kernel and the parallel pool's parent-side
    pre-validation (:mod:`repro.core.parallel`), so an oversubscribed
    batch raises the *same* error with the same message regardless of
    the worker count — and never counts as a parallel fallback.
    """
    per_node = counts.sum(axis=1)  # (B, N)
    over = per_node > tables.cores_per_node[None, :]
    if np.any(over):
        b, n = np.argwhere(over)[0]
        raise OversubscriptionError(
            f"candidate {b}: node {n} gets {per_node[b, n]} threads but "
            f"has only {tables.cores_per_node[n]} cores"
        )


def batched_app_gflops(
    tables: ModelTables,
    counts: np.ndarray,
    rule: RemainderRule,
) -> np.ndarray:
    """Per-app GFLOPS for a batch of allocations, no dataclasses.

    Vectorises the reference model's two phases over the leading batch
    axis.  ``counts`` is a validated ``(B, A, N)`` tensor; the return
    value has shape ``(B, A)`` and matches
    :meth:`repro.core.model.NumaPerformanceModel.predict` (summed over
    each app's groups) to within 1e-9.

    Raises
    ------
    OversubscriptionError
        If any candidate puts more threads on a node than it has cores.
    """
    check_oversubscription(tables, counts)
    cf = counts.astype(float)
    n_nodes = tables.link.shape[0]
    # Routing tensor: route[b, a, s, m] = demand app a's threads on s
    # place on memory m.
    route = cf[:, :, :, None] * tables.route_per_thread[None]
    remote_demand = route.sum(axis=1)  # (B, S, M)

    # Phase 1 — remote service: cap each foreign flow by its link, then
    # scale flows into a node down proportionally if they exceed the
    # node's bandwidth.
    off_diagonal = ~np.eye(n_nodes, dtype=bool)
    served = np.minimum(remote_demand, tables.link[None]) * off_diagonal
    total_remote = served.sum(axis=1)  # (B, M)
    over_cap = total_remote > tables.node_capacity[None, :]
    scale = np.where(
        over_cap,
        tables.node_capacity[None, :] / np.where(over_cap, total_remote, 1.0),
        1.0,
    )
    served *= scale[:, None, :]

    # Split each served flow among its contributing groups in proportion
    # to their demand.
    ratio = np.divide(
        served,
        remote_demand,
        out=np.zeros_like(served),
        where=remote_demand > 0,
    )
    remote_grant = np.einsum("basm,bsm->bas", route, ratio)

    # Phase 2 — local arbitration on what remains of each node.
    remote_served = served.sum(axis=1)  # (B, M)
    capacity = np.maximum(
        tables.node_capacity[None, :] - remote_served, 0.0
    )
    local_grant = np.empty_like(remote_grant)  # (B, A, N)
    for m in range(n_nodes):
        local_grant[:, :, m] = share_node_bandwidth_batch(
            capacity[:, m],
            int(tables.cores_per_node[m]),
            tables.local_demand[:, m],
            cf[:, :, m],
            rule=rule,
        )

    bandwidth = local_grant + remote_grant  # (B, A, S)
    gflops = np.minimum(
        bandwidth * tables.intensity[None, :, None],
        tables.peak_per_thread[None] * cf,
    )
    return gflops.sum(axis=2)


class _Prefix:
    """One interned key prefix and how many cached rows share it."""

    __slots__ = ("key", "rows")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.rows = 0


class ScoreCache:
    """Bounded LRU of per-app GFLOPS rows, keyed by exact allocation.

    Keys are ``(workload fingerprint, counts.tobytes())`` — see
    :func:`workload_fingerprint`.  Values are read-only ``(A,)`` arrays,
    so a cached row can be handed to every caller without copying.
    Local-search optimizers revisit allocations constantly (a hill-climb
    neighbourhood overlaps its predecessor's almost entirely), which is
    what makes a memo cache worth its memory.

    The keys of one batch differ only in their last element, so
    :meth:`lookup` and :meth:`store` take the shared prefix
    ``(fingerprint,)`` once and the last elements as a list.  The cache
    interns each prefix that still has rows, so a ~1 KB fingerprint is
    hashed once per lookup or store instead of on every row's ``get``,
    ``put`` and recency update.  :meth:`get` and :meth:`put` are the
    one-row case of the same code; a batch leaves the same LRU order and
    ``hits``/``misses`` counts as a :meth:`get` of every row followed by
    a :meth:`put` of every miss, in batch order.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize <= 0:
            raise ModelError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[tuple[_Prefix, Hashable], np.ndarray] = (
            OrderedDict()
        )
        self._prefixes: dict[tuple, _Prefix] = {}

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list[tuple]:
        """Every cached key, least recently used first."""
        return [prefix.key + (row,) for prefix, row in self._data]

    def get(self, key: tuple) -> np.ndarray | None:
        """The cached row for ``key``, refreshing its recency."""
        _, found = self.lookup(key[:-1], key[-1:])
        return found[0] if found else None

    def put(self, key: tuple, row: np.ndarray) -> None:
        """Insert a row, evicting the least recently used beyond capacity."""
        row = np.asarray(row)
        row.setflags(write=False)
        self.store(key[:-1], key[-1:], row[None])

    def lookup(
        self, prefix: tuple, rows: Sequence[Hashable]
    ) -> tuple[list[int], list[np.ndarray]]:
        """Look up the keys ``prefix + (row,)`` in order; refresh the hits.

        Returns the positions in ``rows`` that missed and the cached
        values of the rest, both in batch order.  A row repeated in the
        batch is looked up as often as it appears.
        """
        interned = self._prefixes.get(prefix)
        if interned is None:
            self.misses += len(rows)
            return list(range(len(rows))), []
        get = self._data.get
        refresh = self._data.move_to_end
        missed: list[int] = []
        found: list[np.ndarray] = []
        for i, row in enumerate(rows):
            key = (interned, row)
            value = get(key)
            if value is None:
                missed.append(i)
            else:
                refresh(key)
                found.append(value)
        self.hits += len(found)
        self.misses += len(missed)
        return missed, found

    def store(
        self, prefix: tuple, rows: Sequence[Hashable], values: np.ndarray
    ) -> None:
        """Insert ``values[i]`` under ``prefix + (rows[i],)``, in order.

        ``values`` is made read-only and its rows are cached as views.
        The least recently used entries beyond capacity are evicted.
        """
        values = np.asarray(values)
        values.setflags(write=False)
        interned = self._prefixes.get(prefix)
        if interned is None:
            interned = self._prefixes[prefix] = _Prefix(prefix)
        data = self._data
        keys = [(interned, row) for row in rows]
        before = len(data)
        data.update(zip(keys, values))
        added = len(data) - before
        if added < len(keys):
            # Some keys were already cached (or repeat in the batch):
            # each put moves its key to the most recent end.
            for key in keys:
                data.move_to_end(key)
        interned.rows += added
        over = len(data) - self.maxsize
        if over > 0:
            for key in list(itertools.islice(data, over)):
                del data[key]
                owner = key[0]
                owner.rows -= 1
                if not owner.rows:
                    del self._prefixes[owner.key]

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss tallies."""
        self._data.clear()
        self._prefixes.clear()
        self.hits = 0
        self.misses = 0


def row_keys(counts: np.ndarray) -> list[bytes]:
    """``counts[b].tobytes()`` for every row of a ``(B, A, N)`` tensor.

    Built in one vectorised step: each row is viewed as one opaque
    ``A * N * itemsize``-byte record and the records are converted to
    ``bytes`` together.
    """
    batch, apps, nodes = counts.shape
    flat = np.ascontiguousarray(counts).reshape(batch, apps * nodes)
    return flat.view(_record(flat.shape[1] * flat.itemsize)).ravel().tolist()


@functools.lru_cache(maxsize=16)
def _record(nbytes: int) -> np.dtype:
    """The opaque ``nbytes``-byte record dtype (built once per width)."""
    return np.dtype((np.void, nbytes))


class FastEvaluator:
    """Score batches of candidate allocations for one search.

    Binds a model, a workload and an objective's batched form into one
    callable the optimizers drive.  Construction fails soft: use
    :meth:`create`, which returns ``None`` when the objective has no
    batched form, letting searches fall back to the scalar path.
    """

    def __init__(
        self,
        model,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        batched_objective: BatchedObjective,
    ) -> None:
        self.model = model
        self.machine = machine
        self.apps = tuple(apps)
        self.batched_objective = batched_objective

    @classmethod
    def create(
        cls,
        model,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        objective,
    ) -> "FastEvaluator | None":
        """An evaluator for ``objective``, or ``None`` if not batchable.

        An objective opts into the fast path by carrying a ``batched``
        attribute (see :mod:`repro.core.optimizer`); arbitrary callables
        over full :class:`~repro.core.model.Prediction` objects cannot
        be vectorised and keep the reference path.
        """
        batched = getattr(objective, "batched", None)
        if batched is None:
            return None
        return cls(model, machine, apps, batched)

    def scores(self, counts: np.ndarray) -> np.ndarray:
        """Objective score of each candidate in a ``(B, A, N)`` tensor."""
        gflops = self.model.predict_scores(self.machine, self.apps, counts)
        return np.asarray(
            self.batched_objective(gflops, self.apps), dtype=float
        )
