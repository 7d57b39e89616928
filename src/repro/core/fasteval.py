"""Batched + cached model evaluation: the allocation-search fast path.

The paper's premise is that the analytic model is "cheap enough to
search over" (Section III-A), but the reference implementation in
:mod:`repro.core.model` pays for generality on every call: Python loops
rebuild the ``(apps, nodes, nodes)`` routing tensor, per-thread demand
lists are expanded, and a full :class:`~repro.core.model.Prediction`
object tree is assembled even when the caller only consumes one scalar
score.  Search inner loops evaluate thousands of candidate allocations
against a *fixed* machine and application set, which makes the work
almost entirely redundant.  This module removes the redundancy in four
layers:

1. **Precomputed tables** — :class:`ModelTables` factors everything that
   depends only on (machine, apps) out of the per-candidate work: the
   per-thread routing tensor, demand and peak matrices, link and
   capacity vectors.  Built once per workload, cached by fingerprint.
2. **Batched evaluation** — :func:`batched_app_gflops` runs phase 1
   (remote/link capping, over the apps that read another node's
   memory) and phase 2 (baseline + water-fill of every node at once,
   the closed form of :func:`~repro.core.bwshare.share_bandwidth_batch`)
   over a whole ``(B, apps, nodes)`` tensor of candidate allocations
   with NumPy, in cache-sized row blocks, producing per-app GFLOPS for
   every candidate without creating a single dataclass.  Its floats
   are bit-identical to the dense form it replaced, which routed every
   app through a ``(B, apps, nodes, nodes)`` tensor and water-filled one
   node at a time (``tests/test_core_kernel_identity.py``).
3. **Memoisation** — :class:`ScoreCache` is a bounded LRU with a
   budget in rows that keeps whole-space winners: the entry under
   ``(workload fingerprint, space key, objective)`` holds the winning
   row of a whole symmetric space and weighs its ``B`` rows, so a
   returning workload's whole-space search is one hit and a new
   workload's pays for one store.  Batches of single candidates are not
   cached: a search that revisits allocations (annealing) keeps its own
   scores for the length of one search.
4. **Bounded search** — :meth:`FastEvaluator.best_row` finds the first
   best row of a whole symmetric space without scoring all of it when
   the objective carries an upper bound (:func:`symmetric_roofline_bound`
   for total GFLOPS): it scores the rows with the highest bounds first,
   then only the rows whose bound reaches the best score found and
   whose ceiling -- the objective with every thread at its peak, exact
   to the bit -- lets them beat the first best row.  The row it returns
   is the first ``argmax`` of the unpruned scores.  The bounds and
   ceilings are read from the space's ``(B, apps)`` compositions, of
   which the memoised ``(B, apps, nodes)`` tensor is a broadcast view
   (:mod:`repro.core.candidates`); only the rows the kernel scores are
   expanded to ``(b, apps, nodes)``.

The scalar :meth:`~repro.core.model.NumaPerformanceModel.predict`
remains the ground truth; parity (``|batched - reference| <= 1e-9``) is
enforced by the property tests in ``tests/test_core_fasteval.py`` and
the speedup is tracked by ``python -m repro bench``
(see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.bwshare import RemainderRule, _water_fill
from repro.core.candidates import is_symmetric_tensor
from repro.core.spec import AppSpec, Placement
from repro.errors import ModelError, OversubscriptionError
from repro.machine.topology import MachineTopology

__all__ = [
    "ModelTables",
    "ScoreCache",
    "FastEvaluator",
    "batched_app_gflops",
    "roofline_bound",
    "symmetric_roofline_bound",
    "as_counts_batch",
    "check_oversubscription",
    "workload_fingerprint",
]

#: An objective's batched form: ``(per-app GFLOPS (B, A), apps) -> (B,)``.
BatchedObjective = Callable[[np.ndarray, Sequence[AppSpec]], np.ndarray]

#: An upper bound on an objective over node-symmetric rows, each given
#: as its composition: ``(tables, compositions (B, A)) -> (B,)``.
ScoreBound = Callable[["ModelTables", np.ndarray], np.ndarray]

#: Rows the bounded search scores first, those with the highest bounds.
#: A smaller first pass more often misses the best score, which lets
#: more rows through to the scan after it; a larger one scores rows the
#: bounds would have ruled out.  Over 3 146 searches of 8 apps from
#: perfbench's ``churn-full`` schedules (26 seeds), first passes of 16,
#: 32, 64 and 128 rows scored a mean of 62, 60, 84 and 143 rows per
#: search and took 8.5, 8.2, 7.9 and 7.8 CPU-seconds in all.
_FIRST_PASS = 64

#: Relative slack on a bound: a row is ruled out only when its bound is
#: below the best score by more than this.  A row's computed score can
#: sit a few ulps above its computed bound, which the slack absorbs.
_BOUND_SLACK = 1e-9


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
    per-candidate cost.  Shapes use ``A`` = apps, ``N`` = nodes.  The
    fields are all a worker process needs: :mod:`repro.core.parallel`
    ships them over shared memory and rebuilds the tables from them.
    What the kernel derives from them (which apps read remote memory)
    is recomputed on first use, not stored as a field.

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

    @functools.cached_property
    def _remote(self) -> "_RemoteApps":
        """The apps that read another node's memory (:class:`_RemoteApps`)."""
        return _RemoteApps.of(self.route_per_thread)

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


@dataclass(frozen=True)
class _RemoteApps:
    """The apps of a workload with a non-zero off-diagonal route.

    Only these apps take part in the model's phase 1: a NUMA-perfect
    app draws on its own node's memory alone.  A single-node app reads
    one memory column, its home; an interleaved app reads several.

    Attributes
    ----------
    apps:
        ``(R,)`` — the remote apps' indices, in app order.
    route_per_thread:
        ``(R, N, N)`` — their rows of
        :attr:`ModelTables.route_per_thread`.
    single:
        ``(r, app, home)`` of each remote app that reads one column.
    spread:
        ``(S,)`` — positions ``r`` of the remote apps that read several
        columns.
    spread_apps:
        ``(S,)`` — the app indices at those positions.
    """

    apps: np.ndarray
    route_per_thread: np.ndarray
    single: tuple
    spread: np.ndarray
    spread_apps: np.ndarray

    @classmethod
    def of(cls, route_per_thread: np.ndarray) -> "_RemoteApps":
        """Classify the apps of an ``(A, N, N)`` per-thread route table."""
        off_diagonal = route_per_thread.copy()
        diagonal = np.arange(off_diagonal.shape[1])
        off_diagonal[:, diagonal, diagonal] = 0.0
        apps = np.flatnonzero(off_diagonal.any(axis=(1, 2)))
        routes = route_per_thread[apps]
        single, spread = [], []
        for r, app in enumerate(apps):
            columns = np.flatnonzero(routes[r].any(axis=0))
            if len(columns) == 1:
                single.append((r, int(app), int(columns[0])))
            else:
                spread.append(r)
        spread = np.array(spread, dtype=np.intp)
        return cls(apps, routes, tuple(single), spread, apps[spread])


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
        # Exact integers only: the cast must round-trip every value
        # (a fraction, NaN, an infinity or an out-of-range value fails).
        with np.errstate(invalid="ignore"):
            exact = counts.astype(np.int64)
        if not np.array_equal(exact, counts):
            raise ModelError("thread counts must be integers")
        counts = exact
    counts = counts.astype(np.int64, copy=False)
    if np.any(counts < 0):
        raise ModelError("thread counts must be non-negative")
    return counts


def _sum_axis1(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` as in-order slice adds: ``(0 + x0) + x1 + ...``.

    The same terms in the same order as NumPy's reduction over a
    non-innermost axis, without its per-call set-up.
    """
    total = np.zeros(x.shape[:1] + x.shape[2:], dtype=x.dtype)
    for i in range(x.shape[1]):
        total += x[:, i]
    return total


def check_oversubscription(
    tables: ModelTables, counts: np.ndarray
) -> None:
    """Reject any candidate placing more threads on a node than cores.

    Shared by the serial kernel and the parallel pool's parent-side
    pre-validation (:mod:`repro.core.parallel`), so an oversubscribed
    batch raises the *same* error with the same message regardless of
    the worker count — and never counts as a parallel fallback.
    """
    per_node = _sum_axis1(counts)  # (B, N)
    over = per_node > tables.cores_per_node[None, :]
    if np.any(over):
        b, n = np.argwhere(over)[0]
        raise OversubscriptionError(
            f"candidate {b}: node {n} gets {per_node[b, n]} threads but "
            f"has only {tables.cores_per_node[n]} cores"
        )


#: Float64 elements in one ``(rows, A, N)`` temporary of a row block.
_BLOCK_ELEMENTS = 1 << 14


def _block_rows(n_apps: int, n_nodes: int) -> int:
    """Rows the kernel scores at a time: ``_BLOCK_ELEMENTS // (A * N)``.

    Keeps every temporary cache-sized whatever the batch size.
    """
    return max(1, _BLOCK_ELEMENTS // max(n_apps * n_nodes, 1))


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

    The whole batch is checked for over-subscription first; then rows
    are scored in blocks of :func:`_block_rows`.  Every row is
    independent, so the blocks change no bit of the result, and every
    float is the same as the dense form's (see :func:`_score_block`).

    Raises
    ------
    OversubscriptionError
        If any candidate puts more threads on a node than it has cores.
    """
    check_oversubscription(tables, counts)
    batch, n_apps, n_nodes = counts.shape
    rows = _block_rows(n_apps, n_nodes)
    if batch <= rows:
        return _score_block(tables, counts, rule)
    out = np.empty((batch, n_apps))
    for lo in range(0, batch, rows):
        out[lo : lo + rows] = _score_block(
            tables, counts[lo : lo + rows], rule
        )
    return out


@dataclass(frozen=True)
class _Roofline:
    """The machine-wide roofline of one workload, a fractional knapsack.

    The model grants no more bandwidth in all than the nodes' memories
    hold, and no app computes faster than its threads' peak, whatever
    the bandwidth.  So hand the sum of the node bandwidths to the apps
    in descending arithmetic intensity, each taking the bandwidth its
    cap can use: the GFLOPS this buys are at least the model's total
    for the row, up to rounding.

    A row is given as ``x`` ``(b, A)``, app ``a``'s cap being ``x[:, a]
    * unit[a]``: the caps themselves with ``unit`` 1
    (:func:`roofline_bound`), or the composition with ``unit`` the app's
    per-thread peak summed over the nodes
    (:func:`symmetric_roofline_bound`).  Both quantities the knapsack
    needs are linear in ``x``, so each is one ``(b, A) @ (A, A)``
    product.

    Attributes
    ----------
    caps:
        ``(A, A)`` — ``x @ caps`` is the apps' caps, in descending
        intensity.
    ahead:
        ``(A, A)`` — ``x @ ahead`` is the bandwidth the apps ahead of
        each, in that order, can turn into GFLOPS.
    intensity:
        ``(A,)`` — the apps' intensities, in that order.
    bandwidth:
        The sum of the node bandwidths.
    """

    caps: np.ndarray
    ahead: np.ndarray
    intensity: np.ndarray
    bandwidth: float

    @classmethod
    def of(cls, tables: ModelTables, unit: np.ndarray) -> "_Roofline":
        """The knapsack of ``tables`` for rows whose caps scale by ``unit``."""
        n_apps = len(unit)
        order = np.argsort(-tables.intensity, kind="stable")
        intensity = tables.intensity[order]
        caps = np.zeros((n_apps, n_apps))
        caps[order, np.arange(n_apps)] = unit[order]
        ahead = (caps / intensity) @ np.triu(np.ones((n_apps, n_apps)), 1)
        return cls(caps, ahead, intensity, tables.node_capacity.sum())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The bound of each float row of ``x``, ``(b, A) -> (b,)``."""
        left = x @ self.ahead
        np.subtract(self.bandwidth, left, out=left)
        np.maximum(left, 0.0, out=left)
        left *= self.intensity
        np.minimum(x @ self.caps, left, out=left)
        return left @ np.ones(len(self.intensity))


def roofline_bound(tables: ModelTables, counts: np.ndarray) -> np.ndarray:
    """An upper bound on each candidate's total GFLOPS, ``(B, A, N) -> (B,)``.

    The machine-wide roofline (:class:`_Roofline`): the sum of the node
    bandwidths handed to the apps in descending arithmetic intensity,
    each taking the bandwidth its threads' peak can use.  App ``a``'s
    cap is ``sum_n counts[b, a, n] * peak[a, n]``.  The bounded search
    runs the same knapsack on the symmetric rows' compositions
    (:func:`symmetric_roofline_bound`).

    Rows are bounded in blocks of :func:`_block_rows`, so no temporary
    grows with the batch.
    """
    batch, n_apps, n_nodes = counts.shape
    roofline = _Roofline.of(tables, np.ones(n_apps))
    rows = _block_rows(n_apps, n_nodes)
    out = np.empty(batch)
    for lo in range(0, batch, rows):
        caps = counts[lo : lo + rows].astype(float)
        caps *= tables.peak_per_thread
        out[lo : lo + rows] = roofline(caps.sum(axis=2))
    return out


def symmetric_roofline_bound(
    tables: ModelTables, comps: np.ndarray
) -> np.ndarray:
    """:func:`roofline_bound` of node-symmetric rows, ``(B, A) -> (B,)``.

    ``comps`` holds each row's composition, the thread counts it
    repeats on every node (``tensor[:, :, 0]`` of the memoised
    :func:`~repro.core.candidates.symmetric_counts_tensor`).  An app
    with ``k`` threads per node is capped at ``k`` times its per-thread
    peak summed over the nodes, so the knapsack runs on the
    compositions and no ``(B, A, N)`` array is formed.  Rows are bounded
    ``_BLOCK_ELEMENTS // A`` at a time.  Carried by
    :func:`~repro.core.optimizer.total_gflops` as its ``bound``.
    """
    n_rows, n_apps = comps.shape
    roofline = _Roofline.of(tables, tables.peak_per_thread.sum(axis=1))
    rows = max(1, _BLOCK_ELEMENTS // n_apps)
    out = np.empty(n_rows)
    for lo in range(0, n_rows, rows):
        out[lo : lo + rows] = roofline(comps[lo : lo + rows].astype(float))
    return out


def _highest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest ``values``, the earliest among equals.

    The ``k``-th largest value may be shared by more entries than fit;
    those taken are the first in index order.
    """
    if k >= len(values):
        return np.arange(len(values))
    cut = np.partition(values, -k)[-k]
    above = np.flatnonzero(values > cut)
    level = np.flatnonzero(values == cut)[: k - len(above)]
    return np.concatenate([above, level])


def _score_block(
    tables: ModelTables, counts: np.ndarray, rule: RemainderRule
) -> np.ndarray:
    """:func:`batched_app_gflops` of one row block, ``(b, A, N) -> (b, A)``.

    Bit for bit the arithmetic of the dense form, which routes every app
    through a ``(b, A, N, N)`` tensor and water-fills one node at a time
    (``tests/test_core_kernel_identity.py`` keeps it as the reference).
    Only terms that are exact zeros there are dropped, and no sum
    changes its order:

    * Phase 1 routes only the remote apps (:class:`_RemoteApps`).  A
      NUMA-perfect app's routes off the diagonal are 0.0 and a diagonal
      flow is never served, so it adds 0.0 to every flow and is granted
      exactly 0.0 remote bandwidth.
    * A single-node app's grant is its one non-zero product.  An
      interleaved app's grant keeps the dense form's ``np.einsum``,
      whose grouping of the products is NumPy's own.
    * Scaling a flow by 1.0, or dividing an unserved 0.0 by 1.0, changes
      no bit.
    * Sums over an outer axis are in-order slice adds (:func:`_sum_axis1`).
      Sums over an innermost axis (the water-fill's over apps, the final
      one over nodes) keep their axis, length and contiguity, because
      NumPy groups those terms by length.
    """
    cf = counts.astype(float)  # (b, A, N)
    batch, n_apps, n_nodes = cf.shape
    capacity = tables.node_capacity
    remote = tables._remote
    if remote.apps.size:
        # Routing tensor of the remote apps: route[b, r, s, m] = demand
        # app r's threads on s place on memory m.
        route = (
            np.take(cf, remote.apps, axis=1)[:, :, :, None]
            * remote.route_per_thread
        )
        remote_demand = _sum_axis1(route)  # (b, S, M)

        # Phase 1 — remote service: cap each foreign flow by its link,
        # then scale flows into a node down proportionally if they
        # exceed the node's bandwidth.
        served = np.minimum(remote_demand, tables.link)
        diagonal = np.arange(n_nodes)
        served[:, diagonal, diagonal] = 0.0
        total_remote = _sum_axis1(served)  # (b, M)
        over_cap = total_remote > capacity
        if over_cap.any():  # a scale of 1.0 changes no bit
            scale = np.where(
                over_cap, capacity / np.where(over_cap, total_remote, 1.0), 1.0
            )
            served *= scale[:, None, :]

        # Split each served flow among its contributing groups in
        # proportion to their demand.  A flow nobody demands is served
        # 0.0, so dividing it by 1.0 instead gives the ratio 0.0.
        ratio = served / np.where(remote_demand > 0, remote_demand, 1.0)
        capacity = np.maximum(capacity - _sum_axis1(served), 0.0)  # (b, M)
    else:
        capacity = np.broadcast_to(capacity, (batch, n_nodes))

    # Phase 2 — local arbitration on what remains of each node: every
    # node in one water-fill over (b, N, A).
    local_grant = _water_fill(
        capacity,
        tables.cores_per_node,
        tables.local_demand.T,
        np.ascontiguousarray(cf.transpose(0, 2, 1)),
        rule,
    )
    bandwidth = np.ascontiguousarray(local_grant.transpose(0, 2, 1))
    # Plus each remote app's share of the served flows (b, A, S).  An
    # interleaved app's grant sums its products over memories; a
    # single-node app has one non-zero product, at its home column.
    if remote.spread.size:
        bandwidth[:, remote.spread_apps] += np.einsum(
            "brsm,bsm->brs", route[:, remote.spread], ratio
        )
    for r, app, home in remote.single:
        bandwidth[:, app] += route[:, r, :, home] * ratio[:, :, home]
    bandwidth *= np.repeat(tables.intensity[:, None], n_nodes, axis=1)
    cf *= tables.peak_per_thread
    return np.minimum(bandwidth, cf, out=bandwidth).sum(axis=2)


class ScoreCache:
    """Bounded LRU of whole-space winners, with a budget in rows.

    Each entry is the winning row of a whole symmetric space under
    ``(workload fingerprint, space key)`` (see
    :func:`workload_fingerprint`), where the space key names the
    memoised tensor
    (:meth:`~repro.core.candidates.CandidateSpace.symmetric_key`) and
    the objective searched (:meth:`FastEvaluator.best_row`).  A
    returning workload's whole-space search is then one dict hit, and a
    new workload's costs one store.

    An entry weighs its space's ``B`` rows, and ``maxsize`` is a budget
    of rows: eviction drops entries, least recently used first, until
    at most ``maxsize`` rows remain, and a space of more than
    ``maxsize`` rows is not stored.  ``len(cache)`` counts rows, and a
    lookup counts the space's ``B`` rows as ``hits`` or as ``misses``.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize <= 0:
            raise ModelError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        #: ``(workload, space) -> (rows it weighs, winning row)``.
        self._data: OrderedDict[tuple, tuple[int, int]] = OrderedDict()
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def lookup_space(
        self, workload: tuple, space: Hashable, rows: int
    ) -> int | None:
        """The winning row stored for ``space`` under ``workload``, or ``None``.

        ``rows`` is the size of the space.  A hit refreshes the entry
        and counts ``rows`` hits; a miss counts ``rows`` misses.
        """
        key = (workload, space)
        entry = self._data.get(key)
        if entry is None:
            self.misses += rows
            return None
        self._data.move_to_end(key)
        self.hits += rows
        return entry[1]

    def store_space(
        self, workload: tuple, space: Hashable, best: int, rows: int
    ) -> None:
        """Insert the winning row ``best`` of a ``rows``-row space.

        The entry weighs ``rows`` rows and is looked up by
        :meth:`lookup_space`; a space of more than ``maxsize`` rows is
        not stored and evicts nothing.
        """
        if rows > self.maxsize:
            return
        key = (workload, space)
        replaced = self._data.pop(key, None)
        if replaced is not None:
            self._rows -= replaced[0]
        self._data[key] = (rows, best)
        self._rows += rows
        while self._rows > self.maxsize:
            _, (weight, _) = self._data.popitem(last=False)
            self._rows -= weight

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss tallies."""
        self._data.clear()
        self._rows = 0
        self.hits = 0
        self.misses = 0


class FastEvaluator:
    """Score batches of candidate allocations for one search.

    Binds a model, a workload and an objective's batched form into one
    callable the optimizers drive.  It is one of the two evaluators a
    search loop runs through; the other,
    :class:`~repro.core.optimizer.ScalarEvaluator`, has the same
    :meth:`scores` and :meth:`best_row` signatures and scores row by row
    with the reference model.  Construction fails soft: use
    :meth:`create`, which returns ``None`` when the objective has no
    batched form, and the search then uses the scalar evaluator.

    :meth:`best_row`, the whole-space step, goes through the model's
    tables, score cache and kernel directly.  When the objective
    carries a ``bound``, it skips the rows that cannot be the first
    best one; it returns the same row as scoring every row would.
    """

    def __init__(
        self,
        model,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        batched_objective: BatchedObjective,
        bound: ScoreBound | None = None,
    ) -> None:
        self.model = model
        self.machine = machine
        self.apps = tuple(apps)
        self.batched_objective = batched_objective
        self.bound = bound

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
        attribute, and into the bounded whole-space search by also
        carrying a ``bound`` over the symmetric rows' compositions
        (:data:`ScoreBound`; see :mod:`repro.core.optimizer`);
        arbitrary callables over full
        :class:`~repro.core.model.Prediction` objects cannot be
        vectorised and are scored by the scalar evaluator.
        """
        batched = getattr(objective, "batched", None)
        if batched is None:
            return None
        return cls(
            model, machine, apps, batched, getattr(objective, "bound", None)
        )

    def scores(self, counts: np.ndarray) -> np.ndarray:
        """Objective score of each candidate in a ``(B, A, N)`` tensor."""
        return self._objective(
            self.model.predict_scores(self.machine, self.apps, counts)
        )

    def best_row(
        self, counts: np.ndarray, space: tuple
    ) -> tuple[int, int, int]:
        """The first best row of a whole symmetric space.

        ``counts`` is the memoised tensor that ``space`` names
        (:meth:`~repro.core.candidates.CandidateSpace.symmetric_key`);
        any other array is refused before the cache is touched.
        Returns ``(row, scored, pruned)``: the index of the first
        maximum of the objective in enumeration order, the rows the
        kernel scored, and the rows the bounds ruled out.

        The model's cache keeps the answer as one entry under the
        workload, ``space`` and the objective, weighing the space's
        rows, so a returning workload costs one lookup and no kernel
        call.

        Raises
        ------
        ModelError
            If ``counts`` is not the tensor ``space`` names, or the
            workload is inconsistent.
        """
        if not is_symmetric_tensor(counts, space):
            raise ModelError(
                f"space {space!r} names the memoised symmetric tensor of "
                f"that key; the batch given is not that array"
            )
        if self.bound is None:
            pick = self._best_of_whole
        else:
            pick = self._best_of_bounded
        return self.model._cached_space(
            self.machine,
            self.apps,
            counts,
            (space, self.batched_objective),
            pick,
        )

    def _objective(self, gflops: np.ndarray) -> np.ndarray:
        return np.asarray(
            self.batched_objective(gflops, self.apps), dtype=float
        )

    def _best_of_whole(
        self, tables: ModelTables, counts: np.ndarray
    ) -> tuple[int, int, int]:
        """First argmax over every row, all scored by the kernel."""
        gflops = self.model._batch_gflops(tables, counts)
        return int(np.argmax(self._objective(gflops))), len(counts), 0

    def _best_of_bounded(
        self, tables: ModelTables, counts: np.ndarray
    ) -> tuple[int, int, int]:
        """First argmax over the rows the bounds cannot rule out.

        Bounds every row from its composition (``counts[:, :, 0]``, the
        matrix the memoised tensor views) and scores the
        :data:`_FIRST_PASS` rows with the highest bounds, the earliest
        first among equal bounds.  Then it scores, a row block at a time
        in enumeration order, the other rows that can still be the first
        maximum: a row whose bound is below the best score found less
        :data:`_BOUND_SLACK` cannot, nor can one whose ceiling
        (:meth:`_peak_ceiling`, the objective at every thread's peak,
        exact to the bit) is below it, or equal to it after the first
        best row found.  The best score and its first row are updated
        after every block, so when many rows reach the machine's compute
        peak exactly, the scan stops at the first of them.  Every row
        left out scores below a scored one, or equal to it later, so the
        first maximum of the scored rows in enumeration order is the
        first maximum of all of them.  Only the scored rows are expanded
        to ``(b, A, N)``, and no temporary grows with the space.
        """
        block = _block_rows(*counts.shape[1:])
        bound = self.bound(tables, counts[:, :, 0])
        rows = _highest(bound, min(_FIRST_PASS, len(counts)))
        scores = self._score_rows(tables, counts, rows)
        top = scores.max()
        at = int(rows[scores == top].min())
        open_ = bound >= top - _BOUND_SLACK * abs(top)
        open_[rows] = False
        rest = np.flatnonzero(open_)
        bound = bound[rest]
        ceiling = self._peak_ceiling(tables, counts, rest)
        scored = len(rows)
        while True:
            live = (bound >= top - _BOUND_SLACK * abs(top)) & (
                (ceiling > top) | ((ceiling == top) & (rest < at))
            )
            rest, bound, ceiling = rest[live], bound[live], ceiling[live]
            if not len(rest):
                return at, scored, len(counts) - scored
            rows, rest = rest[:block], rest[block:]
            bound, ceiling = bound[block:], ceiling[block:]
            scores = self._score_rows(tables, counts, rows)
            scored += len(rows)
            best = scores.max()
            first = int(rows[np.argmax(scores)])
            if best > top or (best == top and first < at):
                top, at = best, first

    def _peak_ceiling(
        self, tables: ModelTables, counts: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """The objective of the symmetric rows ``counts[rows]`` at peak.

        The kernel takes each group's GFLOPS as the smaller of what its
        bandwidth buys and ``threads * peak``, and sums an app's groups
        over the nodes.  In a symmetric row an app runs the same count
        ``k`` on every node, so its sum at the peak depends on ``k``
        alone: it is tabulated for ``k = 0 .. cores`` from the kernel's
        own ``threads * peak`` products, summed in the kernel's order,
        and gathered by the rows' compositions (``counts[:, :, 0]``) a
        row block at a time.  Float sums are monotone, so no row's score
        is above its ceiling, not even by rounding, for an objective
        that never falls when an app's GFLOPS rise (see
        :mod:`repro.core.optimizer`).
        """
        comps = counts[:, :, 0]
        n_apps = comps.shape[1]
        threads = np.arange(tables.cores_per_node.max() + 1, dtype=float)
        peak = (threads[:, None, None] * tables.peak_per_thread).sum(axis=2)
        apps = np.arange(n_apps)
        block = max(1, _BLOCK_ELEMENTS // n_apps)
        out = np.empty(len(rows))
        for lo in range(0, len(rows), block):
            out[lo : lo + block] = self._objective(
                peak[comps[rows[lo : lo + block]], apps]
            )
        return out

    def _score_rows(
        self, tables: ModelTables, counts: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Objective scores of ``counts[rows]`` through the model's kernel."""
        return self._objective(self.model._batch_gflops(tables, counts[rows]))
