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
   budget in rows.  A partial batch is cached row by row under
   ``(workload fingerprint, counts bytes)``: hill climbing and
   annealing revisit the same allocations constantly, and a revisit
   costs one dict lookup instead of a model evaluation.  Such a batch
   makes one round trip: its row keys are built in one step
   (:func:`row_keys`) and the fingerprint is hashed once per lookup
   and store, not per row.  A whole symmetric space is searched, not
   cached row by row: its entry under ``(workload fingerprint, space
   key, objective)`` holds the winning row, so a returning workload's
   whole-space search is one hit and a new workload's, which can never
   hit, pays for one store instead of ``B``.
4. **Bounded search** — :meth:`FastEvaluator.best_row` finds the first
   best row of a whole symmetric space without scoring all of it when
   the objective carries an upper bound (:func:`roofline_bound` for
   total GFLOPS): it scores the rows with the highest bounds first,
   then only the rows whose bound reaches the best score found and
   whose ceiling -- the objective with every thread at its peak, exact
   to the bit -- lets them beat the first best row.  The row it returns
   is the first ``argmax`` of the unpruned scores.

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
    "as_counts_batch",
    "check_oversubscription",
    "row_keys",
    "workload_fingerprint",
]

#: An objective's batched form: ``(per-app GFLOPS (B, A), apps) -> (B,)``.
BatchedObjective = Callable[[np.ndarray, Sequence[AppSpec]], np.ndarray]

#: An upper bound on an objective: ``(tables, counts (B, A, N)) -> (B,)``.
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


def roofline_bound(tables: ModelTables, counts: np.ndarray) -> np.ndarray:
    """An upper bound on each candidate's total GFLOPS, ``(B, A, N) -> (B,)``.

    The machine-wide roofline.  The model grants no more bandwidth in
    all than the nodes' memories hold, and no app computes faster than
    its threads' peak, whatever the bandwidth.  So hand the sum of the
    node bandwidths to the apps in descending arithmetic intensity,
    each taking the bandwidth its peak can use (a fractional knapsack):
    the GFLOPS this buys are at least the model's total for the
    candidate, up to rounding.  Carried by
    :func:`~repro.core.optimizer.total_gflops` as its ``bound``.

    Rows are bounded in blocks of :func:`_block_rows`, so no temporary
    grows with the batch.
    """
    batch, n_apps, n_nodes = counts.shape
    order = np.argsort(-tables.intensity, kind="stable")
    intensity = tables.intensity[order]
    # Both quantities are linear in the counts, so one matmul per block
    # gives them.  peak[a * N + n, k] is one thread's peak if app
    # a = order[k] on node n; the app's cap is its threads' sum.
    peak = np.zeros((n_apps, n_nodes, n_apps))
    peak[order, :, np.arange(n_apps)] = tables.peak_per_thread[order]
    peak = peak.reshape(n_apps * n_nodes, n_apps)
    # The bandwidth the apps ahead of app k can turn into GFLOPS.
    ahead = (peak / intensity) @ np.triu(np.ones((n_apps, n_apps)), 1)
    weights = np.concatenate([peak, ahead], axis=1)
    bandwidth = tables.node_capacity.sum()
    rows = _block_rows(n_apps, n_nodes)
    out = np.empty(batch)
    for lo in range(0, batch, rows):
        block = counts[lo : lo + rows]
        both = block.reshape(len(block), -1) @ weights
        left = np.maximum(bandwidth - both[:, n_apps:], 0.0)
        left *= intensity
        out[lo : lo + rows] = np.minimum(both[:, :n_apps], left).sum(axis=1)
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


class _Prefix:
    """One interned key prefix and how many cached entries share it."""

    __slots__ = ("key", "entries")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.entries = 0


@dataclass(frozen=True, slots=True)
class _Space:
    """The last key element of a whole-space entry.

    Equal only to another ``_Space`` of the same key, so a space entry
    never shares a key with a row entry.  The entry's value is
    ``(rows it weighs, winning row)``.
    """

    key: Hashable


class ScoreCache:
    """Bounded LRU of per-app GFLOPS, keyed by exact allocation.

    It holds two kinds of entry, both read-only, so a cached value can
    be handed to every caller without copying:

    * a **row entry**, one ``(A,)`` row under ``(workload fingerprint,
      counts.tobytes())`` — see :func:`workload_fingerprint`.
      Local-search optimizers revisit allocations constantly (a
      hill-climb neighbourhood overlaps its predecessor's almost
      entirely), which is what makes a memo cache worth its memory;
    * a **space entry**, the winning row of a whole symmetric space
      under ``(workload fingerprint, space key)``, where the space key
      names the memoised tensor
      (:meth:`~repro.core.candidates.CandidateSpace.symmetric_key`) and
      the objective searched (:meth:`FastEvaluator.best_row`).  A
      returning workload's whole-space search is then one dict hit, and
      a new workload's costs one store instead of ``B``.

    Both kinds share one LRU order, one ``hits``/``misses`` tally and one
    budget of ``maxsize`` rows: a space entry weighs its ``B`` rows.
    Eviction drops whole entries, least recently used first, until at
    most ``maxsize`` rows remain, and a space of more than ``maxsize``
    rows is not stored.  ``len(cache)`` counts rows and :meth:`keys`
    lists the row entries.

    The keys of one batch differ only in their last element, so
    :meth:`lookup` and :meth:`store` take the shared prefix
    ``(fingerprint,)`` once and the last elements as a list.  The cache
    interns each prefix that still has entries, so a ~1 KB fingerprint
    is hashed once per lookup or store instead of on every row's
    ``get``, ``put`` and recency update.  :meth:`get` and :meth:`put`
    are the one-row case of the same code; a batch leaves the same LRU
    order and ``hits``/``misses`` counts as a :meth:`get` of every row
    followed by a :meth:`put` of every miss, in batch order.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize <= 0:
            raise ModelError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[
            tuple[_Prefix, Hashable], np.ndarray | tuple[int, int]
        ] = OrderedDict()
        self._prefixes: dict[tuple, _Prefix] = {}
        #: rows held: one per row entry, ``B`` per space entry.
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def keys(self) -> list[tuple]:
        """Every cached row key, least recently used first."""
        return [
            prefix.key + (row,)
            for prefix, row in self._data
            if type(row) is not _Space
        ]

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

    def lookup_space(
        self, prefix: tuple, space: Hashable, counts: np.ndarray
    ) -> tuple[int | None, list[int], list[np.ndarray]]:
        """Look up a whole-space batch: its one entry, else its rows.

        ``counts`` is the tensor ``space`` names.  On a hit of the entry
        :meth:`store_space` made, the entry is refreshed, every row
        counts as a hit, and the result is ``(best, [], [])``.  On a
        miss it is ``None`` plus the ``(missed, found)`` of a
        :meth:`lookup` of every row (:func:`row_keys`), so rows another
        search stored still hit.  The row keys are built only when
        ``prefix`` has entries: a workload with none misses every row.
        """
        interned = self._prefixes.get(prefix)
        if interned is None:
            self.misses += len(counts)
            return None, list(range(len(counts))), []
        key = (interned, _Space(space))
        entry = self._data.get(key)
        if entry is None:
            return None, *self.lookup(prefix, row_keys(counts))
        self._data.move_to_end(key)
        rows, best = entry
        self.hits += rows
        return best, [], []

    def store(
        self, prefix: tuple, rows: Sequence[Hashable], values: np.ndarray
    ) -> None:
        """Insert ``values[i]`` under ``prefix + (rows[i],)``, in order.

        ``values`` is made read-only and its rows are cached as views.
        The least recently used entries beyond capacity are evicted.
        """
        values = np.asarray(values)
        values.setflags(write=False)
        interned = self._intern(prefix)
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
        interned.entries += added
        self._rows += added
        self._evict()

    def store_space(
        self, prefix: tuple, space: Hashable, best: int, rows: int
    ) -> None:
        """Insert the winning row ``best`` of a ``rows``-row space.

        The entry weighs ``rows`` rows and is looked up by
        :meth:`lookup_space`; a space of more than ``maxsize`` rows is
        not stored and evicts nothing.
        """
        if rows > self.maxsize:
            return
        interned = self._intern(prefix)
        key = (interned, _Space(space))
        replaced = self._data.pop(key, None)
        if replaced is None:
            interned.entries += 1
        else:
            self._rows -= replaced[0]
        self._data[key] = (rows, best)
        self._rows += rows
        self._evict()

    def _intern(self, prefix: tuple) -> _Prefix:
        interned = self._prefixes.get(prefix)
        if interned is None:
            interned = self._prefixes[prefix] = _Prefix(prefix)
        return interned

    def _evict(self) -> None:
        """Drop whole entries, least recently used first, down to budget."""
        data = self._data
        while self._rows > self.maxsize:
            (owner, row), value = data.popitem(last=False)
            self._rows -= value[0] if type(row) is _Space else 1
            owner.entries -= 1
            if not owner.entries:
                del self._prefixes[owner.key]

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss tallies."""
        self._data.clear()
        self._prefixes.clear()
        self._rows = 0
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
        carrying a ``bound`` (see :mod:`repro.core.optimizer`);
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
        call.  On a miss every row is looked up, so rows other searches
        cached count as hits, and a space scored whole (an objective
        with no bound) reuses them.

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
        self,
        tables: ModelTables,
        counts: np.ndarray,
        missed: list[int],
        found: list[np.ndarray],
    ) -> tuple[int, int, int]:
        """First argmax over every row; ``found`` rows are not rescored."""
        model = self.model
        if len(missed) == len(counts):
            gflops = model._batch_gflops(tables, counts)
        elif not missed:
            gflops = np.array(found)
        else:
            gflops, _ = model._fill(tables, counts, missed, found)
        return int(np.argmax(self._objective(gflops))), len(missed), 0

    def _best_of_bounded(
        self,
        tables: ModelTables,
        counts: np.ndarray,
        missed: list[int],
        found: list[np.ndarray],
    ) -> tuple[int, int, int]:
        """First argmax over the rows the bounds cannot rule out.

        Bounds every row and scores the :data:`_FIRST_PASS` rows with
        the highest bounds, the earliest first among equal bounds.
        Then it scores, a row block at a time in enumeration order, the
        other rows that can still be the first maximum: a row whose
        bound is below the best score found less :data:`_BOUND_SLACK`
        cannot, nor can one whose ceiling (:meth:`_peak_ceiling`, the
        objective at every thread's peak, exact to the bit) is below
        it, or equal to it after the first best row found.  The best
        score and its first row are updated after every block, so when
        many rows reach the machine's compute peak exactly, the scan
        stops at the first of them.  Every row left out scores below a
        scored one, or equal to it later, so the first maximum of the
        scored rows in enumeration order is the first maximum of all of
        them.  No temporary grows with the space.  ``missed`` and
        ``found`` are not read: every row it scores goes through the
        kernel.
        """
        block = _block_rows(*counts.shape[1:])
        bound = self.bound(tables, counts)
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
        """The objective of ``counts[rows]`` at every thread's peak.

        The kernel takes each group's GFLOPS as the smaller of what its
        bandwidth buys and ``threads * peak``, the same product this
        forms, and sums the groups in the same order; float sums are
        monotone, so no row's score is above its ceiling, not even by
        rounding, for an objective that never falls when an app's
        GFLOPS rise (see :mod:`repro.core.optimizer`).  Computed a row
        block at a time.
        """
        block = _block_rows(*counts.shape[1:])
        out = np.empty(len(rows))
        for lo in range(0, len(rows), block):
            peak = counts[rows[lo : lo + block]].astype(float)
            peak *= tables.peak_per_thread
            out[lo : lo + block] = self._objective(peak.sum(axis=2))
        return out

    def _score_rows(
        self, tables: ModelTables, counts: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Objective scores of ``counts[rows]`` through the model's kernel."""
        return self._objective(self.model._batch_gflops(tables, counts[rows]))
