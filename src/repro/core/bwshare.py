"""Per-NUMA-node memory-bandwidth arbitration.

Implements assumptions 4 and 5 of the paper's model (Section III-A):

4. memory bandwidth is shared by all cores in the same NUMA node;
5. the actual bandwidth is split so that each core can get at least its
   equal share of the node total (the *baseline*, ``node_bw / num_cores``),
   and the remainder is split proportionately to the attempted memory
   access above the baseline.

The remainder split is a water-filling problem: a thread can never receive
more than it demands, and bandwidth freed by a thread whose demand is met
flows back to the still-unsatisfied threads.  The paper's worked examples
(Tables I and II) only exercise the case where all unsatisfied threads have
identical unmet demand, where proportional and even splitting coincide;
:class:`RemainderRule` exposes both so the difference can be ablated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError

__all__ = [
    "RemainderRule",
    "NodeShare",
    "share_node_bandwidth",
    "share_node_bandwidth_batch",
    "share_bandwidth_batch",
]

#: Bandwidth below this (GB/s) is treated as zero during water-filling.
_EPS = 1e-12


class RemainderRule(enum.Enum):
    """How leftover bandwidth is divided among unsatisfied threads."""

    #: Proportional to each thread's unmet demand (paper assumption 5:
    #: "a code that would want to make twice as many memory operations
    #: above the baseline will end up getting twice as much of the
    #: remaining bandwidth").
    PROPORTIONAL = "proportional"

    #: Equal split among unsatisfied threads (the arithmetic actually
    #: performed in the paper's worked examples: "We split this evenly
    #: among the three memory-bound applications").
    EVEN = "even"


@dataclass(frozen=True)
class NodeShare:
    """Result of arbitrating one node's bandwidth.

    Attributes
    ----------
    allocated:
        GB/s granted to each thread, same order as the input demands.
    baseline:
        The per-core baseline share used (``capacity / num_cores``).
    capacity:
        The bandwidth that was available for local threads.
    """

    allocated: np.ndarray
    baseline: float
    capacity: float

    @property
    def consumed(self) -> float:
        """Total bandwidth handed out."""
        return float(self.allocated.sum())

    @property
    def leftover(self) -> float:
        """Bandwidth that nobody wanted."""
        return self.capacity - self.consumed


def share_node_bandwidth(
    capacity: float,
    num_cores: int,
    demands: np.ndarray | list[float],
    *,
    rule: RemainderRule = RemainderRule.PROPORTIONAL,
) -> NodeShare:
    """Split ``capacity`` GB/s among threads with the given ``demands``.

    Parameters
    ----------
    capacity:
        Bandwidth available to local threads on this node (GB/s).  This is
        the node's full local bandwidth unless remote traffic was served
        first (see :mod:`repro.core.model`).
    num_cores:
        Number of CPU cores in the node.  The baseline is
        ``capacity / num_cores`` regardless of how many threads are
        actually running — an idle core's share joins the remainder pool.
    demands:
        Per-thread attempted bandwidth (GB/s).

    Returns
    -------
    NodeShare
        Per-thread grants.  Invariants: ``0 <= grant <= demand`` for every
        thread, ``sum(grants) <= capacity``, and when total demand meets or
        exceeds capacity the grants exhaust it (up to rounding).
    """
    if capacity < 0:
        raise ModelError(f"capacity must be non-negative, got {capacity}")
    if num_cores <= 0:
        raise ModelError(f"num_cores must be positive, got {num_cores}")
    d = np.asarray(demands, dtype=float)
    if d.ndim != 1:
        raise ModelError(f"demands must be 1-D, got shape {d.shape}")
    if np.any(d < 0):
        raise ModelError("demands must be non-negative")
    if len(d) > num_cores:
        raise ModelError(
            f"{len(d)} threads on a node with {num_cores} cores violates "
            f"the model's no-over-subscription assumption"
        )

    allocated, baseline = _fill_node(capacity, num_cores, d, rule)
    return NodeShare(
        allocated=allocated, baseline=baseline, capacity=capacity
    )


def _fill_node(
    capacity: float,
    num_cores: int,
    demands: np.ndarray,
    rule: RemainderRule,
) -> tuple[np.ndarray, float]:
    """:func:`share_node_bandwidth` on inputs known to be valid.

    ``demands`` must be a 1-D float array of at most ``num_cores``
    non-negative entries.  Returns the per-thread grants and the
    baseline.  The scalar model calls this directly: it builds valid
    inputs by construction, so the checks would only cost time.
    """
    baseline = capacity / num_cores
    allocated = np.minimum(demands, baseline)
    remaining = capacity - allocated.sum()

    # Water-fill the remainder.  Each pass hands out bandwidth according to
    # the rule, capped at each thread's unmet demand; threads that become
    # satisfied drop out and their unused share is redistributed in the
    # next pass.  Terminates because every pass either exhausts the
    # remainder or satisfies at least one thread.
    while remaining > _EPS:
        unmet = demands - allocated
        unsatisfied = unmet > _EPS
        if not np.any(unsatisfied):
            break
        if rule is RemainderRule.PROPORTIONAL:
            weights = np.where(unsatisfied, unmet, 0.0)
        else:
            weights = unsatisfied.astype(float)
        give = remaining * weights / weights.sum()
        give = np.minimum(give, unmet)
        handed = give.sum()
        if handed <= _EPS:
            break
        allocated += give
        remaining -= handed
    return allocated, baseline


def share_node_bandwidth_batch(
    capacity: np.ndarray,
    num_cores: int,
    demands: np.ndarray,
    counts: np.ndarray,
    *,
    rule: RemainderRule = RemainderRule.PROPORTIONAL,
) -> np.ndarray:
    """Closed-form water-fill of one node over a batch of candidates.

    The one-node case of :func:`share_bandwidth_batch`: ``capacity`` has
    shape ``(B,)``, ``demands`` ``(G,)`` and ``counts`` ``(B, G)``, and the
    result is the ``(B, G)`` bandwidth granted to each group.  Agrees
    with the per-thread :func:`share_node_bandwidth` (expanded over
    groups) to within accumulated rounding (< 1e-9 on model-scale
    inputs).
    """
    cap = np.asarray(capacity, dtype=float)
    d = np.asarray(demands, dtype=float)
    w = np.asarray(counts, dtype=float)
    if cap.ndim != 1 or d.ndim != 1 or w.shape != (cap.shape[0], d.shape[0]):
        raise ModelError(
            f"inconsistent batch shapes: capacity {cap.shape}, demands "
            f"{d.shape}, counts {w.shape}"
        )
    return share_bandwidth_batch(
        cap[:, None], [num_cores], d[None], w[:, None], rule=rule
    )[:, 0]


def share_bandwidth_batch(
    capacity: np.ndarray,
    num_cores,
    demands: np.ndarray,
    counts: np.ndarray,
    *,
    rule: RemainderRule = RemainderRule.PROPORTIONAL,
) -> np.ndarray:
    """Closed-form water-fill of every node over a batch of candidates.

    The batched counterpart of :func:`share_node_bandwidth` used by the
    fast evaluation engine (:mod:`repro.core.fasteval`), which arbitrates
    all ``N`` nodes of a batch of candidate machine states in one call.
    Threads are folded into *groups* of identical per-thread demand (all
    threads of one application on one node are symmetric under the
    model), and the iterative redistribution loop is replaced with its
    closed form:

    * ``PROPORTIONAL`` — the iterative rule terminates after a single
      pass whenever the remainder cannot satisfy everyone (each thread's
      proportional share is strictly below its unmet demand), so the
      closed form *is* the first pass: grant
      ``min(d, baseline) + remaining * unmet / total_unmet``.
    * ``EVEN`` — the fixed point of even redistribution is the classic
      water level: every thread receives
      ``min(d, baseline) + min(unmet, tau)`` where ``tau`` solves
      ``sum(count * min(unmet, tau)) == remaining``.  ``tau`` falls out
      of one sort of each node's group demands (shared by the whole
      batch, since the sort order of unmet demand does not depend on the
      baseline) plus cumulative sums — no per-pass Python loop.

    Every node is arbitrated independently; the groups are the innermost
    axis, so each node's sums over its groups are the same contiguous
    reductions as in a one-node call.

    Parameters
    ----------
    capacity:
        Bandwidth available to local threads, shape ``(B, N)`` — one
        entry per batch element and node, each non-negative.
    num_cores:
        Cores per node (the baseline divisor), shape ``(N,)``, shared by
        the batch.
    demands:
        Per-thread demand of each node's groups (GB/s), shape ``(N, G)``,
        shared by the batch.
    counts:
        Threads per group, shape ``(B, N, G)``, non-negative; each
        ``(b, n)`` row must sum to at most ``num_cores[n]``.

    Returns
    -------
    np.ndarray
        Total bandwidth granted to each group (GB/s), shape ``(B, N, G)``
        — the group's per-thread grant times its thread count.
    """
    cores = np.asarray(num_cores)
    cap = np.asarray(capacity, dtype=float)
    d = np.asarray(demands, dtype=float)
    w = np.ascontiguousarray(counts, dtype=float)
    if (
        cap.ndim != 2
        or d.ndim != 2
        or cores.shape != (cap.shape[1],)
        or d.shape[0] != cap.shape[1]
        or w.shape != (cap.shape[0],) + d.shape
    ):
        raise ModelError(
            f"inconsistent batch shapes: capacity {cap.shape}, num_cores "
            f"{cores.shape}, demands {d.shape}, counts {w.shape}"
        )
    if np.any(cores <= 0):
        raise ModelError(f"num_cores must be positive, got {cores.tolist()}")
    if np.any(cap < 0):
        raise ModelError("capacity must be non-negative")
    if np.any(d < 0):
        raise ModelError("demands must be non-negative")
    if np.any(w < 0):
        raise ModelError("counts must be non-negative")
    if np.any(w.sum(axis=2) > cores):
        raise ModelError(
            f"a batch row allocates more threads to a node than its cores "
            f"{cores.tolist()} (no-over-subscription assumption)"
        )
    return _water_fill(cap, cores, d, w, rule)


def _water_fill(
    capacity: np.ndarray,
    num_cores: np.ndarray,
    demands: np.ndarray,
    counts: np.ndarray,
    rule: RemainderRule,
) -> np.ndarray:
    """:func:`share_bandwidth_batch` on inputs known to be valid.

    ``counts`` must be a C-contiguous float ``(B, N, G)`` array, so the
    sums over groups are contiguous innermost reductions.  The fast
    evaluation kernel calls this directly: its inputs are valid by
    construction and its counts were checked for over-subscription
    before any block was scored.
    """
    w = counts
    # A transposed view would lay the temporaries out groups-first; the
    # sums over groups below must be contiguous innermost reductions.
    demands = np.ascontiguousarray(demands)
    baseline = (capacity / num_cores)[:, :, None]  # (B, N, 1)
    per_thread = np.minimum(demands, baseline)  # (B, N, G)
    scratch = np.multiply(w, per_thread)
    remaining = np.maximum(capacity - scratch.sum(axis=2), 0.0)  # (B, N)
    unmet = np.subtract(demands, baseline)
    np.maximum(unmet, 0.0, out=unmet)  # (B, N, G)
    total_unmet = np.multiply(w, unmet, out=scratch).sum(axis=2)
    satisfied = total_unmet <= remaining + _EPS  # whole node fits

    if rule is RemainderRule.PROPORTIONAL:
        denom = np.where(total_unmet > _EPS, total_unmet, 1.0)
        extra = np.multiply(remaining[:, :, None], unmet, out=scratch)
        np.divide(extra, denom[:, :, None], out=extra)
    else:  # EVEN: find the water level tau per batch row and node
        order = np.argsort(demands, axis=1, kind="stable")[None]
        # ascending per row (unmet is monotone in d)
        us = np.take_along_axis(unmet, order, axis=2)
        ws = np.take_along_axis(w, order, axis=2)
        weighted = ws * us
        cum_fill = np.cumsum(weighted, axis=2)  # fill groups 0..j fully
        cum_threads = np.cumsum(ws, axis=2)
        threads_from = cum_threads[:, :, -1:] - (cum_threads - ws)  # >= j
        # Cost of raising the level to us[..., j]: groups below j
        # capped, everyone from j up at the level.
        below = cum_fill - weighted
        level_cost = below + threads_from * us
        reachable = level_cost >= remaining[:, :, None] - _EPS
        j = np.argmax(reachable, axis=2)[:, :, None]  # first affordable
        pool = np.take_along_axis(threads_from, j, axis=2)[:, :, 0]
        tau = (
            remaining - np.take_along_axis(below, j, axis=2)[:, :, 0]
        ) / np.where(pool > 0, pool, 1.0)
        tau = np.maximum(tau, 0.0)
        extra = scratch
        np.put_along_axis(
            extra, order, np.minimum(us, tau[:, :, None]), axis=2
        )
    np.copyto(extra, unmet, where=satisfied[:, :, None])
    per_thread += extra
    per_thread *= w
    return per_thread
