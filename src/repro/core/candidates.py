"""The candidate-space layer shared by every allocation search.

Each search in :mod:`repro.core.optimizer` used to hand-roll its own
candidate enumeration: exhaustive search walked the node-symmetric
subspace, greedy built single-thread *additions*, hill climbing built
single-thread *transfers*, and annealing drew random transfer
proposals.  :class:`CandidateSpace` centralises all four enumerations —
plus the per-node *composition* neighbourhood the incremental searcher
in :mod:`repro.core.delta` climbs — so every consumer sees the same
move sets in the same order.

Enumeration order is a public contract, not an implementation detail:
every search picks winners with ``argmax`` (first maximum) over a
score vector, so the order decides ties.  The delta audit scores the
same symmetric tensor as the exhaustive search and takes the same
first maximum, which keeps it identical to that search, ties
included; :meth:`CandidateSpace.symmetric_tensor` rows follow
:meth:`CandidateSpace.symmetric_allocations`, the reference
enumeration.  The orders pinned here are the ones
``tests/test_core_fasteval.py`` locked in when the fast paths landed,
and ``tests/test_core_candidates.py`` pins them against this module
directly:

* symmetric allocations follow :func:`enumerate_node_compositions`
  (stars and bars);
* addition moves iterate ``(app, node)`` with apps outermost;
* transfer moves iterate ``(src, dst, node)`` with sources outermost;
* random proposals draw ``rng.integers(len(donors))`` over
  ``np.argwhere(counts > 0)`` and then ``rng.integers(len(choices))``
  over the non-donor apps — the exact draw sequence the annealing
  search has always used, so seeded runs replay bit-identically.

The symmetric subspace depends only on (cores per node, apps, nodes,
``require_full``), so its counts tensor is built once per size and
shared read-only (:func:`symmetric_counts_tensor`): every exhaustive
search and delta audit over one workload size scores the same array
instead of re-enumerating it.  That 4-tuple is the tensor's key
(:meth:`CandidateSpace.symmetric_key`); a search names its batch by it,
so the model can cache the whole space's winner as one entry
(:func:`is_symmetric_tensor` checks the name).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.spec import AppSpec
from repro.errors import AllocationError
from repro.machine.topology import MachineTopology

__all__ = [
    "CandidateSpace",
    "enumerate_node_compositions",
    "enumerate_symmetric_allocations",
    "is_symmetric_tensor",
    "symmetric_counts_tensor",
]

#: Symmetric tensors kept by :func:`symmetric_counts_tensor`, LRU.  A
#: churning population moves between a few neighbouring sizes; 8 apps on
#: the 4 x 8-core model machine is a 6,435-row, 1.6 MB tensor.
_TENSORS_KEPT = 8


def enumerate_node_compositions(
    cores: int, num_apps: int, *, require_full: bool = True
) -> Iterator[tuple[int, ...]]:
    """Yield per-app thread counts for one node summing to ``cores``.

    With ``require_full=False`` also yields partial occupations (sums less
    than ``cores``), which lets optimizers consider leaving cores idle —
    profitable when extra memory-bound threads would only add contention.
    """
    if cores < 0 or num_apps <= 0:
        raise AllocationError(
            f"invalid composition space: cores={cores}, apps={num_apps}"
        )
    totals = [cores] if require_full else range(cores + 1)
    for total in totals:
        # Stars and bars over `num_apps` nonnegative integers.
        for cuts in itertools.combinations(
            range(total + num_apps - 1), num_apps - 1
        ):
            comp = []
            prev = -1
            for c in cuts:
                comp.append(c - prev - 1)
                prev = c
            comp.append(total + num_apps - 2 - prev)
            yield tuple(comp)


def _common_cores(machine: MachineTopology) -> int:
    """The per-node core count every node shares, or raise."""
    counts = set(machine.cores_per_node)
    if len(counts) != 1:
        raise AllocationError(
            "symmetric enumeration requires equal cores per node"
        )
    return counts.pop()


def enumerate_symmetric_allocations(
    machine: MachineTopology,
    apps: Sequence[AppSpec],
    *,
    require_full: bool = True,
) -> Iterator[ThreadAllocation]:
    """Yield every allocation that uses the same composition on all nodes.

    The symmetric subspace is where the paper's scenarios a) and b) live;
    it has :math:`\\binom{C+A-1}{A-1}` points for ``C`` cores per node and
    ``A`` apps, small enough for exhaustive search on the paper machines.
    Requires a machine whose nodes all have the same core count.
    """
    cores = _common_cores(machine)
    names = tuple(a.name for a in apps)
    for comp in enumerate_node_compositions(
        cores, len(apps), require_full=require_full
    ):
        yield ThreadAllocation.uniform(names, machine.num_nodes, list(comp))


def symmetric_counts_tensor(
    machine: MachineTopology,
    num_apps: int,
    *,
    require_full: bool = True,
) -> np.ndarray:
    """The whole symmetric space as one read-only ``(B, apps, nodes)`` tensor.

    The batched form of :func:`enumerate_symmetric_allocations`: row
    ``b`` replicates the ``b``-th node composition (same enumeration
    order) across every node.  The exhaustive search hands the tensor
    to its evaluator's ``best_row``, which rules on the entire space in
    one step (:meth:`~repro.core.fasteval.FastEvaluator.best_row`).

    The tensor is built on first use and memoised per (cores per node,
    apps, nodes, ``require_full``); every later call for that size
    returns the same array, which is therefore read-only.
    """
    return _symmetric_tensor(
        _common_cores(machine), num_apps, machine.num_nodes, require_full
    )


def is_symmetric_tensor(counts, key: tuple) -> bool:
    """Whether ``counts`` is the memoised symmetric tensor of ``key``.

    ``key`` is ``(cores per node, apps, nodes, require_full)``, as
    :meth:`CandidateSpace.symmetric_key` returns it.  Identity, not
    equality: a copy or a slice of the tensor is not it.  Only an array
    of the key's shape is looked up in the memo, so a wrong key never
    builds a tensor.
    """
    try:
        cores, num_apps, num_nodes, require_full = key
        size = _symmetric_size(cores, num_apps, require_full)
        return (
            isinstance(counts, np.ndarray)
            and counts.shape == (size, num_apps, num_nodes)
            and counts is _symmetric_tensor(*key)
        )
    except (TypeError, ValueError, AllocationError):
        return False


def _symmetric_size(cores: int, num_apps: int, require_full: bool) -> int:
    """Rows of the symmetric space, by stars and bars."""
    if require_full:
        return math.comb(cores + num_apps - 1, num_apps - 1)
    return math.comb(cores + num_apps, num_apps)


@functools.lru_cache(maxsize=_TENSORS_KEPT)
def _symmetric_tensor(
    cores: int, num_apps: int, num_nodes: int, require_full: bool
) -> np.ndarray:
    comps = np.array(
        list(
            enumerate_node_compositions(
                cores, num_apps, require_full=require_full
            )
        ),
        dtype=np.int64,
    ).reshape(-1, num_apps)
    tensor = np.repeat(comps[:, :, None], num_nodes, axis=2)
    tensor.setflags(write=False)
    return tensor


class CandidateSpace:
    """Move and candidate enumerations for one ``(machine, apps)`` size.

    The space depends only on the machine topology and the *number* of
    applications; app identities stay with the caller.  All batch
    builders return ``(B, apps, nodes)`` int64 tensors suitable for
    :meth:`~repro.core.model.NumaPerformanceModel.predict_scores`: the
    move batches fresh, the symmetric tensor shared and read-only.
    """

    def __init__(self, machine: MachineTopology, num_apps: int) -> None:
        if num_apps <= 0:
            raise AllocationError(
                f"candidate space needs at least one app, got {num_apps}"
            )
        self.machine = machine
        self.num_apps = num_apps
        self.num_nodes = machine.num_nodes

    # -- the node-symmetric subspace ------------------------------------

    @property
    def symmetric(self) -> bool:
        """Whether the symmetric subspace exists (equal cores per node)."""
        return len(set(self.machine.cores_per_node)) == 1

    @property
    def cores_per_node(self) -> int:
        """The common per-node core count of a symmetric machine."""
        return _common_cores(self.machine)

    def symmetric_size(self, *, require_full: bool = True) -> int:
        """Number of node-symmetric candidates, without enumerating them.

        Stars and bars: :math:`\\binom{C+A-1}{A-1}` full compositions of
        ``C`` cores over ``A`` apps, or :math:`\\binom{C+A}{A}` when
        partial occupations are allowed.
        """
        return _symmetric_size(
            self.cores_per_node, self.num_apps, require_full
        )

    def symmetric_allocations(self, apps, *, require_full: bool = True):
        """Iterate the symmetric subspace as ``ThreadAllocation`` objects."""
        return enumerate_symmetric_allocations(
            self.machine, apps, require_full=require_full
        )

    def symmetric_tensor(self, *, require_full: bool = True) -> np.ndarray:
        """The symmetric subspace as one read-only ``(B, apps, nodes)`` tensor.

        Row order matches :meth:`symmetric_allocations` exactly.  Every
        space of one size returns the same memoised array
        (:func:`symmetric_counts_tensor`).
        """
        return symmetric_counts_tensor(
            self.machine, self.num_apps, require_full=require_full
        )

    def symmetric_key(self, *, require_full: bool = True) -> tuple:
        """The memo key of :meth:`symmetric_tensor`.

        ``(cores per node, apps, nodes, require_full)``: pass it to an
        evaluator's ``best_row`` along with the tensor
        (:meth:`~repro.core.fasteval.FastEvaluator.best_row`).
        """
        return (
            self.cores_per_node, self.num_apps, self.num_nodes, require_full
        )

    # -- single-thread moves (asymmetric space) -------------------------

    def addition_moves(self, free: np.ndarray) -> list[tuple[int, int]]:
        """Every legal single-thread addition as ``(app, node)`` pairs.

        ``free`` is the per-node free-core vector; order is the greedy
        search's pinned ``(app, node)`` nesting, apps outermost.
        """
        return [
            (a, n)
            for a in range(self.num_apps)
            for n in range(self.num_nodes)
            if free[n] > 0
        ]

    def addition_batch(
        self, counts: np.ndarray, moves: list[tuple[int, int]]
    ) -> np.ndarray:
        """``counts`` after each addition move, stacked ``(B, A, N)``."""
        batch = np.repeat(counts[None], len(moves), axis=0)
        for k, (a, n) in enumerate(moves):
            batch[k, a, n] += 1
        return batch

    def thread_moves(self, counts: np.ndarray) -> list[tuple[int, int, int]]:
        """Every legal single-thread transfer as ``(src, dst, node)``.

        A transfer hands one thread of ``src`` on ``node`` to ``dst`` on
        the same node; order is the hill climb's pinned
        ``(src, dst, node)`` nesting.
        """
        return [
            (si, di, n)
            for si in range(self.num_apps)
            for di in range(self.num_apps)
            if si != di
            for n in range(self.num_nodes)
            if counts[si, n] > 0
        ]

    def move_batch(
        self, counts: np.ndarray, moves: list[tuple[int, int, int]]
    ) -> np.ndarray:
        """``counts`` after each transfer move, stacked ``(B, A, N)``."""
        batch = np.repeat(counts[None], len(moves), axis=0)
        for k, (si, di, n) in enumerate(moves):
            batch[k, si, n] -= 1
            batch[k, di, n] += 1
        return batch

    def random_move(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, int, int] | None:
        """One uniform random legal transfer, or ``None`` if none exists.

        Consumes exactly two ``rng.integers`` draws in the annealing
        search's pinned sequence (donor ``(app, node)`` first, then the
        destination app), so seeded annealing runs stay bit-identical
        across refactors.
        """
        donors = np.argwhere(counts > 0)
        if donors.size == 0:
            return None
        ai, n = donors[rng.integers(len(donors))]
        choices = [j for j in range(self.num_apps) if j != ai]
        if not choices:
            return None
        dj = choices[rng.integers(len(choices))]
        return int(ai), int(dj), int(n)

    # -- per-node compositions (the delta searcher's neighbourhood) -----

    def composition_of(self, counts: np.ndarray) -> np.ndarray | None:
        """The per-node composition ``counts`` replicates, or ``None``.

        Returns the length-``A`` vector ``c`` with ``counts[a, n] ==
        c[a]`` for every node when the allocation is node-symmetric;
        asymmetric allocations (different compositions on different
        nodes) return ``None``.
        """
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape != (
            self.num_apps,
            self.num_nodes,
        ):
            return None
        first = counts[:, 0]
        if np.all(counts == first[:, None]):
            return first.copy()
        return None

    def expand(self, comp: np.ndarray) -> np.ndarray:
        """Replicate a per-node composition on every node → ``(A, N)``."""
        comp = np.asarray(comp, dtype=np.int64)
        return np.repeat(comp[:, None], self.num_nodes, axis=1)

    def composition_moves(
        self, comp: np.ndarray, movable=None
    ) -> list[tuple[int, int]]:
        """Transfers of one per-node thread between apps, ``(src, dst)``.

        Each move shifts one thread per node from ``src`` to ``dst``
        (the allocation stays symmetric).  ``movable`` restricts the
        neighbourhood to moves *touching* the given app indices — the
        O(delta) restriction the incremental searcher climbs with.
        """
        apps = range(self.num_apps)
        allowed = None if movable is None else set(movable)
        return [
            (i, j)
            for i in apps
            for j in apps
            if i != j
            and comp[i] > 0
            and (allowed is None or i in allowed or j in allowed)
        ]

    def composition_batch(
        self, comp: np.ndarray, moves: list[tuple[int, int]]
    ) -> np.ndarray:
        """Expanded ``(B, A, N)`` candidates after each composition move."""
        comps = np.repeat(
            np.asarray(comp, dtype=np.int64)[None], len(moves), axis=0
        )
        for k, (i, j) in enumerate(moves):
            comps[k, i] -= 1
            comps[k, j] += 1
        return np.repeat(comps[:, :, None], self.num_nodes, axis=2)

    def composition_additions(self, comp: np.ndarray) -> list[int]:
        """Apps that can take one more per-node thread (free cores left)."""
        if int(np.sum(comp)) >= self.cores_per_node:
            return []
        return list(range(self.num_apps))

    def addition_composition_batch(
        self, comp: np.ndarray, apps_idx: list[int]
    ) -> np.ndarray:
        """Expanded ``(B, A, N)`` candidates after each ``+1`` addition."""
        comps = np.repeat(
            np.asarray(comp, dtype=np.int64)[None], len(apps_idx), axis=0
        )
        for k, i in enumerate(apps_idx):
            comps[k, i] += 1
        return np.repeat(comps[:, :, None], self.num_nodes, axis=2)
