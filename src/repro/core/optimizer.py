"""Search for good thread allocations under the analytic model.

The paper argues ("There are many other ways to partition the machine...")
that picking the right partition matters — the Tables I/II workload spans
254 vs 140 vs 128 GFLOPS across three natural choices.  This module
provides the search machinery a resource arbiter would use:

* :class:`ExhaustiveSearch` over the node-symmetric subspace (ground truth
  for small machines; the symmetric space for 8 cores / 4 apps has only
  165 points),
* :class:`GreedySearch` — build the allocation one thread at a time, always
  adding where the model says the marginal GFLOPS gain is largest,
* :class:`HillClimbSearch` — local search over single-thread moves between
  apps (optionally asymmetric across nodes),
* :class:`AnnealingSearch` — simulated annealing over the full asymmetric
  space, able to escape the local optima hill climbing gets stuck in.

All searches also support an *objective* other than total GFLOPS, e.g.
weighted throughput or max-min fairness, since a real arbiter rarely
optimises raw FLOP/s alone.

Candidate enumeration is delegated to
:class:`~repro.core.candidates.CandidateSpace`, the shared layer that
also powers the incremental churn-time searcher in
:mod:`repro.core.delta`; the enumeration orders are pinned there (and
by ``tests/test_core_candidates.py``), which is what lets the batched
paths below pick winners with a plain ``argmax``.

Fast path
---------
Every search drives the batched evaluation engine
(:mod:`repro.core.fasteval`) when it can: exhaustive search scores its
whole symmetric space in one
:meth:`~repro.core.model.NumaPerformanceModel.predict_scores` call,
greedy and hill climbing batch each round's candidate set, and annealing
funnels its single proposals through the memo cache.  The fast path is
only taken when the objective carries a ``batched`` form (the built-in
objectives all do); custom objectives over full
:class:`~repro.core.model.Prediction` objects transparently fall back to
the scalar reference path, as does ``use_fast=False``.  Either way the
returned :class:`SearchResult` carries a ground-truth prediction and
score computed by the scalar model on the winning allocation, and the
candidate enumeration order is identical, so the deterministic searches
return the same winner (ties and all) as the reference path (annealing
may diverge on exact ties; see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.candidates import CandidateSpace
from repro.core.fasteval import FastEvaluator
from repro.core.model import NumaPerformanceModel, Prediction
from repro.core.spec import AppSpec
from repro.errors import AllocationError, ModelError
from repro.machine.topology import MachineTopology
from repro.obs import OBS, CounterHandle, GaugeHandle

__all__ = [
    "Objective",
    "OptimizerConfig",
    "total_gflops",
    "weighted_gflops",
    "min_app_gflops",
    "SearchResult",
    "ExhaustiveSearch",
    "GreedySearch",
    "HillClimbSearch",
    "AnnealingSearch",
]

#: An objective maps a model prediction to a scalar score (higher = better).
#: Carrying a ``batched`` attribute — ``(app_gflops (B, A), apps) -> (B,)``
#: — additionally opts the objective into the searches' fast path.
Objective = Callable[[Prediction], float]

# Metric handles hoisted out of the search inner loops (PERF001): resolved
# against the live registry on first use, re-resolved only when obs is
# re-enabled with a fresh registry.
_EVALUATIONS = CounterHandle("optimizer/evaluations")
_BEST_SCORE = GaugeHandle("optimizer/best_score")


def total_gflops(prediction: Prediction) -> float:
    """Default objective: machine-wide achieved GFLOPS."""
    return prediction.total_gflops


def _total_gflops_batched(
    app_gflops: np.ndarray, apps: Sequence[AppSpec]
) -> np.ndarray:
    return app_gflops.sum(axis=1)


total_gflops.batched = _total_gflops_batched


def weighted_gflops(weights: dict[str, float]) -> Objective:
    """Objective factory: weighted sum of per-app GFLOPS.

    Lets an arbiter encode priorities (e.g. the interactive component
    counts double).  Apps not named in ``weights`` count with weight 1;
    extra names are ignored.
    """

    def objective(prediction: Prediction) -> float:
        return sum(
            weights.get(a.name, 1.0) * a.gflops for a in prediction.apps
        )

    def batched(
        app_gflops: np.ndarray, apps: Sequence[AppSpec]
    ) -> np.ndarray:
        w = np.array([weights.get(a.name, 1.0) for a in apps])
        return app_gflops @ w

    objective.batched = batched
    return objective


def min_app_gflops(prediction: Prediction) -> float:
    """Max-min fairness objective: the worst-off application's GFLOPS."""
    return min(a.gflops for a in prediction.apps)


def _min_app_gflops_batched(
    app_gflops: np.ndarray, apps: Sequence[AppSpec]
) -> np.ndarray:
    return app_gflops.min(axis=1)


min_app_gflops.batched = _min_app_gflops_batched


@dataclass(frozen=True)
class OptimizerConfig:
    """Search-wide knobs shared by every optimizer.

    A single value the serve layer (and tests) can thread through all
    searches instead of repeating keyword arguments.  Every search
    accepts ``config=`` plus per-call overrides; an explicit keyword
    always wins over the config value.

    Attributes
    ----------
    use_fast:
        Drive the batched evaluation engine when the objective supports
        it (default).  ``False`` forces the scalar reference path.
    workers:
        Process count for big score batches (:mod:`repro.core.
        parallel`).  ``None`` leaves the model's setting alone (which
        defaults to the ``REPRO_WORKERS`` environment variable); ``0``
        forces serial scoring.  Search results are byte-identical for
        every worker count.
    parallel_min_batch:
        Smallest batch routed through the worker pool; ``None`` keeps
        the model's threshold
        (:data:`repro.core.parallel.DEFAULT_MIN_BATCH`).
    """

    use_fast: bool = True
    workers: int | None = None
    parallel_min_batch: int | None = None


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an allocation search."""

    allocation: ThreadAllocation
    prediction: Prediction
    score: float
    evaluations: int
    trajectory: tuple[float, ...] = ()

    def __str__(self) -> str:
        return (
            f"SearchResult(score={self.score:.3f}, "
            f"evaluations={self.evaluations}, "
            f"allocation={self.allocation})"
        )


class _SearchBase:
    """Shared plumbing: model evaluation with counting.

    Every search is instrumented through :mod:`repro.obs` when enabled:
    one span per :meth:`search` call (``optimizer/<search>``), the
    ``optimizer/evaluations`` counter per candidate scored (batched
    evaluations count each candidate in the batch), and the
    ``optimizer/best_score`` gauge set to the returned score.
    """

    #: span name suffix; subclasses override (``optimizer/<span_name>``)
    span_name = "search"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        use_fast: bool | None = None,
        workers: int | None = None,
        config: OptimizerConfig | None = None,
    ) -> None:
        self.config = config or OptimizerConfig()
        self.model = model or NumaPerformanceModel()
        self.objective = objective
        self.use_fast = (
            self.config.use_fast if use_fast is None else use_fast
        )
        workers = self.config.workers if workers is None else workers
        if workers is not None:
            self.model.set_workers(
                workers, min_batch=self.config.parallel_min_batch
            )
        self._evaluations = 0

    def _score(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
    ) -> tuple[float, Prediction]:
        self._evaluations += 1
        if OBS.enabled:
            _EVALUATIONS.add()
        prediction = self.model.predict(machine, apps, allocation)
        return self.objective(prediction), prediction

    def _evaluator(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> FastEvaluator | None:
        """The batched evaluator, or ``None`` → take the scalar path."""
        if not self.use_fast:
            return None
        return FastEvaluator.create(
            self.model, machine, apps, self.objective
        )

    def _space(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> CandidateSpace:
        """The shared candidate/move enumerator for this workload size."""
        return CandidateSpace(machine, len(apps))

    def _score_batch(
        self,
        evaluator: FastEvaluator,
        counts: np.ndarray,
        *,
        space: tuple | None = None,
    ) -> np.ndarray:
        """Objective score of each ``(B, A, N)`` candidate, counted.

        ``space`` names a whole symmetric tensor by its key
        (:meth:`~repro.core.candidates.CandidateSpace.symmetric_key`).
        """
        scores = evaluator.scores(counts, space=space)
        self._evaluations += len(scores)
        if OBS.enabled:
            _EVALUATIONS.add(len(scores))
        return scores

    def _exact(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
    ) -> tuple[float, Prediction]:
        """Ground-truth (score, prediction) of the winning allocation.

        Runs the scalar reference model so the returned
        :class:`SearchResult` is bit-identical to the scalar path's.  Not
        counted as a search evaluation.
        """
        prediction = self.model.predict(machine, apps, allocation)
        return self.objective(prediction), prediction

    def _span(self, machine: MachineTopology, apps: Sequence[AppSpec]):
        """Open the per-search span (a no-op context manager when off)."""
        return OBS.tracer.span(
            f"optimizer/{self.span_name}",
            machine=machine.name,
            apps=len(apps),
        )

    def _finish(self, span, result: SearchResult) -> SearchResult:
        """Annotate the search span and publish the best-score gauge."""
        if OBS.enabled:
            span.attrs["score"] = result.score
            span.attrs["evaluations"] = result.evaluations
            _BEST_SCORE.set(result.score)
        return result


class ExhaustiveSearch(_SearchBase):
    """Evaluate every node-symmetric allocation; exact in that subspace.

    The fast path scores the memoised symmetric tensor in one
    :meth:`~repro.core.model.NumaPerformanceModel.predict_scores` call
    named by the tensor's key, so the model's score cache keeps the
    whole space's scores as one entry: the same workload searched
    again costs one cache hit and no kernel call.

    Parameters
    ----------
    require_full:
        Whether every core must be occupied.  Allowing idle cores enlarges
        the space but can win when all applications are memory bound.
    use_fast:
        Score the whole space in one batched model call when the
        objective supports it (default).  ``False`` forces the scalar
        reference path.
    """

    span_name = "exhaustive"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        require_full: bool = True,
        use_fast: bool | None = None,
        workers: int | None = None,
        config: OptimizerConfig | None = None,
    ) -> None:
        super().__init__(
            model, objective, use_fast=use_fast, workers=workers,
            config=config,
        )
        self.require_full = require_full

    def search(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> SearchResult:
        """Return the best symmetric allocation."""
        with self._span(machine, apps) as span:
            return self._finish(span, self._run(machine, apps))

    def _run(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> SearchResult:
        self._evaluations = 0
        evaluator = self._evaluator(machine, apps)
        if evaluator is not None:
            return self._run_batched(machine, apps, evaluator)
        best: tuple[float, ThreadAllocation, Prediction] | None = None
        for alloc in self._space(machine, apps).symmetric_allocations(
            apps, require_full=self.require_full
        ):
            score, pred = self._score(machine, apps, alloc)
            if best is None or score > best[0]:
                best = (score, alloc, pred)
        if best is None:
            raise AllocationError("empty search space")
        return SearchResult(
            allocation=best[1],
            prediction=best[2],
            score=best[0],
            evaluations=self._evaluations,
        )

    def _run_batched(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        evaluator: FastEvaluator,
    ) -> SearchResult:
        space = self._space(machine, apps)
        counts = space.symmetric_tensor(require_full=self.require_full)
        if len(counts) == 0:
            raise AllocationError("empty search space")
        scores = self._score_batch(
            evaluator,
            counts,
            space=space.symmetric_key(require_full=self.require_full),
        )
        # argmax returns the first maximum — the same candidate the
        # scalar loop's strict ">" keeps, since the tensor rows follow
        # the same enumeration order as symmetric_allocations.
        best = int(np.argmax(scores))
        allocation = ThreadAllocation(
            app_names=tuple(a.name for a in apps),
            counts=counts[best].copy(),
        )
        score, prediction = self._exact(machine, apps, allocation)
        return SearchResult(
            allocation=allocation,
            prediction=prediction,
            score=score,
            evaluations=self._evaluations,
        )


class GreedySearch(_SearchBase):
    """Add one thread at a time where the marginal objective gain is best.

    Starts from the empty allocation and performs
    ``sum(cores per node)`` rounds; each round tries every (app, node)
    placement with a free core and keeps the best.  Runs in
    ``O(total_cores * apps * nodes)`` model evaluations and may place
    different compositions on different nodes (unlike
    :class:`ExhaustiveSearch`).  Stops early if every possible addition
    lowers the objective (only possible with non-throughput objectives or
    contention-heavy workloads).  With a batchable objective each round's
    candidate set is scored in one model call.
    """

    span_name = "greedy"

    def search(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> SearchResult:
        """Greedily build an allocation."""
        with self._span(machine, apps) as span:
            return self._finish(span, self._run(machine, apps))

    def _run(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> SearchResult:
        self._evaluations = 0
        evaluator = self._evaluator(machine, apps)
        if evaluator is not None:
            return self._run_batched(machine, apps, evaluator)
        names = tuple(a.name for a in apps)
        space = self._space(machine, apps)
        counts = np.zeros((len(apps), machine.num_nodes), dtype=np.int64)
        free = np.array([n.num_cores for n in machine.nodes], dtype=np.int64)
        current_score = -math.inf
        best_pred: Prediction | None = None
        trajectory: list[float] = []
        while free.sum() > 0:
            best_step: tuple[float, int, int, Prediction] | None = None
            for a, n in space.addition_moves(free):
                counts[a, n] += 1
                alloc = ThreadAllocation(
                    app_names=names, counts=counts.copy()
                )
                score, pred = self._score(machine, apps, alloc)
                counts[a, n] -= 1
                if best_step is None or score > best_step[0]:
                    best_step = (score, a, n, pred)
            if best_step is None:
                break
            score, a, n, pred = best_step
            if score < current_score - 1e-12:
                break  # every addition hurts; stop with idle cores
            counts[a, n] += 1
            free[n] -= 1
            current_score = score
            best_pred = pred
            trajectory.append(score)
        if best_pred is None:
            raise AllocationError("greedy search placed no threads")
        return SearchResult(
            # Copy: `counts` is this method's scratch buffer, and the
            # result must not be a window onto it.
            allocation=ThreadAllocation(app_names=names, counts=counts.copy()),
            prediction=best_pred,
            score=current_score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )

    def _run_batched(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        evaluator: FastEvaluator,
    ) -> SearchResult:
        names = tuple(a.name for a in apps)
        space = self._space(machine, apps)
        counts = np.zeros((len(apps), machine.num_nodes), dtype=np.int64)
        free = np.array([n.num_cores for n in machine.nodes], dtype=np.int64)
        current_score = -math.inf
        placed = False
        trajectory: list[float] = []
        while free.sum() > 0:
            # Candidate additions in the scalar loop's (app, node) order.
            moves = space.addition_moves(free)
            if not moves:
                break
            scores = self._score_batch(
                evaluator, space.addition_batch(counts, moves)
            )
            k = int(np.argmax(scores))
            score = float(scores[k])
            if score < current_score - 1e-12:
                break  # every addition hurts; stop with idle cores
            a, n = moves[k]
            counts[a, n] += 1
            free[n] -= 1
            current_score = score
            placed = True
            trajectory.append(score)
        if not placed:
            raise AllocationError("greedy search placed no threads")
        allocation = ThreadAllocation(app_names=names, counts=counts.copy())
        score, prediction = self._exact(machine, apps, allocation)
        return SearchResult(
            allocation=allocation,
            prediction=prediction,
            score=score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )


class HillClimbSearch(_SearchBase):
    """Steepest-ascent local search over single-thread moves.

    A move takes one thread of one app on one node and gives it to another
    app on the same node (the machine stays fully utilised).  Terminates at
    a local optimum of the move neighbourhood.  With a batchable objective
    the whole neighbourhood of each round is scored in one model call.
    """

    span_name = "hillclimb"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        max_rounds: int = 1000,
        use_fast: bool | None = None,
        workers: int | None = None,
        config: OptimizerConfig | None = None,
    ) -> None:
        super().__init__(
            model, objective, use_fast=use_fast, workers=workers,
            config=config,
        )
        self.max_rounds = max_rounds

    def search(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        start: ThreadAllocation | None = None,
    ) -> SearchResult:
        """Climb from ``start`` (default: even share with leftovers)."""
        with self._span(machine, apps) as span:
            return self._finish(span, self._run(machine, apps, start))

    def _run(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        start: ThreadAllocation | None = None,
    ) -> SearchResult:
        self._evaluations = 0
        if start is None:
            from repro.core.policies import EvenSharePolicy

            start = EvenSharePolicy(distribute_leftover=True).allocate(
                machine, apps
            )
        start.validate(machine)
        evaluator = self._evaluator(machine, apps)
        if evaluator is not None:
            return self._run_batched(machine, apps, start, evaluator)
        current = start
        names = current.app_names
        space = self._space(machine, apps)
        score, pred = self._score(machine, apps, current)
        trajectory = [score]
        for _ in range(self.max_rounds):
            best_move: tuple[float, ThreadAllocation, Prediction] | None = None
            for si, di, n in space.thread_moves(current.counts):
                cand = current.move_thread(names[si], names[di], n)
                s, p = self._score(machine, apps, cand)
                if best_move is None or s > best_move[0]:
                    best_move = (s, cand, p)
            if best_move is None or best_move[0] <= score + 1e-12:
                break
            score, current, pred = best_move
            trajectory.append(score)
        return SearchResult(
            allocation=current,
            prediction=pred,
            score=score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )

    def _run_batched(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        start: ThreadAllocation,
        evaluator: FastEvaluator,
    ) -> SearchResult:
        names = start.app_names
        current = start
        space = self._space(machine, apps)
        score = float(self._score_batch(evaluator, current.counts[None])[0])
        trajectory = [score]
        for _ in range(self.max_rounds):
            # Neighbourhood in the scalar loop's (src, dst, node) order.
            moves = space.thread_moves(current.counts)
            if not moves:
                break
            batch = space.move_batch(current.counts, moves)
            scores = self._score_batch(evaluator, batch)
            k = int(np.argmax(scores))
            if scores[k] <= score + 1e-12:
                break
            current = ThreadAllocation(
                app_names=names, counts=batch[k].copy()
            )
            score = float(scores[k])
            trajectory.append(score)
        final_score, prediction = self._exact(machine, apps, current)
        return SearchResult(
            allocation=current,
            prediction=prediction,
            score=final_score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )


class AnnealingSearch(_SearchBase):
    """Simulated annealing over single-thread moves.

    Same neighbourhood as :class:`HillClimbSearch` but accepts worsening
    moves with probability ``exp(delta / T)`` under a geometric cooling
    schedule, so it can cross the valleys between symmetric optima.
    Deterministic for a fixed ``seed``.

    Annealing's proposals are inherently sequential (each depends on the
    previous accept/reject draw), so the fast path scores them one at a
    time through the model's memo cache rather than batching — revisited
    allocations, which dominate late in the cooling schedule, cost a
    dict lookup instead of a model evaluation.  Each path is
    deterministic for a fixed seed, but the two paths may walk different
    (equally valid) trajectories: when two allocations tie exactly, the
    1e-14-scale rounding difference between scalar and vectorised
    arithmetic can flip the ``delta >= 0`` shortcut and desynchronise
    the rng stream.
    """

    span_name = "annealing"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        steps: int = 2000,
        initial_temperature: float = 5.0,
        cooling: float = 0.995,
        seed: int = 0,
        use_fast: bool | None = None,
        workers: int | None = None,
        config: OptimizerConfig | None = None,
    ) -> None:
        super().__init__(
            model, objective, use_fast=use_fast, workers=workers,
            config=config,
        )
        if steps <= 0:
            raise ModelError(f"steps must be positive, got {steps}")
        if not 0 < cooling < 1:
            raise ModelError(f"cooling must be in (0,1), got {cooling}")
        self.steps = steps
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.seed = seed

    def search(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        start: ThreadAllocation | None = None,
    ) -> SearchResult:
        """Anneal from ``start`` (default: even share with leftovers)."""
        with self._span(machine, apps) as span:
            return self._finish(span, self._run(machine, apps, start))

    def _run(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        start: ThreadAllocation | None = None,
    ) -> SearchResult:
        self._evaluations = 0
        rng = np.random.default_rng(self.seed)
        if start is None:
            from repro.core.policies import EvenSharePolicy

            start = EvenSharePolicy(distribute_leftover=True).allocate(
                machine, apps
            )
        start.validate(machine)
        evaluator = self._evaluator(machine, apps)
        if evaluator is not None:
            return self._run_cached(machine, apps, start, evaluator, rng)
        current = start
        space = self._space(machine, apps)
        score, pred = self._score(machine, apps, current)
        best = (score, current, pred)
        temperature = self.initial_temperature
        trajectory = [score]
        names = current.app_names
        for _ in range(self.steps):
            # Propose a random legal single-thread move.
            move = space.random_move(current.counts, rng)
            if move is None:
                break
            ai, dj, n = move
            cand = current.move_thread(names[ai], names[dj], n)
            s, p = self._score(machine, apps, cand)
            delta = s - score
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                current, score, pred = cand, s, p
                if score > best[0]:
                    best = (score, current, pred)
            temperature = max(temperature * self.cooling, 1e-6)
            trajectory.append(score)
        return SearchResult(
            allocation=best[1],
            prediction=best[2],
            score=best[0],
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )

    def _run_cached(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        start: ThreadAllocation,
        evaluator: FastEvaluator,
        rng: np.random.Generator,
    ) -> SearchResult:
        current = start
        space = self._space(machine, apps)
        score = float(self._score_batch(evaluator, current.counts[None])[0])
        best = (score, current)
        temperature = self.initial_temperature
        trajectory = [score]
        names = current.app_names
        for _ in range(self.steps):
            # Propose a random legal single-thread move (same rng draw
            # sequence as the scalar path, modulo exact-tie divergence —
            # see the class docstring).
            move = space.random_move(current.counts, rng)
            if move is None:
                break
            ai, dj, n = move
            cand = current.move_thread(names[ai], names[dj], n)
            s = float(self._score_batch(evaluator, cand.counts[None])[0])
            delta = s - score
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                current, score = cand, s
                if score > best[0]:
                    best = (score, current)
            temperature = max(temperature * self.cooling, 1e-6)
            trajectory.append(score)
        final_score, prediction = self._exact(machine, apps, best[1])
        return SearchResult(
            allocation=best[1],
            prediction=prediction,
            score=final_score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )
