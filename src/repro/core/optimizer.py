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
by ``tests/test_core_candidates.py``), so a plain ``argmax`` breaks
ties the same way in every search.

Evaluators
----------
Each search is one loop written against an evaluator: an object whose
``scores(counts)`` turns a ``(B, apps, nodes)`` tensor of candidates
into ``B`` objective scores, and whose ``best_row(counts, space)``
finds the first best row of a whole symmetric space.  There are two:

* :class:`~repro.core.fasteval.FastEvaluator` (the default) runs the
  batched engine of :mod:`repro.core.fasteval`.  Greedy and hill
  climbing score each round's candidate set in one
  :meth:`~repro.core.model.NumaPerformanceModel.predict_scores` call,
  and annealing scores its single proposals one call each.
  Exhaustive search asks for the space's best row, which for an
  objective with a ``bound`` (:func:`total_gflops`) scores only the
  rows that can still be the first best one.  It needs an objective
  with a ``batched`` form, which the built-in objectives all carry.
* :class:`ScalarEvaluator` scores each candidate with the reference
  :meth:`~repro.core.model.NumaPerformanceModel.predict` and then the
  objective, every row of a whole space included.  Searches use it for
  custom objectives over full :class:`~repro.core.model.Prediction`
  objects and when ``use_fast=False``.

The loop picks winners with ``argmax`` (the first maximum) in the pinned
enumeration order of :class:`~repro.core.candidates.CandidateSpace`,
and the returned :class:`SearchResult` carries the reference model's
prediction and score of the winning allocation.  The deterministic
searches therefore return the same winner, ties and all, through either
evaluator; annealing may diverge on exact ties (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.candidates import CandidateSpace
from repro.core.fasteval import FastEvaluator, symmetric_roofline_bound
from repro.core.model import NumaPerformanceModel, Prediction
from repro.core.spec import AppSpec
from repro.errors import AllocationError, ModelError
from repro.machine.topology import MachineTopology
from repro.obs import OBS, CounterHandle, GaugeHandle

__all__ = [
    "Objective",
    "total_gflops",
    "weighted_gflops",
    "min_app_gflops",
    "SearchResult",
    "ScalarEvaluator",
    "ExhaustiveSearch",
    "GreedySearch",
    "HillClimbSearch",
    "AnnealingSearch",
]

#: An objective maps a model prediction to a scalar score (higher = better).
#: Carrying a ``batched`` attribute — ``(app_gflops (B, A), apps) -> (B,)``
#: — additionally opts the objective into the searches' fast path, and a
#: ``bound`` — ``(tables, counts (B, A, N)) -> (B,)``, never below the
#: score — lets the fast exhaustive search skip rows that cannot win.
#: An objective with a ``bound`` must also never fall when an app's
#: GFLOPS rise: the search then takes the ``batched`` form of every
#: thread at its peak as an exact ceiling on a row's score.
#: Both must be pure: the score cache keeps a whole space's winner under
#: the ``batched`` function itself, so its results may depend on nothing
#: but its arguments.
Objective = Callable[[Prediction], float]

# Metric handles hoisted out of the search inner loops (PERF001): resolved
# against the live registry on first use, re-resolved only when obs is
# re-enabled with a fresh registry.
_EVALUATIONS = CounterHandle("optimizer/evaluations")
_BOUND_PRUNED = CounterHandle("optimizer/bound_pruned")
_BEST_SCORE = GaugeHandle("optimizer/best_score")


def total_gflops(prediction: Prediction) -> float:
    """Default objective: machine-wide achieved GFLOPS."""
    return prediction.total_gflops


def _total_gflops_batched(
    app_gflops: np.ndarray, apps: Sequence[AppSpec]
) -> np.ndarray:
    return app_gflops.sum(axis=1)


total_gflops.batched = _total_gflops_batched
total_gflops.bound = symmetric_roofline_bound


def weighted_gflops(weights: dict[str, float]) -> Objective:
    """Objective factory: weighted sum of per-app GFLOPS.

    Lets an arbiter encode priorities (e.g. the interactive component
    counts double).  Apps not named in ``weights`` count with weight 1;
    extra names are ignored.  ``weights`` is copied, so changing the
    dict later does not change the objective: to re-weight, make a new
    one.
    """
    weights = dict(weights)

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


class ScalarEvaluator:
    """Score candidates one at a time through the reference model.

    The evaluator for objectives with no ``batched`` form and for
    ``use_fast=False``: each ``(A, N)`` row of a batch becomes a
    :class:`~repro.core.allocation.ThreadAllocation`, the scalar
    :meth:`~repro.core.model.NumaPerformanceModel.predict` turns it into
    a full :class:`~repro.core.model.Prediction`, and the objective
    scores that.  It has :class:`~repro.core.fasteval.FastEvaluator`'s
    :meth:`scores` and :meth:`best_row` signatures, so each search is
    one loop whichever evaluator it drives.  It prunes nothing: its
    :meth:`best_row` is the unpruned reference for the fast one.
    """

    def __init__(
        self,
        model: NumaPerformanceModel,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        objective: Objective,
    ) -> None:
        self.model = model
        self.machine = machine
        self.apps = tuple(apps)
        self.objective = objective
        self._names = tuple(a.name for a in apps)

    def scores(self, counts: np.ndarray) -> np.ndarray:
        """Objective score of each candidate in a ``(B, A, N)`` tensor."""
        return np.array(
            [
                self.objective(
                    self.model.predict(
                        self.machine,
                        self.apps,
                        ThreadAllocation(app_names=self._names, counts=row),
                    )
                )
                for row in counts
            ],
            dtype=float,
        )

    def best_row(
        self, counts: np.ndarray, space: tuple
    ) -> tuple[int, int, int]:
        """``(first argmax of every row's score, rows scored, 0)``.

        ``space`` is accepted for the shared signature and not read:
        this evaluator caches nothing and scores every row.
        """
        return int(np.argmax(self.scores(counts))), len(counts), 0


class _SearchBase:
    """Shared plumbing: the evaluator, counted scoring and the result.

    Every search is instrumented through :mod:`repro.obs` when enabled:
    one span per :meth:`search` call (``optimizer/<search>``), the
    ``optimizer/evaluations`` counter per candidate scored (batched
    evaluations count each candidate in the batch, a whole-space step
    every candidate of the space), the ``optimizer/bound_pruned``
    counter per candidate a score bound ruled out, and the
    ``optimizer/best_score`` gauge set to the returned score.
    """

    #: span name suffix; subclasses override (``optimizer/<span_name>``)
    span_name = "search"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        use_fast: bool = True,
    ) -> None:
        self.model = model or NumaPerformanceModel()
        self.objective = objective
        self.use_fast = use_fast
        self._evaluations = 0
        #: rows the last whole-space step had the model score.
        self._scored = 0

    def _evaluator(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> FastEvaluator | ScalarEvaluator:
        """The batched evaluator if enabled and batchable, else the scalar."""
        if self.use_fast:
            fast = FastEvaluator.create(
                self.model, machine, apps, self.objective
            )
            if fast is not None:
                return fast
        return ScalarEvaluator(self.model, machine, apps, self.objective)

    def _space(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> CandidateSpace:
        """The shared candidate/move enumerator for this workload size."""
        return CandidateSpace(machine, len(apps))

    def _score_batch(
        self,
        evaluator: FastEvaluator | ScalarEvaluator,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Objective score of each ``(B, A, N)`` candidate, counted."""
        scores = evaluator.scores(counts)
        self._count(len(scores))
        return scores

    def _count(self, evaluations: int) -> None:
        """Add ``evaluations`` to the search's tally and its counter."""
        self._evaluations += evaluations
        if OBS.enabled:
            _EVALUATIONS.add(evaluations)

    def _best_row(
        self,
        evaluator: FastEvaluator | ScalarEvaluator,
        counts: np.ndarray,
        space: tuple,
    ) -> int:
        """First best row of the symmetric tensor ``space`` names, counted.

        Every row counts as an evaluation, whether the model scored it
        or a bound ruled it out (or the score cache had the answer).
        """
        best, self._scored, pruned = evaluator.best_row(counts, space)
        self._evaluations += len(counts)
        if OBS.enabled:
            _EVALUATIONS.add(len(counts))
            if pruned:
                _BOUND_PRUNED.add(pruned)
        return best

    def _exact(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
    ) -> tuple[float, Prediction]:
        """Ground-truth (score, prediction) of the winning allocation.

        Runs the scalar reference model, so the returned
        :class:`SearchResult` is the same whichever evaluator scored the
        candidates.  Not counted as a search evaluation.
        """
        prediction = self.model.predict(machine, apps, allocation)
        return self.objective(prediction), prediction

    def _result(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        allocation: ThreadAllocation,
        trajectory: Sequence[float] = (),
    ) -> SearchResult:
        """The :class:`SearchResult` of a search that chose ``allocation``."""
        score, prediction = self._exact(machine, apps, allocation)
        return SearchResult(
            allocation=allocation,
            prediction=prediction,
            score=score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )

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


def _start_allocation(
    machine: MachineTopology,
    apps: Sequence[AppSpec],
    start: ThreadAllocation | None,
) -> ThreadAllocation:
    """``start`` (default: even share with leftovers), validated."""
    if start is None:
        from repro.core.policies import EvenSharePolicy

        start = EvenSharePolicy(distribute_leftover=True).allocate(
            machine, apps
        )
    start.validate(machine)
    return start


class ExhaustiveSearch(_SearchBase):
    """Rule on every node-symmetric allocation; exact in that subspace.

    The search is one evaluator step over the memoised symmetric
    tensor, named by the tensor's key: its first best row.  The scalar
    evaluator scores every row.  The fast evaluator scores only the
    rows that the objective's bound
    (:func:`~repro.core.fasteval.symmetric_roofline_bound` for
    :func:`total_gflops`) and the score with every thread at its peak
    cannot rule out, and returns the same row, ties included: when the
    best rows reach the machine's compute peak, the first of them ends
    the search.  The model's score cache keeps that row as one
    entry: the same workload searched again costs one cache hit and no
    kernel call.  ``evaluations`` counts every candidate, and the
    ``optimizer/exhaustive`` span's ``scored`` attribute the rows the
    model scored.

    Parameters
    ----------
    require_full:
        Whether every core must be occupied.  Allowing idle cores enlarges
        the space but can win when all applications are memory bound.
    use_fast:
        Score with the batched evaluator when the objective supports it
        (default).  ``False`` scores every candidate with the scalar
        reference model.
    """

    span_name = "exhaustive"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        require_full: bool = True,
        use_fast: bool = True,
    ) -> None:
        super().__init__(model, objective, use_fast=use_fast)
        self.require_full = require_full

    def search(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> SearchResult:
        """Return the best symmetric allocation."""
        with self._span(machine, apps) as span:
            result = self._finish(span, self._run(machine, apps))
            if OBS.enabled:
                span.attrs["scored"] = self._scored
            return result

    def _run(
        self, machine: MachineTopology, apps: Sequence[AppSpec]
    ) -> SearchResult:
        self._evaluations = 0
        space = self._space(machine, apps)
        counts = space.symmetric_tensor(require_full=self.require_full)
        if len(counts) == 0:
            raise AllocationError("empty search space")
        # The first maximum: ties go to the earliest candidate in the
        # pinned enumeration order.
        best = self._best_row(
            self._evaluator(machine, apps),
            counts,
            space.symmetric_key(require_full=self.require_full),
        )
        allocation = ThreadAllocation(
            app_names=tuple(a.name for a in apps),
            counts=counts[best].copy(),
        )
        return self._result(machine, apps, allocation)


class GreedySearch(_SearchBase):
    """Add one thread at a time where the marginal objective gain is best.

    Starts from the empty allocation and performs
    ``sum(cores per node)`` rounds; each round scores every (app, node)
    placement with a free core in one evaluator call and keeps the best.
    Runs in ``O(total_cores * apps * nodes)`` model evaluations and may
    place different compositions on different nodes (unlike
    :class:`ExhaustiveSearch`).  Stops early if every possible addition
    lowers the objective (only possible with non-throughput objectives or
    contention-heavy workloads).
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
        space = self._space(machine, apps)
        counts = np.zeros((len(apps), machine.num_nodes), dtype=np.int64)
        free = np.array([n.num_cores for n in machine.nodes], dtype=np.int64)
        current_score = -math.inf
        placed = False
        trajectory: list[float] = []
        while free.sum() > 0:
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
        allocation = ThreadAllocation(
            app_names=tuple(a.name for a in apps), counts=counts.copy()
        )
        return self._result(machine, apps, allocation, trajectory)


class HillClimbSearch(_SearchBase):
    """Steepest-ascent local search over single-thread moves.

    A move takes one thread of one app on one node and gives it to another
    app on the same node (the machine stays fully utilised).  Terminates at
    a local optimum of the move neighbourhood.  Each round scores the
    whole neighbourhood in one evaluator call.
    """

    span_name = "hillclimb"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        max_rounds: int = 1000,
        use_fast: bool = True,
    ) -> None:
        super().__init__(model, objective, use_fast=use_fast)
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
        current = _start_allocation(machine, apps, start)
        evaluator = self._evaluator(machine, apps)
        names = current.app_names
        space = self._space(machine, apps)
        score = float(self._score_batch(evaluator, current.counts[None])[0])
        trajectory = [score]
        for _ in range(self.max_rounds):
            # Neighbourhood in the pinned (src, dst, node) order.
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
        return self._result(machine, apps, current, trajectory)


class AnnealingSearch(_SearchBase):
    """Simulated annealing over single-thread moves.

    Same neighbourhood as :class:`HillClimbSearch` but accepts worsening
    moves with probability ``exp(delta / T)`` under a geometric cooling
    schedule, so it can cross the valleys between symmetric optima.
    Deterministic for a fixed ``seed``.  ``initial_temperature`` must be
    finite and positive: a zero or negative temperature cannot cool,
    and an infinite one never does.

    Annealing's proposals are inherently sequential (each depends on the
    previous accept/reject draw), so the loop scores them one at a time.
    It keeps every proposal's score for the rest of the search, so
    revisited allocations, which dominate late in the cooling schedule,
    cost a dict lookup instead of a model evaluation, whichever
    evaluator scores them; a revisit still counts as one evaluation.
    Each evaluator gives a deterministic walk for a fixed seed, but the two
    walks may differ (both valid): when two allocations tie exactly,
    the 1e-14-scale rounding difference between scalar and vectorised
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
        use_fast: bool = True,
    ) -> None:
        super().__init__(model, objective, use_fast=use_fast)
        if steps <= 0:
            raise ModelError(f"steps must be positive, got {steps}")
        if not (
            math.isfinite(initial_temperature) and initial_temperature > 0
        ):
            raise ModelError(
                f"initial_temperature must be finite and positive, "
                f"got {initial_temperature}"
            )
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
        current = _start_allocation(machine, apps, start)
        evaluator = self._evaluator(machine, apps)
        space = self._space(machine, apps)
        scores: dict[bytes, float] = {}

        def score_of(counts: np.ndarray) -> float:
            key = counts.tobytes()
            s = scores.get(key)
            if s is None:
                s = scores[key] = float(evaluator.scores(counts[None])[0])
            self._count(1)
            return s

        score = score_of(current.counts)
        best = (score, current)
        temperature = self.initial_temperature
        trajectory = [score]
        names = current.app_names
        for _ in range(self.steps):
            # Propose a random legal single-thread move (the pinned rng
            # draw sequence of CandidateSpace.random_move).
            move = space.random_move(current.counts, rng)
            if move is None:
                break
            ai, dj, n = move
            cand = current.move_thread(names[ai], names[dj], n)
            s = score_of(cand.counts)
            delta = s - score
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                current, score = cand, s
                if score > best[0]:
                    best = (score, current)
            temperature = max(temperature * self.cooling, 1e-6)
            trajectory.append(score)
        return self._result(machine, apps, best[1], trajectory)
