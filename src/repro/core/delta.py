"""Incremental churn-time re-optimization: O(delta), not O(space).

The paper's setting is *cooperating dynamic applications*: workloads
register, change phase, and deregister while the machine keeps running.
Re-running :class:`~repro.core.optimizer.ExhaustiveSearch` on every
membership change costs the full symmetric space —
:math:`\\binom{C+A-1}{A-1}` candidates, 24310 for 10 apps on the
8-core-per-node model machine — even though a single join or leave
perturbs only a handful of rows of the previous answer.

:class:`DeltaSearch` starts from the previous
:class:`~repro.core.allocation.ThreadAllocation` instead:

1. **Project** the previous allocation onto the current application
   set (departed rows dropped, joined apps start at zero threads).
2. **Repair** — greedily hand freed cores to whichever app the model
   says gains most, one per-node thread at a time (batched scoring).
3. **Climb** — steepest-ascent over all :math:`A(A-1)` per-node
   composition moves, each round one batched call, still far below
   O(space); it moves the joined or changed apps and rebalances the
   unchanged ones around them.
4. **Audit** — when the symmetric space is small (at most
   ``_AUDIT_LIMIT``, 512 candidates) find the whole space's
   first best row, the exhaustive search's one step, and adopt it on
   any disagreement.  The audit makes delta mode *provably identical* to
   :class:`~repro.core.optimizer.ExhaustiveSearch` on small instances
   — the exactness anchor the ``churn-*`` replays assert — while large
   instances (where the audit would defeat the point) take the pure
   O(delta) path.

Fall-back to the full search (counted on the ``delta/fallbacks``
metric) happens when there is no usable previous allocation, the
changed-app fraction exceeds ``_MAX_CHANGED_FRACTION`` (0.5), the
machine or the previous allocation is not node-symmetric, or a
pure-join churn somehow *regressed* the objective by more than
``_REGRESSION_TOLERANCE`` (a relative 1e-9; joins can never lower the
symmetric optimum, so a regression proves the climb got stuck).  Every
search opens a ``delta/search`` span.

Every phase scores its batches through the evaluator every search
uses, so ``use_fast`` picks the evaluator, not a second copy of the
pipeline.  By default that is
:class:`~repro.core.fasteval.FastEvaluator`: the batched
:meth:`~repro.core.model.NumaPerformanceModel.predict_scores` path
through the shared model.  ``use_fast=False``, or an objective with no
``batched`` form, selects :class:`~repro.core.optimizer.ScalarEvaluator`,
which scores row by row with the reference model.  The repair and
climb batches are scored, never cached; with the fast evaluator the
audit and the full fall-back keep their space's winner as one entry of
the model's :class:`~repro.core.fasteval.ScoreCache`, which hits only
when the very same workload returns — the same app specs in the same
order, since the fingerprint is the ordered spec tuple.  The searcher's
speed comes from scoring O(delta) candidates, not from the cache.

See ``docs/OPTIMIZER.md`` for the full move-set and fall-back
reference with a worked churn example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.allocation import ThreadAllocation
from repro.core.candidates import CandidateSpace
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import (
    ExhaustiveSearch,
    Objective,
    SearchResult,
    _SearchBase,
    total_gflops,
)
from repro.core.spec import AppSpec
from repro.errors import AllocationError, ModelError
from repro.machine.topology import MachineTopology
from repro.obs import OBS, CounterHandle

__all__ = [
    "WorkloadDelta",
    "diff_workloads",
    "DeltaResult",
    "DeltaSearch",
]

# Hoisted metric handles (PERF001): resolved once, not per churn event.
_FALLBACKS = CounterHandle("delta/fallbacks")
_AUDIT_CORRECTIONS = CounterHandle("delta/audit_corrections")

#: Score-comparison slack mirroring the hill climb's stopping tolerance.
_EPS = 1e-12

#: Fall back to the full search when more than this fraction of the
#: workload changed (joins + leaves + phase changes over the current app
#: count): beyond it the previous answer carries too little information
#: to be worth repairing.
_MAX_CHANGED_FRACTION = 0.5

#: Relative slack on the pure-join regression guard: a join can only
#: grow the symmetric optimum, so a delta result more than this fraction
#: below the previous score triggers the full fall-back.
_REGRESSION_TOLERANCE = 1e-9

#: Audit (and, on disagreement, adopt) the whole space's first best row
#: when the symmetric space has at most this many candidates: five apps
#: on the model machine's 8-core nodes (495 rows), not six (1 287).
_AUDIT_LIMIT = 512

#: Safety bound on climb rounds, as in
#: :class:`~repro.core.optimizer.HillClimbSearch`.
_MAX_ROUNDS = 1000


@dataclass(frozen=True)
class WorkloadDelta:
    """What changed between two application sets, by name.

    ``changed`` holds apps present in both sets whose spec fingerprint
    differs — a phase change (new intensity, placement, or peak), which
    invalidates their rows of the previous answer just like a rejoin.
    """

    joined: tuple[str, ...]
    departed: tuple[str, ...]
    changed: tuple[str, ...]

    @property
    def empty(self) -> bool:
        """True when the two application sets are identical."""
        return not (self.joined or self.departed or self.changed)

    def fraction(self, num_current: int) -> float:
        """Changed-app fraction relative to the current workload size."""
        events = len(self.joined) + len(self.departed) + len(self.changed)
        return events / max(1, num_current)


def diff_workloads(
    previous: Sequence[AppSpec], current: Sequence[AppSpec]
) -> WorkloadDelta:
    """Classify the churn between ``previous`` and ``current`` specs."""
    prev = {app.name: app for app in previous}
    cur = {app.name: app for app in current}
    return WorkloadDelta(
        joined=tuple(a.name for a in current if a.name not in prev),
        departed=tuple(a.name for a in previous if a.name not in cur),
        changed=tuple(
            a.name
            for a in current
            if a.name in prev and a.fingerprint != prev[a.name].fingerprint
        ),
    )


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of one :meth:`DeltaSearch.search` call, with provenance.

    ``mode`` is ``"delta"`` when the incremental path produced the
    answer and ``"full"`` when the searcher fell back to the exhaustive
    oracle (``fallback_reason`` says why).  ``audited`` records whether
    the small-instance audit ran, ``audit_corrected`` whether it had to
    override the climb's answer.
    """

    result: SearchResult
    mode: str
    delta: WorkloadDelta
    fallback_reason: str | None = None
    audited: bool = False
    audit_corrected: bool = False

    @property
    def allocation(self) -> ThreadAllocation:
        """The winning allocation (shortcut to ``result.allocation``)."""
        return self.result.allocation

    @property
    def score(self) -> float:
        """The scalar ground-truth score (shortcut to ``result.score``)."""
        return self.result.score


class DeltaSearch(_SearchBase):
    """Warm-started incremental search over the symmetric subspace.

    The space is the full-occupancy one (every core occupied), which
    the service's oracle searches.  The regression guard arms only on
    pure joins: departures and phase changes legitimately lower the
    achievable score.

    Parameters
    ----------
    fallback:
        The full search used when the delta path declines; defaults to
        an :class:`~repro.core.optimizer.ExhaustiveSearch` sharing this
        searcher's model (and therefore its score cache).
    """

    span_name = "delta"

    def __init__(
        self,
        model: NumaPerformanceModel | None = None,
        objective: Objective = total_gflops,
        *,
        use_fast: bool = True,
        fallback: ExhaustiveSearch | None = None,
    ) -> None:
        super().__init__(model, objective, use_fast=use_fast)
        self.fallback = fallback or ExhaustiveSearch(
            self.model, objective, use_fast=use_fast
        )
        if self.fallback.model is not self.model:
            raise ModelError(
                "the fallback search must share the delta searcher's "
                "model (otherwise fall-backs bypass the score cache)"
            )
        #: lifetime tally of full-search fall-backs.
        self.fallbacks = 0
        #: lifetime tally of audit passes that overrode the climb.
        self.audit_corrections = 0

    # -- entry point ----------------------------------------------------

    def search(
        self,
        machine: MachineTopology,
        apps: Sequence[AppSpec],
        *,
        previous: ThreadAllocation | None = None,
        previous_specs: Sequence[AppSpec] = (),
        previous_score: float | None = None,
    ) -> DeltaResult:
        """Re-optimize ``apps`` starting from the previous answer.

        ``previous``/``previous_specs`` describe the last computed
        allocation and the workload it was computed for;
        ``previous_score`` (its ground-truth score) arms the pure-join
        regression guard.  With no previous state this degenerates to
        the full fall-back.
        """
        if not apps:
            raise AllocationError("empty workload")
        with OBS.tracer.span(
            "delta/search", machine=machine.name, apps=len(apps)
        ) as span:
            outcome = self._run(
                machine, tuple(apps), previous,
                tuple(previous_specs), previous_score,
            )
            if OBS.enabled:
                span.attrs["mode"] = outcome.mode
                span.attrs["score"] = outcome.result.score
                span.attrs["evaluations"] = outcome.result.evaluations
                if outcome.fallback_reason is not None:
                    span.attrs["fallback"] = outcome.fallback_reason
            return outcome

    # -- the delta pipeline ---------------------------------------------

    def _run(
        self,
        machine: MachineTopology,
        apps: tuple[AppSpec, ...],
        previous: ThreadAllocation | None,
        previous_specs: tuple[AppSpec, ...],
        previous_score: float | None,
    ) -> DeltaResult:
        self._evaluations = 0
        delta = diff_workloads(previous_specs, apps)
        space = CandidateSpace(machine, len(apps))
        reason = self._declined(space, delta, previous, previous_specs)
        if reason is not None:
            return self._full(machine, apps, delta, reason)
        comp = self._project(space, apps, previous)
        if comp is None:
            return self._full(machine, apps, delta, "asymmetric-previous")
        if int(comp.sum()) > space.cores_per_node:
            # The previous answer was computed for a bigger machine.
            return self._full(machine, apps, delta, "oversubscribed-previous")

        evaluator = self._evaluator(machine, apps)
        names = tuple(a.name for a in apps)
        trajectory: list[float] = []

        score = self._repair(space, evaluator, comp, trajectory)
        score = self._climb(space, evaluator, comp, score, trajectory)

        audited = corrected = False
        if space.symmetric_size() <= _AUDIT_LIMIT:
            audited = True
            corrected = self._audit(space, evaluator, comp)
            if corrected:
                self.audit_corrections += 1
                if OBS.enabled:
                    _AUDIT_CORRECTIONS.add()

        allocation = ThreadAllocation(
            app_names=names, counts=space.expand(comp)
        )
        exact_score, prediction = self._exact(machine, apps, allocation)
        if (
            previous_score is not None
            and not delta.departed
            and not delta.changed
            and exact_score
            < previous_score
            - _REGRESSION_TOLERANCE * max(abs(previous_score), 1.0)
        ):
            return self._full(machine, apps, delta, "regression")
        result = SearchResult(
            allocation=allocation,
            prediction=prediction,
            score=exact_score,
            evaluations=self._evaluations,
            trajectory=tuple(trajectory),
        )
        return DeltaResult(
            result=result,
            mode="delta",
            delta=delta,
            audited=audited,
            audit_corrected=corrected,
        )

    def _declined(
        self,
        space: CandidateSpace,
        delta: WorkloadDelta,
        previous: ThreadAllocation | None,
        previous_specs: tuple[AppSpec, ...],
    ) -> str | None:
        """Why the delta path cannot run, or ``None`` when it can."""
        if previous is None or not previous_specs:
            return "cold-start"
        if not space.symmetric:
            return "asymmetric-machine"
        if delta.fraction(space.num_apps) > _MAX_CHANGED_FRACTION:
            return "churn-fraction"
        return None

    def _project(
        self,
        space: CandidateSpace,
        apps: tuple[AppSpec, ...],
        previous: ThreadAllocation,
    ) -> np.ndarray | None:
        """The previous answer as a composition over the current apps.

        Departed rows are dropped, joined apps start at zero; returns
        ``None`` when a surviving row is not node-symmetric (different
        counts on different nodes), which the composition space cannot
        represent.
        """
        comp = np.zeros(len(apps), dtype=np.int64)
        names = previous.app_names
        for i, app in enumerate(apps):
            if app.name not in names:
                continue
            row = np.asarray(previous.counts[names.index(app.name)])
            if len(row) != space.num_nodes or not np.all(row == row[0]):
                return None
            comp[i] = row[0]
        return comp

    def _repair(
        self,
        space: CandidateSpace,
        evaluator,
        comp: np.ndarray,
        trajectory: list[float],
    ) -> float | None:
        """Greedily hand freed cores out until the node is full.

        Mirrors :class:`~repro.core.optimizer.GreedySearch` one step at
        a time over compositions.  Returns ``None`` without scoring
        anything when there is nothing to hand out, so the first climb
        round can fold the seed into its own batch.
        """
        if not space.composition_additions(comp):
            return None
        score = float(
            self._score_batch(evaluator, space.expand(comp)[None])[0]
        )
        trajectory.append(score)
        while True:
            additions = space.composition_additions(comp)
            if not additions:
                break
            batch = space.addition_composition_batch(comp, additions)
            scores = self._score_batch(evaluator, batch)
            k = int(np.argmax(scores))
            comp[additions[k]] += 1
            score = float(scores[k])
            trajectory.append(score)
        return score

    def _climb(
        self,
        space: CandidateSpace,
        evaluator,
        comp: np.ndarray,
        score: float | None,
        trajectory: list[float],
    ) -> float | None:
        """Steepest-ascent over all composition moves.

        When ``score`` is ``None`` (the seed has not been scored yet)
        the seed row rides along in the first round's batch instead of
        costing a one-candidate evaluation call of its own.
        """
        for _ in range(_MAX_ROUNDS):
            moves = space.composition_moves(comp)
            if not moves:
                break
            batch = space.composition_batch(comp, moves)
            if score is None:
                batch = np.concatenate([space.expand(comp)[None], batch])
                scores = self._score_batch(evaluator, batch)
                score = float(scores[0])
                trajectory.append(score)
                scores = scores[1:]
            else:
                scores = self._score_batch(evaluator, batch)
            k = int(np.argmax(scores))
            if scores[k] <= score + _EPS:
                break
            i, j = moves[k]
            comp[i] -= 1
            comp[j] += 1
            score = float(scores[k])
            trajectory.append(score)
        return score

    def _audit(
        self, space: CandidateSpace, evaluator, comp: np.ndarray
    ) -> bool:
        """Find the whole (small) space's winner; adopt it on mismatch.

        The winner is the *first* argmax in enumeration order — exactly
        the candidate :class:`~repro.core.optimizer.ExhaustiveSearch`
        returns — so after an audit the delta answer is identical to
        the oracle's, ties included.  Like that search, the audit names
        its batch by the symmetric tensor's key, so its winner is
        cached as one whole-space entry.  That lookup is the only one
        the cache counts: a hit or a miss adds the space's row count,
        and the rows the climb scored before it count as neither.
        """
        tensor = space.symmetric_tensor()
        winner = tensor[
            self._best_row(evaluator, tensor, space.symmetric_key())
        ]
        if np.array_equal(winner, space.expand(comp)):
            return False
        comp[:] = winner[:, 0]
        return True

    def _full(
        self,
        machine: MachineTopology,
        apps: tuple[AppSpec, ...],
        delta: WorkloadDelta,
        reason: str,
    ) -> DeltaResult:
        """Fall back to the exhaustive oracle, counting the event."""
        self.fallbacks += 1
        if OBS.enabled:
            _FALLBACKS.add()
        result = self.fallback.search(machine, apps)
        return DeltaResult(
            result=result,
            mode="full",
            delta=delta,
            fallback_reason=reason,
        )
