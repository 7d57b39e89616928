"""Unit tests for the allocation searches."""

import math

import pytest

from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import (
    AnnealingSearch,
    ExhaustiveSearch,
    GreedySearch,
    HillClimbSearch,
    min_app_gflops,
    total_gflops,
    weighted_gflops,
)
from repro.core.policies import EvenSharePolicy
from repro.core.spec import AppSpec
from repro.errors import ModelError


class TestExhaustive:
    def test_finds_global_optimum(self, paper_machine, paper_apps):
        res = ExhaustiveSearch().search(paper_machine, paper_apps)
        # All cores to the compute app: the machine peak.
        assert res.score == pytest.approx(320.0)
        assert res.evaluations == 165

    def test_max_min_objective_balances(self, paper_machine, paper_apps):
        res = ExhaustiveSearch(objective=min_app_gflops).search(
            paper_machine, paper_apps
        )
        worst = min(a.gflops for a in res.prediction.apps)
        assert worst > 0
        # the pure-throughput optimum starves apps, so max-min must differ
        assert res.allocation.threads_of("mem0").sum() > 0

    def test_weighted_objective(self, paper_machine, paper_apps):
        heavy_mem = weighted_gflops(
            {"mem0": 100.0, "mem1": 100.0, "mem2": 100.0, "comp": 0.01}
        )
        res = ExhaustiveSearch(objective=heavy_mem).search(
            paper_machine, paper_apps
        )
        assert res.allocation.threads_of("comp").sum() == 0

    def test_allow_idle_cores(self, paper_machine):
        # Purely memory-bound workload: beyond saturation extra threads
        # add nothing, so partial allocations tie with full ones.
        apps = [AppSpec.memory_bound("m", 0.5)]
        res = ExhaustiveSearch(require_full=False).search(
            paper_machine, apps
        )
        assert res.score == pytest.approx(64.0)


class TestGreedy:
    def test_matches_exhaustive_on_paper_workload(
        self, paper_machine, paper_apps
    ):
        ex = ExhaustiveSearch().search(paper_machine, paper_apps)
        gr = GreedySearch().search(paper_machine, paper_apps)
        assert gr.score == pytest.approx(ex.score)

    def test_trajectory_monotone(self, paper_machine, paper_apps):
        res = GreedySearch().search(paper_machine, paper_apps)
        assert list(res.trajectory) == sorted(res.trajectory)

    def test_fills_machine(self, paper_machine, paper_apps):
        res = GreedySearch().search(paper_machine, paper_apps)
        assert res.allocation.total_threads == paper_machine.total_cores


class TestHillClimb:
    def test_improves_on_even_start(self, paper_machine, paper_apps):
        start = EvenSharePolicy().allocate(paper_machine, paper_apps)
        base = NumaPerformanceModel().predict(
            paper_machine, paper_apps, start
        )
        res = HillClimbSearch().search(
            paper_machine, paper_apps, start=start
        )
        assert res.score >= base.total_gflops
        assert res.score == pytest.approx(320.0)

    def test_respects_max_rounds(self, paper_machine, paper_apps):
        res = HillClimbSearch(max_rounds=1).search(
            paper_machine, paper_apps
        )
        assert len(res.trajectory) <= 2


class TestAnnealing:
    def test_deterministic_under_seed(self, paper_machine, paper_apps):
        a = AnnealingSearch(steps=300, seed=7).search(
            paper_machine, paper_apps
        )
        b = AnnealingSearch(steps=300, seed=7).search(
            paper_machine, paper_apps
        )
        assert a.score == b.score
        assert a.allocation.as_mapping() == b.allocation.as_mapping()

    def test_reaches_near_optimum(self, paper_machine, paper_apps):
        res = AnnealingSearch(steps=1500, seed=3).search(
            paper_machine, paper_apps
        )
        assert res.score >= 300.0  # within ~6% of 320

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            AnnealingSearch(steps=0)
        with pytest.raises(ModelError):
            AnnealingSearch(cooling=1.5)
        # A temperature that cannot cool: zero divides by zero at the
        # first worsening move, a negative one accepts every worsening
        # move (or overflows exp), NaN never accepts one, inf never cools.
        for temperature in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ModelError):
                AnnealingSearch(initial_temperature=temperature)


class TestObjectives:
    def test_total_gflops(self, paper_machine, paper_apps):
        alloc = EvenSharePolicy().allocate(paper_machine, paper_apps)
        pred = NumaPerformanceModel().predict(
            paper_machine, paper_apps, alloc
        )
        assert total_gflops(pred) == pytest.approx(140.0)
        assert min_app_gflops(pred) == pytest.approx(20.0)
        w = weighted_gflops({"comp": 2.0})
        assert w(pred) == pytest.approx(140.0 + 80.0)

    def test_weighted_defaults_missing_names_to_one(
        self, paper_machine, paper_apps
    ):
        alloc = EvenSharePolicy().allocate(paper_machine, paper_apps)
        pred = NumaPerformanceModel().predict(
            paper_machine, paper_apps, alloc
        )
        # No weights at all: identical to the plain total.
        assert weighted_gflops({})(pred) == pytest.approx(
            total_gflops(pred)
        )
        # Names that match no app are simply ignored.
        assert weighted_gflops({"ghost": 99.0})(pred) == pytest.approx(
            total_gflops(pred)
        )

    def test_changing_the_weights_later_changes_no_answer(
        self, paper_machine, paper_apps
    ):
        # The score cache keeps a whole space's winner under the
        # objective, so the objective must not read the caller's dict.
        weights = {"mem0": 100.0, "mem1": 100.0, "mem2": 100.0, "comp": 0.01}
        objective = weighted_gflops(weights)
        model = NumaPerformanceModel()
        first = ExhaustiveSearch(model, objective).search(
            paper_machine, paper_apps
        )
        weights["comp"] = 1000.0
        again = ExhaustiveSearch(model, objective).search(
            paper_machine, paper_apps
        )
        uncached = ExhaustiveSearch(
            NumaPerformanceModel(cache_size=0), objective
        ).search(paper_machine, paper_apps)
        assert first.allocation.threads_of("comp").sum() == 0
        for result in (again, uncached):
            assert result.allocation.as_mapping() == (
                first.allocation.as_mapping()
            )
            assert result.score == first.score
        # The new weights, in a new objective, do change the answer.
        reweighted = ExhaustiveSearch(
            model, weighted_gflops(weights)
        ).search(paper_machine, paper_apps)
        assert reweighted.allocation.threads_of("comp").sum() > 0

    def test_min_app_gflops_single_app(self, paper_machine):
        apps = [AppSpec.compute_bound("solo")]
        alloc = EvenSharePolicy().allocate(paper_machine, apps)
        pred = NumaPerformanceModel().predict(paper_machine, apps, alloc)
        assert min_app_gflops(pred) == pytest.approx(total_gflops(pred))


class TestObjectiveBatched:
    """The vectorised ``.batched`` forms agree with the scalar calls."""

    @pytest.mark.parametrize(
        "objective",
        [
            total_gflops,
            min_app_gflops,
            weighted_gflops({"comp": 2.0, "ghost": 5.0}),
        ],
        ids=["total", "min", "weighted"],
    )
    def test_matches_scalar(self, objective, paper_machine, paper_apps):
        import numpy as np

        from repro.core.allocation import ThreadAllocation
        from repro.core.candidates import symmetric_counts_tensor

        model = NumaPerformanceModel()
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        scores = objective.batched(
            model.predict_scores(paper_machine, paper_apps, counts),
            paper_apps,
        )
        names = tuple(a.name for a in paper_apps)
        for b in range(0, len(counts), 16):
            pred = model.predict(
                paper_machine,
                paper_apps,
                ThreadAllocation(app_names=names, counts=counts[b]),
            )
            assert scores[b] == pytest.approx(objective(pred), abs=1e-9)
        assert scores.shape == (len(counts),)
        assert isinstance(scores, np.ndarray)


class TestGreedyResultIsolation:
    """Regression: greedy's scratch counts buffer must not leak into the
    returned allocation (the result must stay fixed if the buffer is
    reused afterwards)."""

    @pytest.mark.parametrize("use_fast", [False, True])
    def test_result_counts_are_detached_and_frozen(
        self, use_fast, paper_machine, paper_apps
    ):
        search = GreedySearch(use_fast=use_fast)
        first = search.search(paper_machine, paper_apps)
        snapshot = first.allocation.counts.copy()
        # A second search reuses the same code path and scratch logic;
        # the first result must be unaffected.
        search.search(paper_machine, paper_apps)
        assert (first.allocation.counts == snapshot).all()
        with pytest.raises(ValueError):
            first.allocation.counts[0, 0] = 99
