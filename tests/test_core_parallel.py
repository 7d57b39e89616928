"""Process-parallel scoring: determinism, degradation, pool lifecycle.

The contract under test is byte-identity: for any worker count and any
start method, the pooled scoring path must produce exactly the bytes
the serial kernel produces, and every failure mode must degrade to the
serial path instead of corrupting or crashing a search.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.candidates import CandidateSpace
from repro.core.fasteval import ModelTables, batched_app_gflops
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import (
    ExhaustiveSearch,
    GreedySearch,
    HillClimbSearch,
)
from repro.core import parallel
from repro.core.parallel import (
    DEFAULT_MIN_BATCH,
    WorkerPool,
    chunk_bounds,
    default_workers,
    get_pool,
    parallel_app_gflops,
    pool_stats,
    release_pool,
    shutdown_pools,
)
from repro.errors import OversubscriptionError, ParallelError
from repro.obs import capture

START_METHODS = [
    m
    for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]


@pytest.fixture(autouse=True)
def _clean_pools():
    """Every test starts and ends with an empty pool registry."""
    shutdown_pools()
    yield
    shutdown_pools()


@pytest.fixture
def workload(paper_machine, paper_apps):
    """Tables plus the full 165-candidate symmetric batch."""
    model = NumaPerformanceModel()
    tables = ModelTables.build(
        paper_machine, paper_apps, model.remainder_rule
    )
    counts = CandidateSpace(
        paper_machine, len(paper_apps)
    ).symmetric_tensor()
    return model, tables, counts


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_earlier_chunks(self):
        bounds = chunk_bounds(10, 4)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [3, 3, 2, 2]

    def test_fewer_items_than_workers(self):
        # N < workers: one item per chunk, no empty chunks.
        assert chunk_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_worker_takes_everything(self):
        assert chunk_bounds(7, 1) == [(0, 7)]

    def test_empty_batch(self):
        assert chunk_bounds(0, 4) == []

    @pytest.mark.parametrize("n", [1, 5, 16, 165, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7, 16])
    def test_contiguous_ordered_cover(self, n, workers):
        bounds = chunk_bounds(n, workers)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_errors(self):
        with pytest.raises(ParallelError):
            chunk_bounds(-1, 4)
        with pytest.raises(ParallelError):
            chunk_bounds(10, 0)
        with pytest.raises(ParallelError):
            chunk_bounds(10, -2)


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert default_workers() == 0

    def test_env_sets_count(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "4")
        assert default_workers() == 4

    @pytest.mark.parametrize("value", ["notanint", "-2", ""])
    def test_garbage_is_serial(self, monkeypatch, value):
        monkeypatch.setenv(parallel.WORKERS_ENV, value)
        assert default_workers() == 0

    def test_model_picks_up_env(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        assert NumaPerformanceModel().workers == 3
        assert NumaPerformanceModel(workers=0).workers == 0


class TestKernelParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_to_serial(self, workload, workers):
        model, tables, counts = workload
        serial = batched_app_gflops(tables, counts, model.remainder_rule)
        pooled = parallel_app_gflops(
            tables, counts, model.remainder_rule, workers
        )
        assert pooled is not None
        assert pooled.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("method", START_METHODS)
    def test_start_methods_byte_identical(self, workload, method):
        model, tables, counts = workload
        serial = batched_app_gflops(tables, counts, model.remainder_rule)
        pool = WorkerPool(2, start_method=method)
        try:
            pooled = pool.score(tables, counts, model.remainder_rule)
        finally:
            pool.close()
        assert pooled.tobytes() == serial.tobytes()

    def test_more_workers_than_candidates(self, workload):
        model, tables, counts = workload
        small = counts[:3]
        serial = batched_app_gflops(tables, small, model.remainder_rule)
        pooled = parallel_app_gflops(
            tables, small, model.remainder_rule, 8
        )
        assert pooled.tobytes() == serial.tobytes()

    def test_uneven_batch_byte_identical(self, workload):
        model, tables, counts = workload
        odd = counts[:7]  # 7 % 4 != 0
        serial = batched_app_gflops(tables, odd, model.remainder_rule)
        pooled = parallel_app_gflops(tables, odd, model.remainder_rule, 4)
        assert pooled.tobytes() == serial.tobytes()

    def test_empty_batch_skips_the_pool(self, workload):
        model, tables, counts = workload
        pool = WorkerPool(2)
        try:
            out = pool.score(
                tables, counts[:0], model.remainder_rule
            )
            assert out.shape == (0, tables.intensity.shape[0])
            # Nothing to score: the pool must not even spawn.
            assert pool.generation == 0
            assert not pool.alive
        finally:
            pool.close()

    def test_oversubscription_raises_like_serial(self, workload):
        model, tables, counts = workload
        bad = counts.copy()
        bad[0, 0, 0] = 100  # node 0 has 8 cores
        pool = WorkerPool(2)
        try:
            with pytest.raises(OversubscriptionError):
                pool.score(tables, bad, model.remainder_rule)
            with pytest.raises(OversubscriptionError):
                batched_app_gflops(tables, bad, model.remainder_rule)
        finally:
            pool.close()

    def test_repeated_calls_reuse_the_processes(self, workload):
        model, tables, counts = workload
        pool = WorkerPool(2)
        try:
            first = pool.score(tables, counts, model.remainder_rule)
            second = pool.score(tables, counts, model.remainder_rule)
            assert pool.generation == 1
            assert pool.calls == 2
            assert first.tobytes() == second.tobytes()
        finally:
            pool.close()


class TestSearchDeterminism:
    @pytest.fixture
    def serial_results(self, paper_machine, paper_apps):
        return {
            name: cls(model=NumaPerformanceModel(workers=0)).search(
                paper_machine, paper_apps
            )
            for name, cls in [
                ("exhaustive", ExhaustiveSearch),
                ("greedy", GreedySearch),
                ("hillclimb", HillClimbSearch),
            ]
        }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("exhaustive", ExhaustiveSearch),
            ("greedy", GreedySearch),
            ("hillclimb", HillClimbSearch),
        ],
    )
    def test_searches_byte_identical(
        self, paper_machine, paper_apps, serial_results, workers, name, cls
    ):
        model = NumaPerformanceModel(
            workers=workers, parallel_min_batch=1
        )
        res = cls(model=model).search(paper_machine, paper_apps)
        serial = serial_results[name]
        assert res.score == serial.score
        assert (
            res.allocation.counts.tobytes()
            == serial.allocation.counts.tobytes()
        )
        assert res.evaluations == serial.evaluations

    @pytest.mark.parametrize("method", START_METHODS)
    def test_exhaustive_identical_under_both_start_methods(
        self, paper_machine, paper_apps, serial_results, method
    ):
        # Pre-seed the registry so the search routes through a pool
        # using this start method.
        assert get_pool(2, start_method=method) is not None
        model = NumaPerformanceModel(workers=2, parallel_min_batch=1)
        res = ExhaustiveSearch(model=model).search(
            paper_machine, paper_apps
        )
        serial = serial_results["exhaustive"]
        assert res.score == serial.score
        assert (
            res.allocation.counts.tobytes()
            == serial.allocation.counts.tobytes()
        )

    def test_min_batch_keeps_small_rounds_serial(
        self, paper_machine, paper_apps
    ):
        model = NumaPerformanceModel(workers=2)  # default min batch
        assert model.parallel_min_batch == DEFAULT_MIN_BATCH
        ExhaustiveSearch(model=model).search(paper_machine, paper_apps)
        # 165 candidates < DEFAULT_MIN_BATCH: no pool was ever spawned.
        assert 2 not in pool_stats()

    def test_cache_merges_parallel_rows(self, paper_machine, paper_apps):
        model = NumaPerformanceModel(workers=2, parallel_min_batch=1)
        space = CandidateSpace(paper_machine, len(paper_apps))
        counts = space.symmetric_tensor()
        first = model.predict_scores(paper_machine, paper_apps, counts)
        second = model.predict_scores(paper_machine, paper_apps, counts)
        assert first.tobytes() == second.tobytes()
        # The winner of the rows the pool scored is cached as one
        # whole-space entry: the same search again is one hit.
        cold = ExhaustiveSearch(model=model).search(paper_machine, paper_apps)
        with capture() as cap:
            warm = ExhaustiveSearch(model=model).search(
                paper_machine, paper_apps
            )
        assert warm.allocation.as_mapping() == cold.allocation.as_mapping()
        assert cap.metrics.counter("model/cache_hits").value == len(counts)
        assert cap.metrics.counter("model/cache_misses").value == 0


class TestDegradation:
    def test_no_shared_memory_falls_back(self, workload, monkeypatch):
        model, tables, counts = workload
        monkeypatch.setattr(
            parallel, "shared_memory_available", lambda: False
        )
        with capture() as cap:
            pooled = parallel_app_gflops(
                tables, counts, model.remainder_rule, 4
            )
        assert pooled is None
        assert cap.metrics.counter("parallel/fallbacks").value == 1

    def test_search_survives_missing_shared_memory(
        self, paper_machine, paper_apps, monkeypatch
    ):
        serial = ExhaustiveSearch(
            model=NumaPerformanceModel(workers=0)
        ).search(paper_machine, paper_apps)
        monkeypatch.setattr(
            parallel, "shared_memory_available", lambda: False
        )
        model = NumaPerformanceModel(workers=4, parallel_min_batch=1)
        res = ExhaustiveSearch(model=model).search(
            paper_machine, paper_apps
        )
        assert res.score == serial.score
        assert (
            res.allocation.counts.tobytes()
            == serial.allocation.counts.tobytes()
        )

    def test_worker_death_falls_back(self, workload):
        model, tables, counts = workload
        pool = get_pool(2)
        assert (
            pool.score(tables, counts, model.remainder_rule) is not None
        )
        for proc in pool._procs:
            proc.terminate()
            proc.join()
        with capture() as cap:
            pooled = parallel_app_gflops(
                tables, counts, model.remainder_rule, 2
            )
        # get_pool saw the dead pool was not closed yet, handed it out,
        # score() detected the dead workers and the caller fell back.
        assert pooled is None
        assert cap.metrics.counter("parallel/fallbacks").value == 1
        assert pool.closed  # score() closed the broken pool

    def test_registry_replaces_a_crashed_pool(self, workload):
        model, tables, counts = workload
        first = get_pool(2)
        first.score(tables, counts, model.remainder_rule)
        for proc in first._procs:
            proc.terminate()
            proc.join()
        assert parallel_app_gflops(
            tables, counts, model.remainder_rule, 2
        ) is None
        # Next request gets a fresh pool that works again.
        serial = batched_app_gflops(tables, counts, model.remainder_rule)
        pooled = parallel_app_gflops(
            tables, counts, model.remainder_rule, 2
        )
        assert pooled is not None
        assert pooled.tobytes() == serial.tobytes()
        assert get_pool(2) is not first

    def test_closed_pool_refuses_to_score(self, workload):
        model, tables, counts = workload
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(ParallelError):
            pool.score(tables, counts, model.remainder_rule)


class TestPoolRegistry:
    def test_zero_workers_means_no_pool(self):
        assert get_pool(0) is None
        assert get_pool(-1) is None

    def test_pool_is_shared_per_worker_count(self):
        assert get_pool(2) is get_pool(2)
        assert get_pool(2) is not get_pool(3)

    def test_release_closes_and_drops(self, workload):
        model, tables, counts = workload
        pool = get_pool(2)
        pool.score(tables, counts, model.remainder_rule)
        release_pool(2)
        assert pool.closed
        assert 2 not in pool_stats()

    def test_shutdown_closes_everything(self):
        pools = [get_pool(2), get_pool(3)]
        shutdown_pools()
        assert pool_stats() == {}
        assert all(p.closed for p in pools)

    def test_stats_schema(self, workload):
        model, tables, counts = workload
        pool = get_pool(2)
        pool.score(tables, counts, model.remainder_rule)
        stats = pool_stats()[2]
        assert stats == {"generation": 1, "calls": 1, "alive": True}


class TestObservability:
    def test_metrics_and_span(self, workload):
        model, tables, counts = workload
        with capture() as cap:
            pool = get_pool(2)
            pooled = pool.score(tables, counts, model.remainder_rule)
            snap_live = cap.metrics.snapshot()
            release_pool(2)
        assert pooled is not None
        assert snap_live["gauge/parallel/workers"] == 2
        snap = cap.metrics.snapshot()
        assert snap["gauge/parallel/workers"] == 0  # released
        assert snap["counter/parallel/chunks"] == 2
        assert snap["hist/parallel/chunk_ms/count"] == 2
        spans = cap.tracer.filter(name="parallel/search")
        assert len(spans) == 1
        assert spans[0].attrs["workers"] == 2
        assert spans[0].attrs["evaluations"] == len(counts)
        assert spans[0].attrs["chunks"] == 2

    def test_search_span_nests_parallel_span(
        self, paper_machine, paper_apps
    ):
        model = NumaPerformanceModel(workers=2, parallel_min_batch=1)
        with capture() as cap:
            ExhaustiveSearch(model=model).search(
                paper_machine, paper_apps
            )
        assert cap.tracer.filter(name="optimizer/exhaustive")
        assert cap.tracer.filter(name="parallel/search")
