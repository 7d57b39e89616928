"""The batched/cached evaluation engine: parity, caching, search paths."""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import model as model_module
from repro.core.allocation import ThreadAllocation
from repro.core.bwshare import RemainderRule
from repro.core.candidates import (
    CandidateSpace,
    enumerate_symmetric_allocations,
    is_symmetric_tensor,
    symmetric_counts_tensor,
)
from repro.core.delta import DeltaSearch
from repro.core.fasteval import (
    FastEvaluator,
    ModelTables,
    ScoreCache,
    as_counts_batch,
    batched_app_gflops,
    row_keys,
    workload_fingerprint,
)
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import (
    AnnealingSearch,
    ExhaustiveSearch,
    GreedySearch,
    HillClimbSearch,
    ScalarEvaluator,
    min_app_gflops,
    total_gflops,
    weighted_gflops,
)
from repro.core.spec import AppSpec, Placement
from repro.errors import ModelError, OversubscriptionError
from repro.machine import model_machine
from repro.machine.topology import MachineTopology
from repro.obs import OBS, capture


def random_workload(rng: np.random.Generator):
    """One random (machine, apps) pair covering every placement."""
    n_nodes = int(rng.integers(1, 5))
    cores = int(rng.integers(1, 7))
    machine = MachineTopology.homogeneous(
        num_nodes=n_nodes,
        cores_per_node=cores,
        peak_gflops_per_core=float(rng.uniform(1.0, 20.0)),
        local_bandwidth=float(rng.uniform(5.0, 100.0)),
        remote_bandwidth=float(rng.uniform(1.0, 30.0)),
        name=f"fuzz-{n_nodes}x{cores}",
    )
    apps = []
    for a in range(int(rng.integers(1, 5))):
        placement = [
            Placement.NUMA_PERFECT,
            Placement.SINGLE_NODE,
            Placement.INTERLEAVED,
        ][int(rng.integers(3))]
        apps.append(
            AppSpec(
                name=f"app{a}",
                arithmetic_intensity=float(rng.uniform(0.05, 12.0)),
                placement=placement,
                home_node=(
                    int(rng.integers(n_nodes))
                    if placement is Placement.SINGLE_NODE
                    else None
                ),
                peak_gflops_per_thread=(
                    float(rng.uniform(0.5, 15.0))
                    if rng.random() < 0.3
                    else None
                ),
            )
        )
    return machine, apps


def random_counts(rng, machine, n_apps, batch):
    """A ``(batch, apps, nodes)`` tensor with no over-subscribed node."""
    counts = np.zeros((batch, n_apps, machine.num_nodes), dtype=np.int64)
    for b in range(batch):
        for node in machine.nodes:
            budget = int(rng.integers(node.num_cores + 1))
            for _ in range(budget):
                counts[b, int(rng.integers(n_apps)), node.node_id] += 1
    return counts


class TestBatchedParity:
    @pytest.mark.parametrize("rule", list(RemainderRule))
    def test_matches_scalar_model_on_random_workloads(self, rule):
        rng = np.random.default_rng(1234 + (rule is RemainderRule.EVEN))
        for _ in range(40):
            machine, apps = random_workload(rng)
            model = NumaPerformanceModel(rule)
            counts = random_counts(rng, machine, len(apps), batch=8)
            batched = model.predict_scores(machine, apps, counts)
            names = tuple(a.name for a in apps)
            for b in range(len(counts)):
                pred = model.predict(
                    machine,
                    apps,
                    ThreadAllocation(app_names=names, counts=counts[b]),
                )
                scalar = np.array([a.gflops for a in pred.apps])
                assert np.max(np.abs(batched[b] - scalar)) <= 1e-9

    @pytest.mark.parametrize("rule", list(RemainderRule))
    def test_matches_scalar_on_paper_workload(
        self, rule, paper_machine, paper_apps
    ):
        model = NumaPerformanceModel(rule)
        names = tuple(a.name for a in paper_apps)
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        batched = model.predict_scores(paper_machine, paper_apps, counts)
        for b in range(len(counts)):
            pred = model.predict(
                paper_machine,
                paper_apps,
                ThreadAllocation(app_names=names, counts=counts[b]),
            )
            assert batched[b].sum() == pytest.approx(
                pred.total_gflops, abs=1e-9
            )

    def test_oversubscription_rejected(self, paper_machine, paper_apps):
        model = NumaPerformanceModel()
        bad = np.zeros((1, 4, 4), dtype=np.int64)
        bad[0, 0, 0] = 9  # node 0 has 8 cores
        with pytest.raises(OversubscriptionError):
            model.predict_scores(paper_machine, paper_apps, bad)


class TestAsCountsBatch:
    def test_accepts_every_input_form(self, paper_machine, paper_apps):
        names = tuple(a.name for a in paper_apps)
        alloc = ThreadAllocation.uniform(names, 4, 2)
        single = as_counts_batch(alloc, 4, 4)
        assert single.shape == (1, 4, 4)
        seq = as_counts_batch([alloc, alloc], 4, 4)
        assert seq.shape == (2, 4, 4)
        matrix = as_counts_batch(np.full((4, 4), 2), 4, 4)
        assert np.array_equal(matrix, single)
        tensor = as_counts_batch(np.full((3, 4, 4), 2), 4, 4)
        assert tensor.shape == (3, 4, 4)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ModelError):
            as_counts_batch(np.zeros((2, 3, 5), dtype=np.int64), 3, 4)
        with pytest.raises(ModelError):
            as_counts_batch([], 3, 4)
        with pytest.raises(ModelError):
            as_counts_batch(np.full((1, 2, 2), 1.5), 2, 2)
        with pytest.raises(ModelError):
            as_counts_batch(np.full((1, 2, 2), -1, dtype=np.int64), 2, 2)

    def test_float_integers_are_accepted(self):
        out = as_counts_batch(np.full((1, 2, 2), 2.0), 2, 2)
        assert out.dtype == np.int64
        assert np.all(out == 2)

    @pytest.mark.parametrize(
        "value", [2.00001, 1e6 + 0.4, np.inf, -np.inf, np.nan, 1e30]
    )
    def test_non_integers_are_rejected(self, value):
        # Values a relative tolerance would round: the check is exact.
        with pytest.raises(ModelError, match="must be integers"):
            as_counts_batch(np.full((1, 2, 2), value), 2, 2)


class TestSymmetricCountsTensor:
    def test_matches_enumeration_order(self, paper_machine, paper_apps):
        tensor = symmetric_counts_tensor(paper_machine, len(paper_apps))
        allocs = list(
            enumerate_symmetric_allocations(paper_machine, paper_apps)
        )
        assert len(tensor) == len(allocs) == 165
        for row, alloc in zip(tensor, allocs):
            assert np.array_equal(row, alloc.counts)

    def test_partial_occupation(self, paper_machine, paper_apps):
        full = symmetric_counts_tensor(paper_machine, len(paper_apps))
        partial = symmetric_counts_tensor(
            paper_machine, len(paper_apps), require_full=False
        )
        assert len(partial) > len(full)


class TestScoreCache:
    def test_hit_miss_accounting_and_lru_eviction(self):
        cache = ScoreCache(maxsize=2)
        cache.put(("a",), np.array([1.0]))
        cache.put(("b",), np.array([2.0]))
        assert cache.get(("a",)) is not None  # refreshes "a"
        cache.put(("c",), np.array([3.0]))  # evicts "b", the LRU
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.get(("c",)) is not None
        assert cache.hits == 3 and cache.misses == 1
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rows_are_read_only(self):
        cache = ScoreCache()
        cache.put(("k",), np.array([1.0, 2.0]))
        row = cache.get(("k",))
        with pytest.raises(ValueError):
            row[0] = 9.0

    def test_invalid_maxsize(self):
        with pytest.raises(ModelError):
            ScoreCache(maxsize=0)


class _PerRowLRU:
    """The cache's reference semantics: one dict operation per row."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.data = OrderedDict()

    def get(self, key):
        row = self.data.get(key)
        if row is None:
            self.misses += 1
            return None
        self.data.move_to_end(key)
        self.hits += 1
        return row

    def put(self, key, row):
        self.data[key] = row
        self.data.move_to_end(key)
        while len(self.data) > self.maxsize:
            self.data.popitem(last=False)


def _row_value(workload, row):
    return np.array([float(row), float(len(workload)), 0.5])


#: Batches over two workloads and a handful of rows: repeats inside a
#: batch, hits from earlier batches and evictions all happen often.
_batches = st.lists(
    st.tuples(
        st.sampled_from(["w", "ww"]),
        st.lists(st.integers(0, 6), min_size=1, max_size=10),
    ),
    min_size=1,
    max_size=8,
)


class TestBatchedRoundTrip:
    """``lookup`` + ``store`` of a batch behave exactly like a ``get``
    of every row followed by a ``put`` of every miss."""

    @staticmethod
    def _round_trip(cache, workload, rows):
        missed, found = cache.lookup((workload,), rows)
        values = np.array([_row_value(workload, rows[i]) for i in missed])
        if missed:
            cache.store((workload,), [rows[i] for i in missed], values)
        out, hits, misses = [], iter(found), iter(values)
        for i in range(len(rows)):
            out.append(next(misses) if i in missed else next(hits))
        return out

    @staticmethod
    def _per_row(cache, workload, rows):
        out = [cache.get((workload, row)) for row in rows]
        for row, value in zip(rows, out):
            if value is None:
                cache.put((workload, row), _row_value(workload, row))
        return [
            _row_value(workload, row) if value is None else value
            for row, value in zip(rows, out)
        ]

    @settings(max_examples=200, deadline=None)
    @given(maxsize=st.integers(1, 12), batches=_batches)
    def test_batches_match_per_row_get_and_put(self, maxsize, batches):
        batched = ScoreCache(maxsize)
        per_row = ScoreCache(maxsize)
        reference = _PerRowLRU(maxsize)
        for workload, rows in batches:
            got = self._round_trip(batched, workload, rows)
            one_by_one = self._per_row(per_row, workload, rows)
            want = self._per_row(reference, workload, rows)
            for a, b, c in zip(got, one_by_one, want):
                assert np.array_equal(a, c) and np.array_equal(b, c)
            assert batched.keys() == per_row.keys() == list(reference.data)
            assert len(batched) == len(reference.data) <= maxsize
        assert (batched.hits, batched.misses) == (
            reference.hits,
            reference.misses,
        )
        assert (per_row.hits, per_row.misses) == (
            reference.hits,
            reference.misses,
        )

    def test_prefixes_without_rows_are_dropped(self):
        cache = ScoreCache(maxsize=2)
        cache.store(("old",), [1, 2], np.zeros((2, 1)))
        cache.store(("new",), [1, 2], np.ones((2, 1)))
        assert cache.keys() == [("new", 1), ("new", 2)]
        assert list(cache._prefixes) == [("new",)]
        assert cache.get(("old", 1)) is None

    def test_stored_rows_are_read_only(self):
        cache = ScoreCache()
        cache.store(("w",), [b"a", b"b"], np.arange(4.0).reshape(2, 2))
        _, (row,) = cache.lookup(("w",), [b"b"])
        assert np.array_equal(row, [2.0, 3.0])
        with pytest.raises(ValueError):
            row[0] = 9.0

    def test_row_keys_are_the_rows_bytes(self):
        counts = np.arange(24, dtype=np.int64).reshape(3, 2, 4)
        assert row_keys(counts) == [c.tobytes() for c in counts]
        assert row_keys(counts[:, :, ::2]) == [
            c.tobytes() for c in counts[:, :, ::2]
        ]
        assert row_keys(counts[:0]) == []


class TestModelCache:
    def test_second_call_is_all_hits(self, paper_machine, paper_apps):
        model = NumaPerformanceModel()
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        first = model.predict_scores(paper_machine, paper_apps, counts)
        assert model.cache.misses == len(counts)
        second = model.predict_scores(paper_machine, paper_apps, counts)
        assert model.cache.hits == len(counts)
        assert np.array_equal(first, second)

    def test_cache_can_be_disabled(self, paper_machine, paper_apps):
        model = NumaPerformanceModel(cache_size=0)
        assert model.cache is None
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        out = model.predict_scores(paper_machine, paper_apps, counts)
        assert out.shape == (len(counts), len(paper_apps))

    def test_same_name_different_machine_does_not_alias(self, paper_apps):
        """Two machines sharing a name must not share cached scores."""
        fast = MachineTopology.homogeneous(
            num_nodes=2,
            cores_per_node=4,
            peak_gflops_per_core=10.0,
            local_bandwidth=32.0,
            remote_bandwidth=8.0,
            name="twin",
        )
        slow = MachineTopology.homogeneous(
            num_nodes=2,
            cores_per_node=4,
            peak_gflops_per_core=10.0,
            local_bandwidth=16.0,
            remote_bandwidth=8.0,
            name="twin",
        )
        apps = [AppSpec.memory_bound("mem", 0.5)]
        counts = np.full((1, 1, 2), 4, dtype=np.int64)
        model = NumaPerformanceModel()
        a = model.predict_scores(fast, apps, counts)
        b = model.predict_scores(slow, apps, counts)
        assert a.sum() > b.sum()

    def test_rule_is_part_of_the_fingerprint(self, paper_machine, paper_apps):
        key_p = workload_fingerprint(
            paper_machine, paper_apps, RemainderRule.PROPORTIONAL
        )
        key_e = workload_fingerprint(
            paper_machine, paper_apps, RemainderRule.EVEN
        )
        assert key_p != key_e

    def test_obs_counters(self, paper_machine, paper_apps):
        model = NumaPerformanceModel()
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        with capture() as cap:
            model.predict_scores(paper_machine, paper_apps, counts)
            model.predict_scores(paper_machine, paper_apps, counts)
        metrics = cap.metrics
        assert (
            metrics.counter("model/batched_evaluations").value
            == 2 * len(counts)
        )
        assert metrics.counter("model/cache_misses").value == len(counts)
        assert metrics.counter("model/cache_hits").value == len(counts)
        assert not OBS.enabled


class TestModelTables:
    def test_built_once_per_workload(self, paper_machine, paper_apps):
        model = NumaPerformanceModel()
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        model.predict_scores(paper_machine, paper_apps, counts[:3])
        tables = list(model._tables.values())
        model.predict_scores(paper_machine, paper_apps, counts[3:6])
        assert list(model._tables.values()) == tables

    def test_direct_build_matches_model(self, paper_machine, paper_apps):
        tables = ModelTables.build(
            paper_machine, paper_apps, RemainderRule.PROPORTIONAL
        )
        counts = symmetric_counts_tensor(paper_machine, len(paper_apps))
        direct = batched_app_gflops(
            tables, counts, RemainderRule.PROPORTIONAL
        )
        via_model = NumaPerformanceModel().predict_scores(
            paper_machine, paper_apps, counts
        )
        assert np.allclose(direct, via_model, atol=1e-12)


class TestSearchFastPath:
    @pytest.mark.parametrize("rule", list(RemainderRule))
    @pytest.mark.parametrize(
        "objective",
        [total_gflops, min_app_gflops, weighted_gflops({"mem0": 2.0})],
        ids=["total", "min", "weighted"],
    )
    @pytest.mark.parametrize(
        "search_cls", [ExhaustiveSearch, GreedySearch, HillClimbSearch]
    )
    def test_deterministic_searches_match_scalar_path(
        self, rule, objective, search_cls, paper_machine, paper_apps
    ):
        fast = search_cls(
            NumaPerformanceModel(rule), objective, use_fast=True
        ).search(paper_machine, paper_apps)
        scalar = search_cls(
            NumaPerformanceModel(rule), objective, use_fast=False
        ).search(paper_machine, paper_apps)
        assert fast.evaluations == scalar.evaluations
        assert (
            fast.allocation.as_mapping() == scalar.allocation.as_mapping()
        )
        assert fast.score == pytest.approx(scalar.score, abs=1e-9)
        assert len(fast.trajectory) == len(scalar.trajectory)
        assert np.allclose(fast.trajectory, scalar.trajectory, atol=1e-9)

    def test_exhaustive_pinned_result(self, paper_machine, paper_apps):
        """The acceptance pin: same best allocation/score as the scalar
        path on the paper workload, 165 evaluations."""
        result = ExhaustiveSearch().search(paper_machine, paper_apps)
        assert result.evaluations == 165
        assert result.score == pytest.approx(320.0)

    def test_annealing_fast_path_is_deterministic_and_sound(
        self, paper_machine, paper_apps
    ):
        a = AnnealingSearch(steps=400, seed=11).search(
            paper_machine, paper_apps
        )
        b = AnnealingSearch(steps=400, seed=11).search(
            paper_machine, paper_apps
        )
        assert a.score == b.score
        assert a.allocation.as_mapping() == b.allocation.as_mapping()
        # The reported score is the scalar model's on the returned
        # allocation, whichever path produced it.
        check = NumaPerformanceModel().predict(
            paper_machine, paper_apps, a.allocation
        )
        assert a.score == pytest.approx(check.total_gflops, abs=1e-9)

    def test_custom_objective_falls_back_to_scalar_path(
        self, paper_machine, paper_apps
    ):
        def bandwidth_objective(prediction):
            return sum(a.bandwidth for a in prediction.apps)

        search = ExhaustiveSearch(
            NumaPerformanceModel(), bandwidth_objective
        )
        assert isinstance(
            search._evaluator(paper_machine, paper_apps), ScalarEvaluator
        )
        result = search.search(paper_machine, paper_apps)
        reference = ExhaustiveSearch(
            NumaPerformanceModel(), bandwidth_objective, use_fast=False
        ).search(paper_machine, paper_apps)
        assert result.evaluations == reference.evaluations == 165
        assert result.score == pytest.approx(reference.score)
        assert (
            result.allocation.as_mapping()
            == reference.allocation.as_mapping()
        )

    def test_fast_evaluator_create(self, paper_machine, paper_apps):
        model = NumaPerformanceModel()
        assert (
            FastEvaluator.create(
                model, paper_machine, paper_apps, total_gflops
            )
            is not None
        )
        assert (
            FastEvaluator.create(
                model, paper_machine, paper_apps, lambda p: 0.0
            )
            is None
        )

    @pytest.mark.parametrize(
        "search_cls", [ExhaustiveSearch, GreedySearch, HillClimbSearch]
    )
    def test_random_workload_search_parity(self, search_cls):
        rng = np.random.default_rng(77)
        for _ in range(5):
            machine, apps = random_workload(rng)
            if sum(machine.cores_per_node) == 0:
                continue
            fast = search_cls(NumaPerformanceModel()).search(machine, apps)
            scalar = search_cls(
                NumaPerformanceModel(), use_fast=False
            ).search(machine, apps)
            assert (
                fast.allocation.as_mapping()
                == scalar.allocation.as_mapping()
            )
            assert fast.score == pytest.approx(scalar.score, abs=1e-9)
            assert fast.evaluations == scalar.evaluations

    def test_obs_evaluation_counter_matches_batched_result(
        self, paper_machine, paper_apps
    ):
        with capture() as cap:
            result = ExhaustiveSearch().search(paper_machine, paper_apps)
        assert (
            cap.metrics.counter("optimizer/evaluations").value
            == result.evaluations
            == 165
        )
        assert cap.metrics.gauge("optimizer/best_score").value == (
            pytest.approx(result.score)
        )


_MACHINE = model_machine()


class TestFingerprintProperties:
    """Property-based guarantees on the cache key: fingerprints agree
    exactly when the ordered (machine, specs, rule) triples agree, and
    a permuted workload gets a distinct key while its scores are the
    same set of numbers."""

    @staticmethod
    @st.composite
    def app_lists(draw):
        n = draw(st.integers(min_value=1, max_value=4))
        apps = []
        for i in range(n):
            ai = draw(
                st.floats(
                    min_value=0.1,
                    max_value=50.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            kind = draw(st.sampled_from(["mem", "comp", "bad"]))
            name = f"{kind}{i}"
            if kind == "mem":
                apps.append(AppSpec.memory_bound(name, ai))
            elif kind == "comp":
                apps.append(AppSpec.compute_bound(name, ai))
            else:
                apps.append(AppSpec.numa_bad(name, ai, home_node=0))
        return apps

    @settings(max_examples=50, deadline=None)
    @given(apps=app_lists(), rule=st.sampled_from(list(RemainderRule)))
    def test_fingerprint_is_deterministic(self, apps, rule):
        a = workload_fingerprint(_MACHINE, apps, rule)
        b = workload_fingerprint(_MACHINE, list(apps), rule)
        assert a == b
        assert hash(a) == hash(b)

    @settings(max_examples=50, deadline=None)
    @given(apps=app_lists(), rule=st.sampled_from(list(RemainderRule)))
    def test_equal_spec_tuples_equal_fingerprints(
        self, apps, rule
    ):
        rebuilt = [
            AppSpec(
                name=a.name,
                arithmetic_intensity=a.arithmetic_intensity,
                placement=a.placement,
                home_node=a.home_node,
                peak_gflops_per_thread=a.peak_gflops_per_thread,
            )
            for a in apps
        ]
        assert workload_fingerprint(
            _MACHINE, rebuilt, rule
        ) == workload_fingerprint(_MACHINE, apps, rule)

    @settings(max_examples=50, deadline=None)
    @given(apps=app_lists(), data=st.data())
    def test_permuted_workload_distinct_key_same_scores(
        self, apps, data
    ):
        assume(len(apps) >= 2)
        permutation = data.draw(st.permutations(range(len(apps))))
        assume(list(permutation) != list(range(len(apps))))
        shuffled = [apps[i] for i in permutation]
        rule = RemainderRule.PROPORTIONAL
        key = workload_fingerprint(_MACHINE, apps, rule)
        key_shuffled = workload_fingerprint(_MACHINE, shuffled, rule)
        # Same spec multiset in a different order: the ordered tuple is
        # part of the key (columns of the cached score rows are
        # positional), so the keys must differ...
        if [a.fingerprint for a in apps] != [
            a.fingerprint for a in shuffled
        ]:
            assert key != key_shuffled
        # ... while the physics is order-independent: the same uniform
        # allocation (one thread of every app on every node) scores
        # identically app-by-app.
        counts = np.ones(
            (1, len(apps), len(_MACHINE.nodes)), dtype=np.int64
        )
        model = NumaPerformanceModel(cache_size=0)
        scores = model.predict_scores(_MACHINE, apps, counts)
        scores_shuffled = model.predict_scores(
            _MACHINE, shuffled, counts
        )
        for idx, app in enumerate(apps):
            jdx = [a.name for a in shuffled].index(app.name)
            assert scores[0, idx] == pytest.approx(
                scores_shuffled[0, jdx], rel=1e-9
            )


_CACHE_APPS = [
    AppSpec.memory_bound("mem", 0.5),
    AppSpec.compute_bound("cpu", 8.0),
    AppSpec.numa_bad("bad", 1.0, home_node=1),
]
_CACHE_SPACE = symmetric_counts_tensor(_MACHINE, len(_CACHE_APPS))
_UNCACHED = NumaPerformanceModel(cache_size=0)
_space_rows = st.lists(
    st.integers(0, len(_CACHE_SPACE) - 1), min_size=1, max_size=24
)


class TestCachedScoresAreExact:
    """Cached ``predict_scores`` output is byte-for-byte the uncached
    kernel's, whichever rows hit."""

    @settings(max_examples=60, deadline=None)
    @given(
        cache_size=st.sampled_from([1, 4, 65536]),
        first=_space_rows,
        fresh=_space_rows,
    )
    def test_all_hit_all_miss_and_mixed_batches(
        self, cache_size, first, fresh
    ):
        model = NumaPerformanceModel(cache_size=cache_size)
        # all miss, then (up to evictions) all hit, then mixed.
        for rows in (first, first, first + fresh):
            counts = _CACHE_SPACE[rows]
            got = model.predict_scores(_MACHINE, _CACHE_APPS, counts)
            want = _UNCACHED.predict_scores(_MACHINE, _CACHE_APPS, counts)
            assert np.array_equal(got, want)
            assert got.flags.writeable

    def test_each_batch_kind_is_exercised(self):
        model = NumaPerformanceModel()
        cache = model.cache
        for rows, hits, misses in (
            ([0, 1, 1], 0, 3),
            ([0, 1, 1], 3, 3),
            ([1, 2], 4, 4),
        ):
            counts = _CACHE_SPACE[rows]
            got = model.predict_scores(_MACHINE, _CACHE_APPS, counts)
            want = _UNCACHED.predict_scores(_MACHINE, _CACHE_APPS, counts)
            assert np.array_equal(got, want)
            assert (cache.hits, cache.misses) == (hits, misses)


#: A machine small enough that a whole space fits a tiny cache: three
#: apps have 15 full and 35 partial symmetric allocations on it.
_SMALL = MachineTopology.homogeneous(
    num_nodes=2,
    cores_per_node=4,
    peak_gflops_per_core=10.0,
    local_bandwidth=32.0,
    remote_bandwidth=8.0,
    name="small",
)
_SMALL_WORKLOADS = (
    [
        AppSpec.memory_bound("mem", 0.5),
        AppSpec.compute_bound("cpu", 8.0),
        AppSpec.numa_bad("bad", 1.0, home_node=1),
    ],
    [
        AppSpec.compute_bound("cpu", 4.0),
        AppSpec(
            name="spread",
            arithmetic_intensity=0.8,
            placement=Placement.INTERLEAVED,
        ),
        AppSpec.memory_bound("mem", 2.0),
    ],
)
_SMALL_SPACE = CandidateSpace(_SMALL, 3)


def _small_space(require_full):
    """The memoised tensor of one small space and its key."""
    return (
        _SMALL_SPACE.symmetric_tensor(require_full=require_full),
        _SMALL_SPACE.symmetric_key(require_full=require_full),
    )


class _WeightedLRU:
    """Reference semantics of row and space entries: one LRU order,
    one tally, a budget of rows with a space weighing its rows."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.data = OrderedDict()  # key -> rows it weighs

    def rows(self):
        return sum(self.data.values())

    def row_keys(self):
        return [key[1:] for key in self.data if key[0] == "row"]

    def space_rows(self):
        return sum(w for key, w in self.data.items() if key[0] == "space")

    def _get(self, key):
        if key in self.data:
            self.data.move_to_end(key)
            return True
        return False

    def _put(self, key, weight):
        if weight > self.maxsize:
            return
        self.data.pop(key, None)
        self.data[key] = weight
        while self.rows() > self.maxsize:
            self.data.popitem(last=False)

    def rows_batch(self, workload, rows):
        missed = []
        for row in rows:
            if self._get(("row", workload, row)):
                self.hits += 1
            else:
                self.misses += 1
                missed.append(row)
        for row in missed:
            self._put(("row", workload, row), 1)

    def space_batch(self, workload, space, rows):
        """Returns whether the space entry hit."""
        if self._get(("space", workload, space)):
            self.hits += len(rows)
            return True
        for row in rows:
            if self._get(("row", workload, row)):
                self.hits += 1
            else:
                self.misses += 1
        self._put(("space", workload, space), len(rows))
        return False


#: (workload, require_full, rows): ``rows=None`` scores the whole space
#: under its key; a row list scores a copy of those rows of the full
#: space, cached row by row.
_mixed_batches = st.lists(
    st.tuples(
        st.sampled_from([0, 1]),
        st.booleans(),
        st.none() | st.lists(st.integers(0, 14), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=10,
)


def _first_best(model, apps, tensor, key):
    """The fast evaluator's whole-space step under ``total_gflops``."""
    return FastEvaluator.create(model, _SMALL, apps, total_gflops).best_row(
        tensor, key
    )


def _unpruned_best(apps, tensor):
    """First argmax of the objective over the uncached kernel."""
    gflops = _UNCACHED.predict_scores(_SMALL, apps, tensor)
    return int(np.argmax(total_gflops.batched(gflops, apps)))


class TestWholeSpaceEntry:
    """A whole-space search is cached as one entry weighing its rows."""

    @settings(max_examples=150, deadline=None)
    @given(maxsize=st.integers(1, 40), batches=_mixed_batches)
    def test_rows_and_spaces_share_one_budget(self, maxsize, batches):
        model = NumaPerformanceModel(cache_size=maxsize)
        uncached = NumaPerformanceModel(cache_size=0)
        cache = model.cache
        reference = _WeightedLRU(maxsize)
        prefixes = [
            (workload_fingerprint(_SMALL, w, model.remainder_rule),)
            for w in _SMALL_WORKLOADS
        ]
        kernel = mock.patch.object(
            model_module,
            "batched_app_gflops",
            wraps=model_module.batched_app_gflops,
        )
        with kernel as calls:
            for workload, require_full, rows in batches:
                apps = _SMALL_WORKLOADS[workload]
                tensor, key = _small_space(require_full)
                before = (cache.hits, calls.call_count, cache.keys())
                if rows is None:
                    best, scored, _ = _first_best(model, apps, tensor, key)
                    hit = reference.space_batch(
                        workload, key, [r.tobytes() for r in tensor]
                    )
                    if hit:
                        assert cache.hits == before[0] + len(tensor)
                        assert calls.call_count == before[1]
                        assert scored == 0
                    if len(tensor) > maxsize:
                        assert set(cache.keys()) == set(before[2])
                    assert best == _unpruned_best(apps, tensor)
                else:
                    counts = symmetric_counts_tensor(_SMALL, 3)[rows]
                    got = model.predict_scores(_SMALL, apps, counts)
                    reference.rows_batch(
                        workload, [r.tobytes() for r in counts]
                    )
                    want = uncached.predict_scores(_SMALL, apps, counts)
                    assert np.array_equal(got, want)
                    assert got.flags.writeable
                assert (cache.hits, cache.misses) == (
                    reference.hits,
                    reference.misses,
                )
                assert cache.keys() == [
                    prefixes[w] + (row,) for w, row in reference.row_keys()
                ]
                assert len(cache) == (
                    len(cache.keys()) + reference.space_rows()
                )
                assert len(cache) <= maxsize

    def test_a_space_hit_is_one_lookup_and_no_kernel_call(self):
        model = NumaPerformanceModel()
        apps = _SMALL_WORKLOADS[0]
        tensor, key = _small_space(True)
        with mock.patch.object(
            model_module,
            "batched_app_gflops",
            wraps=model_module.batched_app_gflops,
        ) as calls:
            first = _first_best(model, apps, tensor, key)
            second = _first_best(model, apps, tensor, key)
        assert calls.call_count == 1
        assert (model.cache.hits, model.cache.misses) == (15, 15)
        best = _unpruned_best(apps, tensor)
        # The miss scores the 15 rows; the hit scores none.
        assert (first, second) == ((best, 15, 0), (best, 0, 0))
        # One space entry: no row entries, 15 rows of budget.
        assert model.cache.keys() == [] and len(model.cache) == 15

    def test_the_objective_is_part_of_the_key(self):
        model = NumaPerformanceModel()
        apps = _SMALL_WORKLOADS[1]
        tensor, key = _small_space(False)
        _first_best(model, apps, tensor, key)
        fairest = FastEvaluator.create(
            model, _SMALL, apps, min_app_gflops
        ).best_row(tensor, key)
        gflops = _UNCACHED.predict_scores(_SMALL, apps, tensor)
        assert fairest == (int(np.argmax(gflops.min(axis=1))), 35, 0)
        assert len(model.cache) == 70 and model.cache.hits == 0

    @pytest.mark.parametrize(
        "batch",
        [
            lambda t: t.copy(),
            lambda t: t[:-1],
            lambda t: t[:],
            lambda t: symmetric_counts_tensor(_SMALL, 3, require_full=False),
        ],
        ids=["copy", "slice", "view", "other-space"],
    )
    def test_a_batch_the_key_does_not_name_is_refused(self, batch):
        model = NumaPerformanceModel()
        apps = _SMALL_WORKLOADS[0]
        tensor, key = _small_space(True)
        model.predict_scores(_SMALL, apps, tensor[:3])
        state = (
            model.cache.hits,
            model.cache.misses,
            len(model.cache),
            model.cache.keys(),
        )
        with pytest.raises(ModelError, match="space"):
            _first_best(model, apps, batch(tensor), key)
        assert state == (
            model.cache.hits,
            model.cache.misses,
            len(model.cache),
            model.cache.keys(),
        )

    @pytest.mark.parametrize(
        "key", [(4, 3, 2), (4, 3, 2, True, 0), ("4", 3, 2, True), None]
    )
    def test_malformed_keys_name_nothing(self, key):
        assert not is_symmetric_tensor(_small_space(True)[0], key)

    def test_exhaustive_search_stores_one_entry(self):
        model = NumaPerformanceModel()
        apps = _SMALL_WORKLOADS[1]
        first = ExhaustiveSearch(model).search(_SMALL, apps)
        assert model.cache.keys() == [] and len(model.cache) == 15
        again = ExhaustiveSearch(model).search(_SMALL, apps)
        assert (model.cache.hits, model.cache.misses) == (15, 15)
        assert again.allocation.as_mapping() == first.allocation.as_mapping()

    def test_delta_audit_stores_one_entry_after_the_climb_rows(self):
        model = NumaPerformanceModel()
        apps = _SMALL_WORKLOADS[0]
        previous = ExhaustiveSearch(model).search(_SMALL, apps[:2])
        model.cache.clear()
        outcome = DeltaSearch(model).search(
            _SMALL,
            apps,
            previous=previous.allocation,
            previous_specs=apps[:2],
        )
        assert outcome.mode == "delta" and outcome.audited
        climbed = len(model.cache.keys())
        assert climbed > 0
        assert len(model.cache) == climbed + 15
