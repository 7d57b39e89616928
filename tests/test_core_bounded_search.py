"""The bounded whole-space search returns the exhaustive answer.

:meth:`~repro.core.fasteval.FastEvaluator.best_row` scores only the
symmetric rows whose roofline bound can reach the best score found.
Both perfbench's oracle and the service replays' offline check run the
same :class:`~repro.core.optimizer.ExhaustiveSearch`, so the reference
here is independent of it: the first ``np.argmax`` of the objective over
the unpruned kernel run on the whole tensor.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bwshare import RemainderRule
from repro.core.candidates import CandidateSpace
from repro.core.fasteval import (
    FastEvaluator,
    ModelTables,
    batched_app_gflops,
    roofline_bound,
)
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch, total_gflops
from repro.core.spec import AppSpec, Placement
from repro.machine import (
    knl_flat,
    knl_snc4,
    model_machine,
    numa_bad_example_machine,
    skylake_4s,
    uma_machine,
)
from repro.machine.topology import MachineTopology
from repro.obs import capture

#: Every preset whose nodes have equal core counts (the symmetric space
#: needs them).
PRESETS = {
    "paper-model-4x8": model_machine,
    "numa-bad": numa_bad_example_machine,
    "skylake-4s": skylake_4s,
    "knl-flat": knl_flat,
    "knl-snc4": knl_snc4,
    "uma-8c": uma_machine,
}

#: Largest symmetric space an example searches.
_MAX_ROWS = 30_000

_PLACEMENT_MIXES = {
    "mixed": list(Placement),
    "all-numa-perfect": [Placement.NUMA_PERFECT],
    "all-remote": [Placement.SINGLE_NODE, Placement.INTERLEAVED],
}


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def space_size(cores, n_apps, require_full):
    if require_full:
        return math.comb(cores + n_apps - 1, n_apps - 1)
    return math.comb(cores + n_apps, n_apps)


@st.composite
def machines(draw):
    kind = draw(st.sampled_from(["random", *PRESETS]))
    if kind != "random":
        return PRESETS[kind]()
    nodes = draw(st.integers(1, 5))
    cores = draw(st.integers(1, 8))
    return MachineTopology.homogeneous(
        num_nodes=nodes,
        cores_per_node=cores,
        peak_gflops_per_core=draw(positive(1.0, 20.0)),
        local_bandwidth=draw(positive(5.0, 100.0)),
        remote_bandwidth=draw(positive(1.0, 30.0)),
        name=f"fuzz-{nodes}x{cores}",
    )


@st.composite
def workloads(draw):
    """``(machine, apps, require_full)`` with at most ``_MAX_ROWS`` rows.

    Some apps are renamed copies of an earlier one, so rows that swap
    their counts tie exactly.
    """
    machine = draw(machines())
    require_full = draw(st.booleans())
    cores = machine.cores_per_node[0]
    fits = [
        a
        for a in range(1, 13)
        if space_size(cores, a, require_full) <= _MAX_ROWS
    ]
    n_apps = draw(st.sampled_from(fits))
    placements = _PLACEMENT_MIXES[
        draw(st.sampled_from(sorted(_PLACEMENT_MIXES)))
    ]
    apps = []
    for a in range(n_apps):
        if apps and draw(st.integers(0, 3)) == 0:
            twin = draw(st.sampled_from(apps))
            apps.append(dataclasses.replace(twin, name=f"app{a}"))
            continue
        placement = draw(st.sampled_from(placements))
        apps.append(
            AppSpec(
                name=f"app{a}",
                arithmetic_intensity=draw(positive(0.05, 12.0)),
                placement=placement,
                home_node=(
                    draw(st.integers(0, machine.num_nodes - 1))
                    if placement is Placement.SINGLE_NODE
                    else None
                ),
                peak_gflops_per_thread=draw(
                    st.none() | positive(0.5, 15.0)
                ),
            )
        )
    return machine, apps, require_full


def unpruned_first_argmax(machine, apps, tensor, rule):
    """The reference: the kernel over the whole tensor, then argmax."""
    tables = ModelTables.build(machine, apps, rule)
    gflops = batched_app_gflops(tables, tensor, rule)
    return int(np.argmax(total_gflops.batched(gflops, apps)))


def service_mix(rng, n_apps):
    """Apps drawn like the serve-path benchmark's: log-uniform
    intensity over [1/8, 16], one in five single-node, one in ten
    interleaved."""
    apps = []
    for a in range(n_apps):
        draw = rng.random()
        if draw < 0.2:
            placement, home = Placement.SINGLE_NODE, rng.randrange(4)
        elif draw < 0.3:
            placement, home = Placement.INTERLEAVED, None
        else:
            placement, home = Placement.NUMA_PERFECT, None
        apps.append(
            AppSpec(
                name=f"svc{a}",
                arithmetic_intensity=round(2.0 ** rng.uniform(-3, 4), 4),
                placement=placement,
                home_node=home,
            )
        )
    return apps


class TestBoundedSearchIsExact:
    @settings(max_examples=80, deadline=None)
    @given(
        workload=workloads(),
        rule=st.sampled_from(list(RemainderRule)),
    )
    def test_winner_is_the_unpruned_first_argmax(self, workload, rule):
        machine, apps, require_full = workload
        space = CandidateSpace(machine, len(apps))
        tensor = space.symmetric_tensor(require_full=require_full)
        key = space.symmetric_key(require_full=require_full)
        want = unpruned_first_argmax(machine, apps, tensor, rule)

        model = NumaPerformanceModel(rule)
        evaluator = FastEvaluator.create(model, machine, apps, total_gflops)
        best, scored, pruned = evaluator.best_row(tensor, key)
        assert best == want
        assert scored + pruned == len(tensor)

        result = ExhaustiveSearch(
            NumaPerformanceModel(rule, cache_size=0),
            require_full=require_full,
        ).search(machine, apps)
        assert np.array_equal(result.allocation.counts, tensor[want])
        assert result.evaluations == len(tensor)

        if len(tensor) <= 120:
            # The scalar evaluator scores every row with the reference
            # model: its first maximum, from an independent enumeration.
            scalar = ExhaustiveSearch(
                NumaPerformanceModel(rule),
                require_full=require_full,
                use_fast=False,
            ).search(machine, apps)
            reference = NumaPerformanceModel(rule)
            scores = [
                reference.predict(machine, apps, allocation).total_gflops
                for allocation in space.symmetric_allocations(
                    apps, require_full=require_full
                )
            ]
            first = int(np.argmax(scores))
            assert np.array_equal(scalar.allocation.counts, tensor[first])
            assert scalar.evaluations == len(tensor)
            assert scalar.score == pytest.approx(result.score, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        workload=workloads(),
        rule=st.sampled_from(list(RemainderRule)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_is_never_below_the_score(self, workload, rule, seed):
        machine, apps, require_full = workload
        space = CandidateSpace(machine, len(apps))
        tensor = space.symmetric_tensor(require_full=require_full)
        rows = np.random.default_rng(seed).integers(len(tensor), size=64)
        tables = ModelTables.build(machine, apps, rule)
        score = batched_app_gflops(tables, tensor[rows], rule).sum(axis=1)
        bound = roofline_bound(tables, tensor[rows])
        assert np.all(bound >= score * (1 - 1e-12))

    @settings(max_examples=80, deadline=None)
    @given(
        workload=workloads(),
        rule=st.sampled_from(list(RemainderRule)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ceiling_is_never_below_the_score(self, workload, rule, seed):
        # Not even by rounding: the ceiling rules rows out with no slack.
        # The rows are drawn apart from the batch the scores come from.
        machine, apps, require_full = workload
        space = CandidateSpace(machine, len(apps))
        tensor = space.symmetric_tensor(require_full=require_full)
        rng = np.random.default_rng(seed)
        rows = rng.integers(len(tensor), size=int(rng.integers(1, 700)))
        tables = ModelTables.build(machine, apps, rule)
        score = total_gflops.batched(
            batched_app_gflops(tables, tensor, rule), apps
        )
        evaluator = FastEvaluator.create(
            NumaPerformanceModel(rule), machine, apps, total_gflops
        )
        ceiling = evaluator._peak_ceiling(tables, tensor, rows)
        assert np.all(ceiling >= score[rows])

    @pytest.mark.parametrize("rule", list(RemainderRule))
    def test_a_plateau_at_the_compute_peak_stops_the_scan(self, rule):
        # Every thread can run at its peak in every full row, so all
        # 6 435 rows tie exactly.  The first row wins, and no row after
        # it can beat its score, which is every row's ceiling.
        machine = model_machine()
        apps = [
            AppSpec(name=f"hot{a}", arithmetic_intensity=16.0)
            for a in range(8)
        ]
        space = CandidateSpace(machine, len(apps))
        tensor, key = space.symmetric_tensor(), space.symmetric_key()
        assert unpruned_first_argmax(machine, apps, tensor, rule) == 0
        evaluator = FastEvaluator.create(
            NumaPerformanceModel(rule), machine, apps, total_gflops
        )
        assert evaluator.best_row(tensor, key) == (0, 64, len(tensor) - 64)

    @pytest.mark.parametrize("rule", list(RemainderRule))
    @pytest.mark.parametrize("n_apps", [8, 10])
    def test_service_mixes_are_pruned_and_exact(self, rule, n_apps):
        machine = model_machine()
        space = CandidateSpace(machine, n_apps)
        tensor, key = space.symmetric_tensor(), space.symmetric_key()
        rng = random.Random(n_apps)
        pruned_any = False
        for _ in range(4):
            apps = service_mix(rng, n_apps)
            evaluator = FastEvaluator.create(
                NumaPerformanceModel(rule),
                machine,
                apps,
                total_gflops,
            )
            best, scored, pruned = evaluator.best_row(tensor, key)
            assert best == unpruned_first_argmax(machine, apps, tensor, rule)
            assert scored + pruned == len(tensor)
            pruned_any = pruned_any or pruned > 0
        assert pruned_any


class TestObservability:
    def test_span_counts_scored_rows_and_the_counter_pruned_ones(self):
        machine = model_machine()
        apps = service_mix(random.Random(8), 8)
        search = ExhaustiveSearch(NumaPerformanceModel())
        with capture() as cap:
            first = search.search(machine, apps)
            again = search.search(machine, apps)
        spans = cap.tracer.filter(name="optimizer/exhaustive")
        assert [s.attrs["evaluations"] for s in spans] == [6435, 6435]
        scored = spans[0].attrs["scored"]
        assert 0 < scored < 6435
        # The second search is one cache hit: nothing scored or pruned.
        assert spans[1].attrs["scored"] == 0
        assert (
            cap.metrics.counter("optimizer/bound_pruned").value
            == 6435 - scored
        )
        assert first.allocation.as_mapping() == again.allocation.as_mapping()

    def test_an_objective_without_a_bound_scores_every_row(self):
        def total(prediction):
            return prediction.total_gflops

        total.batched = total_gflops.batched
        machine = model_machine()
        apps = service_mix(random.Random(8), 8)
        with capture() as cap:
            result = ExhaustiveSearch(
                NumaPerformanceModel(), total
            ).search(machine, apps)
        spans = cap.tracer.filter(name="optimizer/exhaustive")
        assert spans[0].attrs["scored"] == result.evaluations == 6435
        assert cap.metrics.counter("optimizer/bound_pruned").value == 0
        bounded = ExhaustiveSearch(NumaPerformanceModel()).search(
            machine, apps
        )
        assert np.array_equal(
            result.allocation.counts, bounded.allocation.counts
        )
