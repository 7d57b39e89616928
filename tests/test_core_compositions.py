"""The symmetric space stored as compositions, and the bounds read from it.

:mod:`repro.core.candidates` keeps each node-symmetric space as its
``(B, apps)`` matrix of compositions and hands out the ``(B, apps,
nodes)`` tensor as a broadcast view of it; the bounded search in
:mod:`repro.core.fasteval` bounds and ceils the rows from the
compositions.  The references here are the Python enumeration
(:func:`~repro.core.candidates.enumerate_node_compositions`), the
kernel's scores and the kernel's own ``threads * peak`` products over
the expanded tensor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bwshare import RemainderRule
from repro.core.candidates import (
    CandidateSpace,
    enumerate_node_compositions,
    is_symmetric_tensor,
    symmetric_counts_tensor,
)
from repro.core.fasteval import (
    FastEvaluator,
    ModelTables,
    batched_app_gflops,
    roofline_bound,
    symmetric_roofline_bound,
)
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import total_gflops
from repro.machine.topology import MachineTopology
from tests.test_core_bounded_search import _MAX_ROWS, space_size, workloads

#: Every (cores, apps, require_full) the searches can build, cores 1-8.
SIZES = [
    (cores, apps, require_full)
    for cores in range(1, 9)
    for apps in range(1, 13)
    for require_full in (True, False)
    if space_size(cores, apps, require_full) <= _MAX_ROWS
]


def machine(cores, nodes=3):
    return MachineTopology.homogeneous(
        num_nodes=nodes,
        cores_per_node=cores,
        peak_gflops_per_core=10.0,
        local_bandwidth=40.0,
        remote_bandwidth=10.0,
        name=f"comp-{nodes}x{cores}",
    )


class TestCompositionMatrix:
    @pytest.mark.parametrize("cores,apps,require_full", SIZES)
    def test_rows_are_the_reference_enumeration(
        self, cores, apps, require_full
    ):
        want = np.array(
            list(
                enumerate_node_compositions(
                    cores, apps, require_full=require_full
                )
            ),
            dtype=np.int64,
        ).reshape(-1, apps)
        tensor = symmetric_counts_tensor(
            machine(cores), apps, require_full=require_full
        )
        assert tensor.shape == (len(want), apps, 3)
        for node in range(3):
            assert np.array_equal(tensor[:, :, node], want)

    @pytest.mark.parametrize("require_full", [True, False])
    def test_view_is_int64_read_only_memoised_with_node_stride_0(
        self, require_full
    ):
        space = CandidateSpace(machine(8, nodes=4), 8)
        tensor = space.symmetric_tensor(require_full=require_full)
        key = space.symmetric_key(require_full=require_full)
        assert tensor.dtype == np.int64
        assert not tensor.flags.writeable
        assert tensor.strides[2] == 0
        comps = tensor[:, :, 0]
        assert comps.flags.c_contiguous
        assert np.shares_memory(comps, tensor)
        assert space.symmetric_tensor(require_full=require_full) is tensor
        assert (
            CandidateSpace(machine(8, nodes=4), 8).symmetric_tensor(
                require_full=require_full
            )
            is tensor
        )
        assert is_symmetric_tensor(tensor, key)
        assert not is_symmetric_tensor(np.array(tensor), key)
        with pytest.raises(ValueError):
            tensor[0, 0, 0] = 1
        with pytest.raises(ValueError):
            comps[0, 0] = 1
        assert len(tensor) == space.symmetric_size(require_full=require_full)


class TestBoundsFromCompositions:
    @settings(max_examples=80, deadline=None)
    @given(
        workload=workloads(),
        rule=st.sampled_from(list(RemainderRule)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_composition_bound_is_never_below_the_score(
        self, workload, rule, seed
    ):
        machine, apps, require_full = workload
        space = CandidateSpace(machine, len(apps))
        tensor = space.symmetric_tensor(require_full=require_full)
        rows = np.random.default_rng(seed).integers(len(tensor), size=64)
        tables = ModelTables.build(machine, apps, rule)
        score = batched_app_gflops(tables, tensor[rows], rule).sum(axis=1)
        bound = symmetric_roofline_bound(tables, tensor[:, :, 0])[rows]
        assert np.all(bound >= score * (1 - 1e-12))
        # One knapsack: the same caps reached through the (B, A, N) form.
        np.testing.assert_allclose(
            bound, roofline_bound(tables, tensor[rows]), rtol=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(
        workload=workloads(),
        rule=st.sampled_from(list(RemainderRule)),
    )
    def test_table_ceiling_is_the_kernels_peak_sum_bit_for_bit(
        self, workload, rule
    ):
        machine, apps, require_full = workload
        space = CandidateSpace(machine, len(apps))
        tensor = space.symmetric_tensor(require_full=require_full)
        tables = ModelTables.build(machine, apps, rule)
        # The kernel's products, threads * peak, over the expanded rows,
        # summed over the nodes as the kernel sums them.
        products = tensor.astype(float)
        products *= tables.peak_per_thread
        want = total_gflops.batched(products.sum(axis=2), apps)
        evaluator = FastEvaluator.create(
            NumaPerformanceModel(rule), machine, apps, total_gflops
        )
        got = evaluator._peak_ceiling(
            tables, tensor, np.arange(len(tensor))
        )
        assert got.tobytes() == want.tobytes()
