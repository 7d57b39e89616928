"""Unit tests for allocation policies and enumeration."""

import math

import numpy as np
import pytest

from repro.core.candidates import (
    enumerate_node_compositions,
    enumerate_symmetric_allocations,
)
from repro.core.policies import (
    EvenSharePolicy,
    NodeExclusivePolicy,
    ProportionalDemandPolicy,
    SingleAppFillPolicy,
    UnevenSharePolicy,
)
from repro.core.spec import AppSpec
from repro.errors import AllocationError
from repro.machine import MachineTopology


class TestEvenShare:
    def test_divides_evenly(self, paper_machine, paper_apps):
        a = EvenSharePolicy().allocate(paper_machine, paper_apps)
        assert np.all(a.counts == 2)

    def test_leftover_idle_by_default(self, paper_apps):
        m = MachineTopology.homogeneous(
            num_nodes=2,
            cores_per_node=6,
            peak_gflops_per_core=1.0,
            local_bandwidth=10.0,
        )
        a = EvenSharePolicy().allocate(m, paper_apps)
        assert a.threads_per_node.tolist() == [4, 4]  # 2 cores idle

    def test_leftover_distributed_on_request(self, paper_apps):
        m = MachineTopology.homogeneous(
            num_nodes=2,
            cores_per_node=6,
            peak_gflops_per_core=1.0,
            local_bandwidth=10.0,
        )
        a = EvenSharePolicy(distribute_leftover=True).allocate(
            m, paper_apps
        )
        assert a.threads_per_node.tolist() == [6, 6]

    def test_empty_apps_rejected(self, paper_machine):
        with pytest.raises(AllocationError):
            EvenSharePolicy().allocate(paper_machine, [])


class TestUnevenShare:
    def test_paper_uneven(self, paper_machine, paper_apps):
        a = UnevenSharePolicy(
            {"mem0": 1, "mem1": 1, "mem2": 1, "comp": 5}
        ).allocate(paper_machine, paper_apps)
        assert a.threads_of("comp").tolist() == [5, 5, 5, 5]

    def test_missing_app_rejected(self, paper_machine, paper_apps):
        with pytest.raises(AllocationError):
            UnevenSharePolicy({"mem0": 1}).allocate(
                paper_machine, paper_apps
            )

    def test_oversubscribed_rejected(self, paper_machine, paper_apps):
        with pytest.raises(AllocationError):
            UnevenSharePolicy(
                {"mem0": 3, "mem1": 3, "mem2": 3, "comp": 3}
            ).allocate(paper_machine, paper_apps)


class TestNodeExclusive:
    def test_data_affine_pins_numa_bad(
        self, numa_bad_machine, numa_bad_apps
    ):
        a = NodeExclusivePolicy(data_affine=True).allocate(
            numa_bad_machine, numa_bad_apps
        )
        # "bad" has home node 3 and must land there.
        assert a.threads_of("bad").tolist() == [0, 0, 0, 8]

    def test_without_affinity_takes_listing_order(
        self, numa_bad_machine, numa_bad_apps
    ):
        a = NodeExclusivePolicy(data_affine=False).allocate(
            numa_bad_machine, numa_bad_apps
        )
        assert a.threads_of("mem0").tolist() == [8, 0, 0, 0]
        assert a.threads_of("bad").tolist() == [0, 0, 0, 8]

    def test_wrong_app_count(self, paper_machine):
        with pytest.raises(AllocationError):
            NodeExclusivePolicy().allocate(
                paper_machine, [AppSpec.memory_bound("x")]
            )


class TestProportionalDemand:
    def test_compute_bound_gets_more(self, paper_machine, paper_apps):
        a = ProportionalDemandPolicy().allocate(paper_machine, paper_apps)
        assert (
            a.threads_of("comp")[0]
            > a.threads_of("mem0")[0]
        )
        # fully packed
        assert a.threads_per_node.tolist() == [8, 8, 8, 8]

    def test_recovers_paper_uneven_split(self, paper_machine, paper_apps):
        # weights 1/demand = [0.05]*3 + [1.0]: comp gets nearly all spares.
        a = ProportionalDemandPolicy().allocate(paper_machine, paper_apps)
        assert a.threads_of("comp")[0] == 5

    def test_explicit_weights(self, paper_machine, paper_apps):
        a = ProportionalDemandPolicy(
            weights={"mem0": 1, "mem1": 1, "mem2": 1, "comp": 1}
        ).allocate(paper_machine, paper_apps)
        assert np.all(a.counts == 2)

    def test_min_threads_floor_too_large(self, paper_machine, paper_apps):
        with pytest.raises(AllocationError):
            ProportionalDemandPolicy(min_threads=3).allocate(
                paper_machine, paper_apps
            )


class TestSingleAppFill:
    def test_favoured_gets_rest(self, paper_machine, paper_apps):
        a = SingleAppFillPolicy("comp").allocate(paper_machine, paper_apps)
        assert a.threads_of("comp").tolist() == [5, 5, 5, 5]
        assert a.threads_of("mem0").tolist() == [1, 1, 1, 1]

    def test_unknown_favoured(self, paper_machine, paper_apps):
        with pytest.raises(AllocationError):
            SingleAppFillPolicy("ghost").allocate(
                paper_machine, paper_apps
            )


class TestEnumeration:
    def test_composition_count(self):
        # stars and bars: C(8+4-1, 4-1) = 165
        comps = list(enumerate_node_compositions(8, 4))
        assert len(comps) == math.comb(11, 3)
        assert all(sum(c) == 8 for c in comps)
        assert len(set(comps)) == len(comps)

    def test_partial_compositions(self):
        comps = list(
            enumerate_node_compositions(3, 2, require_full=False)
        )
        assert (0, 0) in comps
        assert (3, 0) in comps
        assert all(sum(c) <= 3 for c in comps)

    def test_invalid_space(self):
        with pytest.raises(AllocationError):
            list(enumerate_node_compositions(-1, 2))
        with pytest.raises(AllocationError):
            list(enumerate_node_compositions(2, 0))

    def test_symmetric_allocations_valid(self, paper_machine, paper_apps):
        allocs = list(
            enumerate_symmetric_allocations(paper_machine, paper_apps)
        )
        assert len(allocs) == math.comb(11, 3)
        for a in allocs:
            a.validate(paper_machine)

    def test_symmetric_requires_equal_nodes(self, paper_apps):
        from repro.machine.topology import Core, NumaNode
        import numpy as np

        nodes = (
            NumaNode(
                node_id=0,
                cores=(Core(0, 0, 0, 1.0), Core(1, 0, 1, 1.0)),
                local_bandwidth=10.0,
            ),
            NumaNode(
                node_id=1,
                cores=(Core(2, 1, 0, 1.0),),
                local_bandwidth=10.0,
            ),
        )
        m = MachineTopology(
            nodes=nodes, link_bandwidth=np.full((2, 2), 10.0)
        )
        with pytest.raises(AllocationError):
            list(enumerate_symmetric_allocations(m, paper_apps))
