"""Unit tests for the full NUMA performance model."""

import numpy as np
import pytest

from repro.core.allocation import ThreadAllocation
from repro.core.model import NumaPerformanceModel
from repro.core.spec import AppSpec, Placement
from repro.errors import ModelError
from repro.machine import MachineTopology, uma_machine


@pytest.fixture
def model():
    return NumaPerformanceModel()


class TestSingleNodeBasics:
    def test_single_compute_thread_runs_at_peak(self, model, uma):
        apps = [AppSpec.compute_bound("c", 10.0)]
        alloc = ThreadAllocation.uniform(["c"], 1, 1)
        p = model.predict(uma, apps, alloc)
        assert p.total_gflops == pytest.approx(10.0)

    def test_memory_bound_limited_by_bandwidth(self, model, uma):
        # 8 threads x 20 GB/s demand, 32 GB/s node -> 32 * 0.5 = 16 GFLOPS.
        apps = [AppSpec.memory_bound("m", 0.5)]
        alloc = ThreadAllocation.uniform(["m"], 1, 8)
        p = model.predict(uma, apps, alloc)
        assert p.total_gflops == pytest.approx(16.0)
        assert p.nodes[0].utilization == pytest.approx(1.0)

    def test_zero_thread_app_gets_nothing(self, model, uma):
        apps = [AppSpec.memory_bound("m"), AppSpec.compute_bound("c")]
        alloc = ThreadAllocation.from_mapping({"m": [0], "c": [4]})
        p = model.predict(uma, apps, alloc)
        assert p.app("m").gflops == 0.0
        assert p.app("m").threads == 0

    def test_bandwidth_conservation(self, model, uma):
        apps = [AppSpec.memory_bound("m", 0.25)]
        alloc = ThreadAllocation.uniform(["m"], 1, 8)
        p = model.predict(uma, apps, alloc)
        assert p.total_bandwidth <= uma.nodes[0].local_bandwidth + 1e-9


class TestMultiNode:
    def test_numa_perfect_scales_with_nodes(self, model, paper_machine):
        apps = [AppSpec.memory_bound("m", 0.5)]
        alloc = ThreadAllocation.uniform(["m"], 4, 8)
        p = model.predict(paper_machine, apps, alloc)
        # Each node saturates at 32 GB/s -> 16 GFLOPS -> 64 total.
        assert p.total_gflops == pytest.approx(64.0)

    def test_group_results_per_node(self, model, paper_machine):
        apps = [AppSpec.memory_bound("m", 0.5)]
        alloc = ThreadAllocation.uniform(["m"], 4, 2)
        p = model.predict(paper_machine, apps, alloc)
        groups = p.app("m").groups
        assert len(groups) == 4
        assert {g.source_node for g in groups} == {0, 1, 2, 3}
        by_node = p.gflops_by_source_node()
        assert np.allclose(by_node, by_node[0])


class TestRemoteAccess:
    def test_numa_bad_capped_by_link(self, model):
        machine = MachineTopology.homogeneous(
            num_nodes=2,
            cores_per_node=4,
            peak_gflops_per_core=10.0,
            local_bandwidth=100.0,
            remote_bandwidth=5.0,
        )
        # All data on node 0; threads only on node 1 -> at most 5 GB/s.
        apps = [AppSpec.numa_bad("b", 1.0, home_node=0)]
        alloc = ThreadAllocation.from_mapping({"b": [0, 4]})
        p = model.predict(machine, apps, alloc)
        assert p.app("b").gflops == pytest.approx(5.0)
        assert p.nodes[0].remote_served == pytest.approx(5.0)

    def test_remote_served_before_local(self, model):
        machine = MachineTopology.homogeneous(
            num_nodes=2,
            cores_per_node=2,
            peak_gflops_per_core=10.0,
            local_bandwidth=10.0,
            remote_bandwidth=6.0,
        )
        apps = [
            AppSpec.memory_bound("local", 0.5),  # demands 20/thread
            AppSpec.numa_bad("remote", 1.0, home_node=0),
        ]
        # local app: 2 threads on node 0; remote app: 2 threads on node 1.
        alloc = ThreadAllocation.from_mapping(
            {"local": [2, 0], "remote": [0, 2]}
        )
        p = model.predict(machine, apps, alloc)
        # remote demand 20 capped by link 6 -> priority service of 6.
        assert p.app("remote").bandwidth == pytest.approx(6.0)
        # node 0 leaves 4 GB/s for the two local threads.
        assert p.app("local").bandwidth == pytest.approx(4.0)

    def test_remote_scaling_when_links_exceed_capacity(self, model):
        # 3 source nodes, each with a 10 GB/s link into node 0, but node 0
        # only has 15 GB/s of memory bandwidth: flows scale by 1/2.
        machine = MachineTopology.homogeneous(
            num_nodes=4,
            cores_per_node=2,
            peak_gflops_per_core=20.0,
            local_bandwidth=15.0,
            remote_bandwidth=10.0,
        )
        apps = [AppSpec.numa_bad("b", 1.0, home_node=0)]
        alloc = ThreadAllocation.from_mapping({"b": [0, 2, 2, 2]})
        p = model.predict(machine, apps, alloc)
        # demand per source node = 2 threads * 20 GB/s = 40, capped by
        # link at 10 each = 30 total, scaled to 15.
        assert p.nodes[0].remote_served == pytest.approx(15.0)
        assert p.app("b").gflops == pytest.approx(15.0)

    def test_interleaved_traffic_spreads(self, model, paper_machine):
        apps = [
            AppSpec(
                "i", 0.5, placement=Placement.INTERLEAVED
            )
        ]
        alloc = ThreadAllocation.uniform(["i"], 4, 2)
        p = model.predict(paper_machine, apps, alloc)
        # every node serves some remote traffic
        assert all(n.remote_served > 0 for n in p.nodes)


class TestValidation:
    def test_apps_allocation_mismatch(self, model, uma):
        apps = [AppSpec.memory_bound("m")]
        alloc = ThreadAllocation.uniform(["other"], 1, 1)
        with pytest.raises(ModelError):
            model.predict(uma, apps, alloc)

    def test_order_matters(self, model, uma):
        apps = [AppSpec.memory_bound("a"), AppSpec.memory_bound("b")]
        alloc = ThreadAllocation.uniform(["b", "a"], 1, 1)
        with pytest.raises(ModelError):
            model.predict(uma, apps, alloc)

    def test_duplicate_apps_rejected(self, model, uma):
        apps = [AppSpec.memory_bound("a"), AppSpec.memory_bound("a")]
        alloc = ThreadAllocation.uniform(["a", "b"], 1, 1)
        with pytest.raises(ModelError):
            model.predict(uma, apps, alloc)

    def test_home_node_out_of_range(self, model, uma):
        apps = [AppSpec.numa_bad("b", home_node=5)]
        alloc = ThreadAllocation.uniform(["b"], 1, 1)
        with pytest.raises(ModelError):
            model.predict(uma, apps, alloc)

    def test_empty_apps_rejected(self, model, uma):
        alloc = ThreadAllocation.uniform(["x"], 1, 1)
        with pytest.raises(ModelError):
            model.predict(uma, [], alloc)

    def test_unknown_app_lookup_raises(self, model, uma):
        apps = [AppSpec.memory_bound("m")]
        alloc = ThreadAllocation.uniform(["m"], 1, 1)
        p = model.predict(uma, apps, alloc)
        with pytest.raises(ModelError):
            p.app("ghost")

    def test_no_worker_count(self):
        # The serve-path benchmark's oracle still passes workers=0.
        NumaPerformanceModel(workers=0)
        with pytest.raises(TypeError):
            NumaPerformanceModel(workers=2)


class TestReporting:
    def test_summary_contains_apps(self, model, uma):
        apps = [AppSpec.memory_bound("m"), AppSpec.compute_bound("c")]
        alloc = ThreadAllocation.uniform(["m", "c"], 1, [2, 2])
        text = model.predict(uma, apps, alloc).summary()
        assert "m:" in text and "c:" in text

    def test_group_properties(self, model, uma):
        apps = [AppSpec.compute_bound("c", 10.0)]
        alloc = ThreadAllocation.uniform(["c"], 1, 2)
        p = model.predict(uma, apps, alloc)
        g = p.app("c").groups[0]
        assert g.satisfied
        assert g.bw_per_thread == pytest.approx(1.0)
        assert g.gflops_per_thread == pytest.approx(10.0)
