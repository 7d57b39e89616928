"""Tests on the heterogeneous (unequal-node) machine extension."""

import numpy as np
import pytest

from repro.core import (
    AppSpec,
    EvenSharePolicy,
    GreedySearch,
    HillClimbSearch,
    NumaPerformanceModel,
    ThreadAllocation,
)
from repro.errors import AllocationError, ModelError
from repro.machine import heterogeneous_machine
from repro.runtime import OCRVxRuntime
from repro.sim import ExecutionSimulator


@pytest.fixture
def machine():
    return heterogeneous_machine()


class TestTopology:
    def test_shape(self, machine):
        assert machine.cores_per_node == (12, 12, 4, 4)
        assert not machine.is_symmetric
        assert machine.total_cores == 32

    def test_per_node_bandwidths(self, machine):
        assert machine.bandwidth(0, 0) == 80.0
        assert machine.bandwidth(2, 2) == 24.0
        assert machine.bandwidth(0, 2) == 12.0


class TestModel:
    def test_memory_bound_per_node_saturation(self, machine):
        spec = AppSpec.memory_bound("m", 0.5)
        alloc = ThreadAllocation.from_mapping({"m": [12, 12, 4, 4]})
        p = NumaPerformanceModel().predict(machine, [spec], alloc)
        # big nodes saturate at 80 GB/s -> 40 GFLOPS each;
        # small nodes: 4 threads x 20 = 80 > 24 -> 12 GFLOPS each
        assert p.app("m").gflops == pytest.approx(2 * 40 + 2 * 12)

    def test_allocation_validation_respects_node_sizes(self, machine):
        alloc = ThreadAllocation.from_mapping({"m": [12, 12, 5, 4]})
        with pytest.raises(AllocationError):
            alloc.validate(machine)

    def test_even_share_per_node(self, machine):
        apps = [AppSpec.memory_bound("a"), AppSpec.memory_bound("b")]
        alloc = EvenSharePolicy().allocate(machine, apps)
        assert alloc.threads_per_node.tolist() == [12, 12, 4, 4]

    def test_symmetric_tooling_rejects(self, machine):
        from repro.core.candidates import enumerate_symmetric_allocations
        from repro.core.worked import worked_example

        apps = [AppSpec.memory_bound("m")]
        with pytest.raises(AllocationError):
            list(enumerate_symmetric_allocations(machine, apps))
        with pytest.raises(ModelError):
            worked_example(machine, [(apps[0], 1, 2)])


class TestSearchAndSim:
    def test_hill_climb_handles_asymmetry(self, machine):
        apps = [
            AppSpec.memory_bound("mem", 0.5),
            AppSpec.compute_bound("comp", 10.0),
        ]
        res = HillClimbSearch().search(machine, apps)
        res.allocation.validate(machine)
        assert res.score > 0

    def test_greedy_places_compute_anywhere(self, machine):
        apps = [
            AppSpec.memory_bound("mem", 0.5),
            AppSpec.compute_bound("comp", 10.0),
        ]
        res = GreedySearch().search(machine, apps)
        assert res.allocation.total_threads == machine.total_cores

    def test_executor_runs_on_heterogeneous_machine(self, machine):
        from repro.apps import SyntheticApp

        ex = ExecutionSimulator(machine)
        rt = OCRVxRuntime("m", ex)
        rt.start([12, 12, 4, 4])
        spec = AppSpec.memory_bound("m", 0.5)
        SyntheticApp(rt, spec, task_flops=0.05).submit_stream(10**9)
        ex.run(0.3)
        analytic = (
            NumaPerformanceModel()
            .predict(
                machine,
                [spec],
                ThreadAllocation.from_mapping({"m": [12, 12, 4, 4]}),
            )
            .total_gflops
        )
        assert ex.total_gflops(0.3) == pytest.approx(analytic, rel=0.02)


class TestRooflinePlot:
    def test_renders_for_any_node(self, machine):
        from repro.analysis import render_roofline

        text = render_roofline(
            machine,
            [AppSpec.memory_bound("m", 0.5)],
            node=2,
        )
        assert "node 2" in text
        assert "A = m" in text

    def test_validation(self, machine):
        from repro.analysis import render_roofline
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            render_roofline(machine, width=4)
        with pytest.raises(ConfigurationError):
            render_roofline(machine, ai_range=(1.0, 0.5))
