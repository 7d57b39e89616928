"""``NumaPerformanceModel.predict_total`` is ``predict(...).total_gflops``,
bit for bit, on any machine, workload and allocation.

Every search scores its ``total_gflops`` winner through
``predict_total``, so a single ulp of difference would move the search
pins, the replay digests and the journal's ``score`` fields.  The
comparison is by ``float.hex``, not by tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import ThreadAllocation
from repro.core.bwshare import RemainderRule
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch, total_gflops
from repro.core.spec import AppSpec, Placement
from repro.machine import (
    MachineTopology,
    heterogeneous_machine,
    knl_flat,
    knl_snc4,
    model_machine,
    numa_bad_example_machine,
    skylake_4s,
    uma_machine,
)

PRESETS = [
    model_machine(),
    numa_bad_example_machine(),
    skylake_4s(),
    knl_flat(),
    knl_snc4(),
    uma_machine(),
    heterogeneous_machine(),
]


@st.composite
def random_machines(draw):
    local = draw(st.floats(min_value=1.0, max_value=500.0))
    return MachineTopology.homogeneous(
        num_nodes=draw(st.integers(min_value=1, max_value=4)),
        cores_per_node=draw(st.integers(min_value=1, max_value=8)),
        peak_gflops_per_core=draw(st.floats(min_value=0.1, max_value=100.0)),
        local_bandwidth=local,
        remote_bandwidth=draw(st.floats(min_value=0.5, max_value=local)),
    )


machines = st.one_of(st.sampled_from(PRESETS), random_machines())


@st.composite
def app_specs(draw, machine, name):
    ai = draw(st.floats(min_value=0.01, max_value=100.0))
    placement = draw(st.sampled_from(list(Placement)))
    home = (
        draw(st.integers(min_value=0, max_value=machine.num_nodes - 1))
        if placement is Placement.SINGLE_NODE
        else None
    )
    peak = draw(
        st.one_of(st.none(), st.floats(min_value=0.05, max_value=50.0))
    )
    return AppSpec(
        name,
        ai,
        placement=placement,
        home_node=home,
        peak_gflops_per_thread=peak,
    )


@st.composite
def scored_workloads(draw):
    """``(machine, apps, allocation)``: twins, idle cores, empty nodes.

    Up to ten apps, as many as the service's workloads hold: with five
    or fewer, an exactly rounded sum of the apps' GFLOPS (``math.fsum``)
    matched the left-to-right sum in every example.
    """
    machine = draw(machines)
    n_apps = draw(st.integers(min_value=1, max_value=10))
    apps = []
    for a in range(n_apps):
        if apps and draw(st.booleans()):
            # A twin: the same spec as an earlier app under a new name.
            twin = draw(st.sampled_from(apps))
            apps.append(
                AppSpec(
                    f"a{a}",
                    twin.arithmetic_intensity,
                    placement=twin.placement,
                    home_node=twin.home_node,
                    peak_gflops_per_thread=twin.peak_gflops_per_thread,
                )
            )
        else:
            apps.append(draw(app_specs(machine, f"a{a}")))
    empty = draw(
        st.sets(st.integers(min_value=0, max_value=machine.num_nodes - 1))
    )
    counts = np.zeros((n_apps, machine.num_nodes), dtype=np.int64)
    for n, node in enumerate(machine.nodes):
        if n in empty:
            continue
        free = node.num_cores
        for a in range(n_apps):
            take = draw(st.integers(min_value=0, max_value=free))
            counts[a, n] = take
            free -= take
    allocation = ThreadAllocation(
        app_names=tuple(app.name for app in apps), counts=counts
    )
    return machine, apps, allocation


class TestPredictTotal:
    @given(scored_workloads(), st.sampled_from(list(RemainderRule)))
    @settings(max_examples=400, deadline=None)
    def test_equals_predict_bit_for_bit(self, workload, rule):
        machine, apps, allocation = workload
        model = NumaPerformanceModel(rule)
        expected = model.predict(machine, apps, allocation).total_gflops
        got = model.predict_total(machine, apps, allocation)
        assert type(got) is float
        assert got.hex() == expected.hex()

    def test_idle_machine_scores_zero(self):
        machine = model_machine()
        apps = [AppSpec.memory_bound("mem"), AppSpec.compute_bound("cpu")]
        idle = ThreadAllocation(
            app_names=("mem", "cpu"),
            counts=np.zeros((2, machine.num_nodes), dtype=np.int64),
        )
        assert NumaPerformanceModel().predict_total(
            machine, apps, idle
        ).hex() == (0.0).hex()

    def test_search_winners_score_as_predict_does(self):
        """A ``total_gflops`` search's score is ``predict``'s total."""
        rng = np.random.default_rng(5)
        machine = model_machine()
        for trial in range(20):
            apps = [
                AppSpec(
                    f"x{trial}_{i}",
                    float(rng.uniform(0.05, 20.0)),
                    placement=Placement.SINGLE_NODE,
                    home_node=int(rng.integers(machine.num_nodes)),
                )
                if rng.random() < 0.3
                else AppSpec(f"x{trial}_{i}", float(rng.uniform(0.05, 20.0)))
                for i in range(int(rng.integers(2, 6)))
            ]
            for rule in RemainderRule:
                model = NumaPerformanceModel(rule)
                result = ExhaustiveSearch(model, total_gflops).search(
                    machine, apps
                )
                expected = model.predict(
                    machine, apps, result.allocation
                ).total_gflops
                assert result.score.hex() == expected.hex()
