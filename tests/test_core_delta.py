"""The incremental re-optimizer (:mod:`repro.core.delta`).

The correctness anchor: on small instances (space within the audit
limit) the delta path returns *byte-identical* answers to
:class:`~repro.core.optimizer.ExhaustiveSearch` — same score, same
allocation, ties included — or falls back to the full search and says
why.  The hypothesis suite drives that claim over random machines and
single-app churn events.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import ThreadAllocation
from repro.core.delta import (
    DeltaResult,
    DeltaSearch,
    WorkloadDelta,
    diff_workloads,
)
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch, HillClimbSearch
from repro.core.spec import AppSpec
from repro.errors import AllocationError, ModelError
from repro.machine import MachineTopology
from repro.machine.topology import Core, NumaNode
from repro.obs import capture


def _mem(name, ai=0.5):
    return AppSpec.memory_bound(name, ai)


def _cpu(name, ai=10.0):
    return AppSpec.compute_bound(name, ai)


@pytest.fixture
def asymmetric_machine():
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
    return MachineTopology(nodes=nodes, link_bandwidth=np.full((2, 2), 10.0))


class TestDiffWorkloads:
    def test_join_depart_change(self):
        previous = (_mem("a"), _mem("b"), _cpu("c", 10.0))
        current = (_mem("a"), _cpu("c", 20.0), _mem("d"))
        delta = diff_workloads(previous, current)
        assert delta.joined == ("d",)
        assert delta.departed == ("b",)
        assert delta.changed == ("c",)
        assert not delta.empty
        assert delta.fraction(3) == pytest.approx(1.0)

    def test_no_churn_is_empty(self):
        apps = (_mem("a"), _cpu("b"))
        delta = diff_workloads(apps, apps)
        assert delta.empty
        assert delta.fraction(2) == 0.0

    def test_fraction_of_zero_apps(self):
        assert WorkloadDelta((), (), ()).fraction(0) == 0.0


class TestConstruction:
    def test_parameter_validation(self):
        # The thresholds are fixed: none of them is an option.
        for option in (
            "max_changed_fraction",
            "regression_tolerance",
            "audit_limit",
            "require_full",
            "max_rounds",
        ):
            with pytest.raises(TypeError, match=option):
                DeltaSearch(**{option: 1})

    def test_fallback_must_share_the_model(self):
        with pytest.raises(ModelError):
            DeltaSearch(
                NumaPerformanceModel(),
                fallback=ExhaustiveSearch(NumaPerformanceModel()),
            )

    def test_default_fallback_shares_the_model(self):
        search = DeltaSearch()
        assert search.fallback.model is search.model

    def test_empty_workload_raises(self, paper_machine):
        with pytest.raises(AllocationError):
            DeltaSearch().search(paper_machine, [])


class TestFallbacks:
    def test_cold_start(self, paper_machine, paper_apps):
        search = DeltaSearch()
        out = search.search(paper_machine, paper_apps)
        assert out.mode == "full"
        assert out.fallback_reason == "cold-start"
        assert search.fallbacks == 1

    def test_asymmetric_machine(self, asymmetric_machine):
        apps = (_mem("a"), _mem("b"))
        previous = ThreadAllocation(
            app_names=("a", "b"),
            counts=np.array([[1, 0], [1, 1]]),
        )
        model = NumaPerformanceModel()
        search = DeltaSearch(model, fallback=HillClimbSearch(model))
        out = search.search(
            asymmetric_machine, apps, previous=previous, previous_specs=apps
        )
        assert out.mode == "full"
        assert out.fallback_reason == "asymmetric-machine"

    def test_churn_fraction(self, paper_machine):
        previous = (_mem("a"),)
        search = DeltaSearch()
        warm = search.fallback.search(paper_machine, previous)
        current = (_mem("a"), _mem("b"), _mem("c"), _cpu("d"))
        out = search.search(
            paper_machine,
            current,
            previous=warm.allocation,
            previous_specs=previous,
            previous_score=warm.score,
        )
        assert out.mode == "full"
        assert out.fallback_reason == "churn-fraction"

    def test_asymmetric_previous(self, paper_machine):
        apps = (_mem("a"), _mem("b"))
        previous = ThreadAllocation(
            app_names=("a", "b"),
            counts=np.array([[8, 0, 0, 0], [0, 8, 8, 8]]),
        )
        out = DeltaSearch().search(
            paper_machine, apps, previous=previous, previous_specs=apps
        )
        assert out.mode == "full"
        assert out.fallback_reason == "asymmetric-previous"

    def test_oversubscribed_previous(self, paper_machine):
        # A symmetric answer computed for a machine with more cores.
        apps = (_mem("a"), _mem("b"))
        previous = ThreadAllocation(
            app_names=("a", "b"),
            counts=np.full((2, 4), 6, dtype=np.int64),
        )
        out = DeltaSearch().search(
            paper_machine, apps, previous=previous, previous_specs=apps
        )
        assert out.mode == "full"
        assert out.fallback_reason == "oversubscribed-previous"

    def test_regression_guard(self, paper_machine, monkeypatch):
        # Sabotage the climb so the pure-join answer gets worse than the
        # previous score; the guard must reject it and re-search.  Six
        # apps make a 1 287-row space, above the audit's limit, so no
        # audit repairs the sabotage first.
        previous = tuple(
            _cpu(name, 8.0 + i) for i, name in enumerate("abcde")
        )
        search = DeltaSearch()
        warm = search.fallback.search(paper_machine, previous)
        current = previous + (_mem("f", 0.1),)

        def sabotage(self, space, evaluator, comp, score, trajectory):
            comp[:] = 0
            comp[5] = space.cores_per_node
            return score

        monkeypatch.setattr(DeltaSearch, "_climb", sabotage)
        out = search.search(
            paper_machine,
            current,
            previous=warm.allocation,
            previous_specs=previous,
            previous_score=warm.score,
        )
        assert out.mode == "full"
        assert out.fallback_reason == "regression"

    def test_fallback_counter_increments(self, paper_machine, paper_apps):
        with capture() as cap:
            DeltaSearch().search(paper_machine, paper_apps)
        assert cap.metrics.snapshot()["counter/delta/fallbacks"] == 1


class TestDeltaPath:
    def _churn(self, machine, previous_apps, current_apps):
        search = DeltaSearch()
        warm = search.fallback.search(machine, previous_apps)
        out = search.search(
            machine,
            current_apps,
            previous=warm.allocation,
            previous_specs=previous_apps,
            previous_score=warm.score,
        )
        return search, out

    def test_leave_matches_oracle_exactly(self, paper_machine, paper_apps):
        survivors = tuple(paper_apps[:-1])
        search, out = self._churn(
            paper_machine, tuple(paper_apps), survivors
        )
        oracle = ExhaustiveSearch(NumaPerformanceModel()).search(
            paper_machine, survivors
        )
        assert out.mode == "delta"
        assert search.fallbacks == 0
        assert out.score == oracle.score
        assert (
            out.allocation.as_mapping() == oracle.allocation.as_mapping()
        )

    def test_join_matches_oracle_exactly(self, paper_machine, paper_apps):
        previous = tuple(paper_apps[:-1])
        search, out = self._churn(
            paper_machine, previous, tuple(paper_apps)
        )
        oracle = ExhaustiveSearch(NumaPerformanceModel()).search(
            paper_machine, paper_apps
        )
        assert out.mode == "delta"
        assert out.delta.joined == (paper_apps[-1].name,)
        assert out.score == oracle.score
        assert (
            out.allocation.as_mapping() == oracle.allocation.as_mapping()
        )

    def test_phase_change_matches_oracle_exactly(self, paper_machine):
        previous = (_mem("a"), _mem("b"), _cpu("c"))
        current = (_mem("a"), _mem("b", 2.0), _cpu("c"))
        search, out = self._churn(paper_machine, previous, current)
        oracle = ExhaustiveSearch(NumaPerformanceModel()).search(
            paper_machine, current
        )
        assert out.mode == "delta"
        assert out.delta.changed == ("b",)
        assert out.score == oracle.score
        assert (
            out.allocation.as_mapping() == oracle.allocation.as_mapping()
        )

    def test_small_instance_is_audited(self, paper_machine, paper_apps):
        _, out = self._churn(
            paper_machine, tuple(paper_apps), tuple(paper_apps[:-1])
        )
        assert out.audited

    def test_large_space_skips_the_audit(self, paper_machine):
        apps = tuple(_mem(f"m{i}", 0.2 + 0.1 * i) for i in range(6)) + (
            _cpu("c0"),
            _cpu("c1", 12.0),
            _cpu("c2", 14.0),
            _cpu("c3", 16.0),
        )
        search, out = self._churn(paper_machine, apps[:-1], apps)
        assert out.mode == "delta"
        assert not out.audited
        # O(delta): far fewer evaluations than the 24,310-row space.
        assert out.result.evaluations < 500

    def test_result_shortcuts(self, paper_machine, paper_apps):
        _, out = self._churn(
            paper_machine, tuple(paper_apps), tuple(paper_apps[:-1])
        )
        assert isinstance(out, DeltaResult)
        assert out.allocation is out.result.allocation
        assert out.score == out.result.score

    def test_span_records_mode_and_evaluations(
        self, paper_machine, paper_apps
    ):
        search = DeltaSearch()
        warm = search.fallback.search(paper_machine, paper_apps)
        with capture() as cap:
            search.search(
                paper_machine,
                tuple(paper_apps[:-1]),
                previous=warm.allocation,
                previous_specs=tuple(paper_apps),
                previous_score=warm.score,
            )
        spans = [s for s in cap.tracer.spans if s.name == "delta/search"]
        assert len(spans) == 1
        assert spans[0].attrs["mode"] == "delta"
        assert spans[0].attrs["evaluations"] > 0


# ----------------------------------------------------------------------
# Property: delta == oracle exactly, or a counted fall-back
# ----------------------------------------------------------------------
@st.composite
def churn_cases(draw):
    nodes = draw(st.integers(min_value=1, max_value=3))
    cores = draw(st.integers(min_value=2, max_value=6))
    machine = MachineTopology.homogeneous(
        num_nodes=nodes,
        cores_per_node=cores,
        peak_gflops_per_core=draw(st.floats(min_value=0.5, max_value=50.0)),
        local_bandwidth=draw(st.floats(min_value=5.0, max_value=200.0)),
        remote_bandwidth=draw(st.floats(min_value=1.0, max_value=5.0)),
    )
    n_apps = draw(st.integers(min_value=2, max_value=4))
    apps = []
    for a in range(n_apps):
        ai = draw(st.floats(min_value=0.05, max_value=50.0))
        apps.append(AppSpec(f"a{a}", ai))
    event = draw(st.sampled_from(["leave", "join", "change"]))
    if event == "leave":
        previous, current = tuple(apps), tuple(apps[:-1])
    elif event == "join":
        previous, current = tuple(apps[:-1]), tuple(apps)
    else:
        changed = AppSpec(
            apps[-1].name,
            draw(st.floats(min_value=0.05, max_value=50.0)),
        )
        previous, current = tuple(apps), tuple(apps[:-1] + [changed])
    return machine, previous, current


class TestDeltaOracleProperty:
    @given(churn_cases())
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_or_falls_back(self, case):
        machine, previous_apps, current_apps = case
        search = DeltaSearch()
        warm = search.fallback.search(machine, previous_apps)
        out = search.search(
            machine,
            current_apps,
            previous=warm.allocation,
            previous_specs=previous_apps,
            previous_score=warm.score,
        )
        if out.mode == "full":
            # Every decline is counted and explained.
            assert search.fallbacks == 1
            assert out.fallback_reason is not None
            return
        oracle = ExhaustiveSearch(NumaPerformanceModel()).search(
            machine, current_apps
        )
        assert out.score == oracle.score
        assert (
            out.allocation.as_mapping() == oracle.allocation.as_mapping()
        )
