"""Unit tests for multi-runtime core arbitration."""

import numpy as np
import pytest

from repro.agent.protocol import StatusReport
from repro.agent.strategies import ModelGuidedStrategy
from repro.core.arbitration import (
    AgentArbiter,
    CooperativeConsensus,
    FairShareArbiter,
    ResourceRequest,
)
from repro.core.spec import AppSpec
from repro.errors import AllocationError
from repro.machine import heterogeneous_machine, model_machine
from repro.obs import capture


@pytest.fixture
def requests(paper_apps):
    return [ResourceRequest(spec=a) for a in paper_apps]


class TestResourceRequest:
    def test_validation(self, paper_apps):
        with pytest.raises(AllocationError):
            ResourceRequest(spec=paper_apps[0], min_threads=-1)
        with pytest.raises(AllocationError):
            ResourceRequest(
                spec=paper_apps[0], min_threads=4, max_threads=2
            )
        with pytest.raises(AllocationError):
            ResourceRequest(spec=paper_apps[0], priority=0.0)


class TestFairShare:
    def test_even_split(self, paper_machine, requests):
        out = FairShareArbiter().decide(paper_machine, requests)
        assert np.all(out.allocation.counts == 2)
        assert out.predicted_gflops == pytest.approx(140.0)

    def test_no_oversubscription(self, paper_machine, requests):
        out = FairShareArbiter().decide(paper_machine, requests)
        out.allocation.validate(paper_machine)

    def test_max_threads_clamped(self, paper_machine, paper_apps):
        reqs = [
            ResourceRequest(spec=a, max_threads=4) for a in paper_apps
        ]
        out = FairShareArbiter().decide(paper_machine, reqs)
        for a in paper_apps:
            assert out.allocation.threads_of(a.name).sum() <= 4

    def test_leftover_goes_to_priority(self, paper_apps):
        from repro.machine import MachineTopology

        m = MachineTopology.homogeneous(
            num_nodes=1,
            cores_per_node=5,
            peak_gflops_per_core=10.0,
            local_bandwidth=32.0,
        )
        reqs = [
            ResourceRequest(spec=a, priority=p)
            for a, p in zip(paper_apps, [1, 1, 1, 9])
        ]
        out = FairShareArbiter().decide(m, reqs)
        assert out.allocation.threads_of("comp").sum() == 2

    def test_empty_requests_rejected(self, paper_machine):
        with pytest.raises(AllocationError):
            FairShareArbiter().decide(paper_machine, [])

    def test_impossible_minimums_rejected(self, paper_machine, paper_apps):
        reqs = [
            ResourceRequest(spec=a, min_threads=20) for a in paper_apps
        ]
        with pytest.raises(AllocationError):
            FairShareArbiter().decide(paper_machine, reqs)


class TestAgentArbiter:
    def test_beats_fair_share(self, paper_machine, requests):
        fair = FairShareArbiter().decide(paper_machine, requests)
        agent = AgentArbiter().decide(paper_machine, requests)
        assert agent.predicted_gflops >= fair.predicted_gflops

    def test_minimums_respected(self, paper_machine, paper_apps):
        reqs = [
            ResourceRequest(spec=a, min_threads=2) for a in paper_apps
        ]
        out = AgentArbiter().decide(paper_machine, reqs)
        for a in paper_apps:
            assert out.allocation.threads_of(a.name).sum() >= 2

    def test_maximums_respected(self, paper_machine, paper_apps):
        reqs = [
            ResourceRequest(
                spec=a,
                max_threads=8 if a.name == "comp" else None,
            )
            for a in paper_apps
        ]
        out = AgentArbiter().decide(paper_machine, reqs)
        assert out.allocation.threads_of("comp").sum() <= 8

    def test_log_mentions_search(self, paper_machine, requests):
        out = AgentArbiter().decide(paper_machine, requests)
        assert any("search" in line for line in out.log)


class TestSearchChoice:
    """Both model-guided deciders choose their search by one rule.

    :class:`AgentArbiter` and
    :class:`~repro.agent.strategies.ModelGuidedStrategy` run exhaustive
    search while the node-symmetric space fits ``exhaustive_limit`` and
    hill climbing otherwise, or when the nodes differ in core count.
    The paper workload's space has 165 candidates.
    """

    @staticmethod
    def _arbiter(machine, apps, limit):
        AgentArbiter(exhaustive_limit=limit).decide(
            machine, [ResourceRequest(spec=a) for a in apps]
        )

    @staticmethod
    def _strategy(machine, apps, limit):
        cores = tuple(machine.cores_per_node)
        reports = {
            a.name: StatusReport(
                runtime_name=a.name,
                time=0.0,
                tasks_executed=0,
                active_threads=sum(cores),
                blocked_threads=0,
                active_per_node=cores,
                workers_per_node=cores,
                queue_length=0,
            )
            for a in apps
        }
        ModelGuidedStrategy(apps, exhaustive_limit=limit).decide(
            machine, reports
        )

    @pytest.mark.parametrize("site", ["_arbiter", "_strategy"])
    @pytest.mark.parametrize(
        "machine, limit, search",
        [
            (model_machine, 165, "exhaustive"),
            (model_machine, 164, "hillclimb"),
            (heterogeneous_machine, 10**9, "hillclimb"),
        ],
        ids=["space-fits", "space-too-big", "unequal-nodes"],
    )
    def test_search_follows_space_size(
        self, site, machine, limit, search, paper_apps
    ):
        with capture() as cap:
            getattr(self, site)(machine(), paper_apps, limit)
        searches = [
            s.name for s in cap.tracer.spans if s.name.startswith("optimizer/")
        ]
        assert searches == [f"optimizer/{search}"]


class TestCooperativeConsensus:
    def test_reaches_valid_fixpoint(self, paper_machine, requests):
        out = CooperativeConsensus().decide(paper_machine, requests)
        out.allocation.validate(paper_machine)
        assert out.rounds >= 1

    def test_equal_priorities_equal_shares(self, paper_machine, requests):
        out = CooperativeConsensus().decide(paper_machine, requests)
        totals = out.allocation.threads_per_app
        assert totals.max() - totals.min() <= 1

    def test_priority_shifts_shares(self, paper_machine, paper_apps):
        reqs = [
            ResourceRequest(spec=a, priority=p)
            for a, p in zip(paper_apps, [1.0, 1.0, 1.0, 5.0])
        ]
        out = CooperativeConsensus().decide(paper_machine, reqs)
        assert (
            out.allocation.threads_of("comp").sum()
            > out.allocation.threads_of("mem0").sum()
        )

    def test_numa_bad_claims_home_first(
        self, numa_bad_machine, numa_bad_apps
    ):
        reqs = [ResourceRequest(spec=a) for a in numa_bad_apps]
        out = CooperativeConsensus().decide(numa_bad_machine, reqs)
        bad = out.allocation.threads_of("bad")
        # the NUMA-bad app's claim concentrates on its home node 3
        assert bad[3] == bad.max()

    def test_deterministic(self, paper_machine, requests):
        a = CooperativeConsensus().decide(paper_machine, requests)
        b = CooperativeConsensus().decide(paper_machine, requests)
        assert a.allocation.as_mapping() == b.allocation.as_mapping()

    def test_not_all_runtimes_pick_node_zero(self, paper_machine):
        # The paper's coordination pitfall: two apps each wanting exactly
        # one node's worth of cores must not both sit on node 0.
        apps = [
            AppSpec.memory_bound("a", 0.5),
            AppSpec.memory_bound("b", 0.5),
        ]
        reqs = [
            ResourceRequest(spec=s, min_threads=8, max_threads=8)
            for s in apps
        ]
        out = CooperativeConsensus().decide(paper_machine, reqs)
        counts = out.allocation.counts
        per_node = counts.sum(axis=0)
        assert per_node.max() <= 8  # no node over-claimed
