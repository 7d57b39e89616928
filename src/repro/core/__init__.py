"""The paper's primary contribution: the NUMA-aware allocation model.

Public surface:

* :class:`~repro.core.spec.AppSpec` / :class:`~repro.core.spec.Placement` —
  analytic application descriptions;
* :class:`~repro.core.allocation.ThreadAllocation` — per-app per-node
  thread counts (the paper's thread-control option 3);
* :class:`~repro.core.model.NumaPerformanceModel` — the bandwidth-sharing
  performance model of Section III-A;
* :mod:`~repro.core.policies` and :mod:`~repro.core.optimizer` —
  allocation generators and searches;
* :mod:`~repro.core.candidates` and :mod:`~repro.core.delta` — the
  shared candidate-space layer (every enumeration the searches walk)
  and the incremental (O(delta)) churn-time re-optimizer built on it;
* :mod:`~repro.core.arbitration` — static multi-runtime core negotiation;
* :func:`~repro.core.worked.worked_example` — Table I/II style row-by-row
  breakdowns.
"""

from repro.core.allocation import ThreadAllocation
from repro.core.arbitration import (
    AgentArbiter,
    ArbitrationOutcome,
    CooperativeConsensus,
    FairShareArbiter,
    ResourceRequest,
)
from repro.core.candidates import (
    CandidateSpace,
    enumerate_node_compositions,
    enumerate_symmetric_allocations,
    symmetric_counts_tensor,
)
from repro.core.delta import (
    DeltaResult,
    DeltaSearch,
    WorkloadDelta,
    diff_workloads,
)
from repro.core.bwshare import (
    NodeShare,
    RemainderRule,
    share_node_bandwidth,
    share_bandwidth_batch,
    share_node_bandwidth_batch,
)
from repro.core.fasteval import (
    FastEvaluator,
    ModelTables,
    ScoreCache,
    as_counts_batch,
    batched_app_gflops,
    check_oversubscription,
    workload_fingerprint,
)
from repro.core.model import (
    AppResult,
    GroupResult,
    NodeResult,
    NumaPerformanceModel,
    Prediction,
)
from repro.core.optimizer import (
    AnnealingSearch,
    ExhaustiveSearch,
    GreedySearch,
    HillClimbSearch,
    ScalarEvaluator,
    SearchResult,
    min_app_gflops,
    total_gflops,
    weighted_gflops,
)
from repro.core.policies import (
    AllocationPolicy,
    EvenSharePolicy,
    NodeExclusivePolicy,
    ProportionalDemandPolicy,
    SingleAppFillPolicy,
    UnevenSharePolicy,
)
from repro.core.roofline import Roofline, attainable_gflops
from repro.core.spec import AppSpec, Placement
from repro.core.worked import AppColumn, WorkedExample, worked_example

__all__ = [
    "AppSpec",
    "Placement",
    "ThreadAllocation",
    "Roofline",
    "attainable_gflops",
    "RemainderRule",
    "NodeShare",
    "share_node_bandwidth",
    "share_bandwidth_batch",
    "share_node_bandwidth_batch",
    "FastEvaluator",
    "ScalarEvaluator",
    "ModelTables",
    "ScoreCache",
    "as_counts_batch",
    "batched_app_gflops",
    "check_oversubscription",
    "workload_fingerprint",
    "NumaPerformanceModel",
    "Prediction",
    "AppResult",
    "GroupResult",
    "NodeResult",
    "AllocationPolicy",
    "EvenSharePolicy",
    "UnevenSharePolicy",
    "NodeExclusivePolicy",
    "ProportionalDemandPolicy",
    "SingleAppFillPolicy",
    "enumerate_symmetric_allocations",
    "enumerate_node_compositions",
    "symmetric_counts_tensor",
    "CandidateSpace",
    "ExhaustiveSearch",
    "GreedySearch",
    "HillClimbSearch",
    "AnnealingSearch",
    "DeltaSearch",
    "DeltaResult",
    "WorkloadDelta",
    "diff_workloads",
    "SearchResult",
    "total_gflops",
    "weighted_gflops",
    "min_app_gflops",
    "ResourceRequest",
    "ArbitrationOutcome",
    "FairShareArbiter",
    "AgentArbiter",
    "CooperativeConsensus",
    "WorkedExample",
    "AppColumn",
    "worked_example",
]
