"""The whole-space kernel is bit-identical to the dense kernel it replaced.

:func:`~repro.core.fasteval.batched_app_gflops` routes only the apps
that read another node's memory, water-fills every node in one call and
scores a batch in row blocks.  None of that may change a float: the
full-mode oracle compares search results byte for byte, and a flipped
last bit can break an exact tie.  This file freezes the dense kernel
(with its per-node water-fill and over-subscription check) as a
reference and asserts ``np.array_equal`` against it — never a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fasteval
from repro.core.bwshare import RemainderRule, share_bandwidth_batch
from repro.core.candidates import symmetric_counts_tensor
from repro.core.fasteval import ModelTables, batched_app_gflops
from repro.core.spec import AppSpec, Placement
from repro.errors import ModelError, OversubscriptionError
from repro.machine import (
    heterogeneous_machine,
    knl_flat,
    knl_snc4,
    model_machine,
    numa_bad_example_machine,
    skylake_4s,
    uma_machine,
)
from repro.machine.topology import MachineTopology

# -- the frozen reference: the dense kernel, verbatim ----------------------

_EPS = 1e-12


def reference_share_node_bandwidth_batch(
    capacity, num_cores, demands, counts, *, rule=RemainderRule.PROPORTIONAL
):
    if num_cores <= 0:
        raise ModelError(f"num_cores must be positive, got {num_cores}")
    cap = np.asarray(capacity, dtype=float)
    d = np.asarray(demands, dtype=float)
    w = np.asarray(counts, dtype=float)
    if cap.ndim != 1 or d.ndim != 1 or w.shape != (cap.shape[0], d.shape[0]):
        raise ModelError(
            f"inconsistent batch shapes: capacity {cap.shape}, demands "
            f"{d.shape}, counts {w.shape}"
        )
    if np.any(cap < 0):
        raise ModelError("capacity must be non-negative")
    if np.any(d < 0):
        raise ModelError("demands must be non-negative")
    if np.any(w < 0):
        raise ModelError("counts must be non-negative")
    if np.any(w.sum(axis=1) > num_cores):
        raise ModelError(
            f"a batch row allocates more threads than the node's "
            f"{num_cores} cores (no-over-subscription assumption)"
        )

    baseline = cap / num_cores  # (B,)
    per_thread = np.minimum(d[None, :], baseline[:, None])  # (B, G)
    remaining = np.maximum(cap - (w * per_thread).sum(axis=1), 0.0)  # (B,)
    unmet = np.maximum(d[None, :] - baseline[:, None], 0.0)  # (B, G)
    total_unmet = (w * unmet).sum(axis=1)  # (B,)
    satisfied = total_unmet <= remaining + _EPS  # whole batch row fits

    if rule is RemainderRule.PROPORTIONAL:
        denom = np.where(total_unmet > _EPS, total_unmet, 1.0)
        extra = remaining[:, None] * unmet / denom[:, None]
    else:  # EVEN: find the water level tau per batch row
        order = np.argsort(d, kind="stable")
        us = unmet[:, order]  # ascending per row (unmet is monotone in d)
        ws = w[:, order]
        weighted = ws * us
        cum_fill = np.cumsum(weighted, axis=1)  # fill groups 0..j fully
        cum_threads = np.cumsum(ws, axis=1)
        threads_from = cum_threads[:, -1:] - (cum_threads - ws)  # >= j
        # Cost of raising the level to us[:, j]: groups below j capped,
        # everyone from j up at the level.
        level_cost = (cum_fill - weighted) + threads_from * us
        reachable = level_cost >= remaining[:, None] - _EPS
        j = np.argmax(reachable, axis=1)  # first affordable level
        rows = np.arange(cap.shape[0])
        pool = threads_from[rows, j]
        tau = (remaining - (cum_fill - weighted)[rows, j]) / np.where(
            pool > 0, pool, 1.0
        )
        tau = np.maximum(tau, 0.0)
        extra_sorted = np.minimum(us, tau[:, None])
        extra = np.empty_like(extra_sorted)
        extra[:, order] = extra_sorted
    extra = np.where(satisfied[:, None], unmet, extra)
    return w * (per_thread + extra)


def reference_check_oversubscription(tables, counts):
    per_node = counts.sum(axis=1)  # (B, N)
    over = per_node > tables.cores_per_node[None, :]
    if np.any(over):
        b, n = np.argwhere(over)[0]
        raise OversubscriptionError(
            f"candidate {b}: node {n} gets {per_node[b, n]} threads but "
            f"has only {tables.cores_per_node[n]} cores"
        )


def reference_batched_app_gflops(tables, counts, rule):
    reference_check_oversubscription(tables, counts)
    cf = counts.astype(float)
    n_nodes = tables.link.shape[0]
    # Routing tensor: route[b, a, s, m] = demand app a's threads on s
    # place on memory m.
    route = cf[:, :, :, None] * tables.route_per_thread[None]
    remote_demand = route.sum(axis=1)  # (B, S, M)

    # Phase 1 — remote service: cap each foreign flow by its link, then
    # scale flows into a node down proportionally if they exceed the
    # node's bandwidth.
    off_diagonal = ~np.eye(n_nodes, dtype=bool)
    served = np.minimum(remote_demand, tables.link[None]) * off_diagonal
    total_remote = served.sum(axis=1)  # (B, M)
    over_cap = total_remote > tables.node_capacity[None, :]
    scale = np.where(
        over_cap,
        tables.node_capacity[None, :] / np.where(over_cap, total_remote, 1.0),
        1.0,
    )
    served *= scale[:, None, :]

    # Split each served flow among its contributing groups in proportion
    # to their demand.
    ratio = np.divide(
        served,
        remote_demand,
        out=np.zeros_like(served),
        where=remote_demand > 0,
    )
    remote_grant = np.einsum("basm,bsm->bas", route, ratio)

    # Phase 2 — local arbitration on what remains of each node.
    remote_served = served.sum(axis=1)  # (B, M)
    capacity = np.maximum(
        tables.node_capacity[None, :] - remote_served, 0.0
    )
    local_grant = np.empty_like(remote_grant)  # (B, A, N)
    for m in range(n_nodes):
        local_grant[:, :, m] = reference_share_node_bandwidth_batch(
            capacity[:, m],
            int(tables.cores_per_node[m]),
            tables.local_demand[:, m],
            cf[:, :, m],
            rule=rule,
        )

    bandwidth = local_grant + remote_grant  # (B, A, S)
    gflops = np.minimum(
        bandwidth * tables.intensity[None, :, None],
        tables.peak_per_thread[None] * cf,
    )
    return gflops.sum(axis=2)


# -- workloads -------------------------------------------------------------

PRESETS = {
    "paper-model-4x8": model_machine,
    "numa-bad": numa_bad_example_machine,
    "skylake-4s": skylake_4s,
    "knl-flat": knl_flat,
    "knl-snc4": knl_snc4,
    "uma-8c": uma_machine,
    "hetero-2big-2small": heterogeneous_machine,
}

PLACEMENT_MIXES = {
    "mixed": list(Placement),
    "all-numa-perfect": [Placement.NUMA_PERFECT],
    "all-remote": [Placement.SINGLE_NODE, Placement.INTERLEAVED],
}

#: Largest symmetric space a property example enumerates.
_MAX_SYMMETRIC = 20_000

BATCH_KINDS = ["symmetric", "0", "1", "block-1", "block", "block+1", "few"]


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


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
    machine = draw(machines())
    placements = PLACEMENT_MIXES[draw(st.sampled_from(sorted(PLACEMENT_MIXES)))]
    apps = []
    for a in range(draw(st.integers(1, 12))):
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
    return machine, apps


def random_counts(rng, machine, n_apps, batch):
    """A feasible ``(batch, apps, nodes)`` tensor, any occupancy."""
    counts = np.zeros((batch, n_apps, machine.num_nodes), dtype=np.int64)
    for node in machine.nodes:
        threads = rng.integers(node.num_cores + 1, size=batch)
        share = rng.dirichlet(np.ones(n_apps))
        counts[:, :, node.node_id] = rng.multinomial(threads, share)
    return counts


def symmetric_size(machine, n_apps):
    """Rows of the symmetric space, or ``None`` for unequal nodes."""
    if len(set(machine.cores_per_node)) != 1:
        return None
    return math.comb(machine.cores_per_node[0] + n_apps - 1, n_apps - 1)


def batch_for(kind, machine, n_apps, seed):
    rng = np.random.default_rng(seed)
    size = symmetric_size(machine, n_apps)
    if kind == "symmetric" and size is not None and size <= _MAX_SYMMETRIC:
        return symmetric_counts_tensor(machine, n_apps)
    block = fasteval._block_rows(n_apps, machine.num_nodes)
    rows = {
        "0": 0,
        "1": 1,
        "block-1": block - 1,
        "block": block,
        "block+1": block + 1,
    }.get(kind, int(rng.integers(2, 40)))
    return random_counts(rng, machine, n_apps, rows)


def assert_identical(machine, apps, counts, rule):
    tables = ModelTables.build(machine, apps, rule)
    expected = reference_batched_app_gflops(tables, counts, rule)
    got = batched_app_gflops(tables, counts, rule)
    assert got.shape == expected.shape == (len(counts), len(apps))
    assert np.array_equal(got, expected)


# -- the properties --------------------------------------------------------


class TestKernelIsBitIdentical:
    @settings(max_examples=80, deadline=None)
    @given(
        workload=workloads(),
        rule=st.sampled_from(list(RemainderRule)),
        kind=st.sampled_from(BATCH_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_workloads(self, workload, rule, kind, seed):
        machine, apps = workload
        counts = batch_for(kind, machine, len(apps), seed)
        assert_identical(machine, apps, counts, rule)

    @pytest.mark.parametrize("rule", list(RemainderRule))
    def test_ten_app_symmetric_space(self, rule):
        machine = model_machine()
        apps = [
            AppSpec.memory_bound(f"mem-{i}", 0.2 + 0.1 * i) for i in range(5)
        ] + [
            AppSpec.compute_bound("cpu-0", 4.0),
            AppSpec.compute_bound("cpu-1", 8.0),
            AppSpec.numa_bad("bad-0", 0.5, home_node=0),
            AppSpec.numa_bad("bad-3", 1.5, home_node=3),
            AppSpec(
                name="spread",
                arithmetic_intensity=0.3,
                placement=Placement.INTERLEAVED,
            ),
        ]
        counts = symmetric_counts_tensor(machine, len(apps))
        assert len(counts) == 24_310
        assert_identical(machine, apps, counts, rule)

    def test_oversubscription_past_the_first_block(self, monkeypatch):
        machine = model_machine()
        apps = [
            AppSpec.memory_bound("mem", 0.5),
            AppSpec.numa_bad("bad", 1.0, home_node=1),
            AppSpec.compute_bound("cpu", 10.0),
        ]
        tables = ModelTables.build(machine, apps, RemainderRule.PROPORTIONAL)
        block = fasteval._block_rows(len(apps), machine.num_nodes)
        space = symmetric_counts_tensor(machine, len(apps))
        counts = np.resize(space, (2 * block + 3,) + space.shape[1:])
        counts[block + 2, :, 2] = [4, 3, 2]  # node 2: 9 threads on 8 cores
        with pytest.raises(OversubscriptionError) as want:
            reference_batched_app_gflops(
                tables, counts, RemainderRule.PROPORTIONAL
            )

        def never(*args):
            raise AssertionError("a block was scored before the check")

        monkeypatch.setattr(fasteval, "_score_block", never)
        with pytest.raises(OversubscriptionError) as got:
            batched_app_gflops(tables, counts, RemainderRule.PROPORTIONAL)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"candidate {block + 2}: node 2 ")


class TestWaterFillIsBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(
        rule=st.sampled_from(list(RemainderRule)),
        nodes=st.integers(1, 5),
        groups=st.integers(1, 12),
        rows=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_all_nodes_match_per_node_calls(
        self, rule, nodes, groups, rows, seed
    ):
        rng = np.random.default_rng(seed)
        cores = rng.integers(1, 13, size=nodes)
        capacity = rng.uniform(0.0, 100.0, size=(rows, nodes))
        capacity[rng.random((rows, nodes)) < 0.1] = 0.0
        demands = rng.uniform(0.0, 30.0, size=(nodes, groups))
        demands[rng.random((nodes, groups)) < 0.2] = 0.0
        counts = np.zeros((rows, nodes, groups))
        for n in range(nodes):
            threads = rng.integers(cores[n] + 1, size=rows)
            counts[:, n] = rng.multinomial(
                threads, rng.dirichlet(np.ones(groups))
            )
        got = share_bandwidth_batch(
            capacity, cores, demands, counts, rule=rule
        )
        assert got.shape == (rows, nodes, groups)
        for n in range(nodes):
            expected = reference_share_node_bandwidth_batch(
                capacity[:, n],
                int(cores[n]),
                demands[n],
                counts[:, n],
                rule=rule,
            )
            assert np.array_equal(got[:, n], expected)
