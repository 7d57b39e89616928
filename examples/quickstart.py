#!/usr/bin/env python3
"""Quickstart: predict NUMA co-scheduling performance with the model.

Builds the paper's worked-example machine (4 NUMA nodes x 8 cores, 10
GFLOPS/core, 32 GB/s/node), describes four co-located applications, and
compares thread allocations — ending with an exhaustive search for the
best one.

Run:  python examples/quickstart.py
"""

from repro.analysis import render_table
from repro.core import (
    AppSpec,
    EvenSharePolicy,
    ExhaustiveSearch,
    NodeExclusivePolicy,
    NumaPerformanceModel,
    ThreadAllocation,
    UnevenSharePolicy,
    min_app_gflops,
)
from repro.machine import model_machine


def main() -> None:
    machine = model_machine()
    print(machine.describe())
    print()

    # Three memory-bound applications (AI = 0.5) and one compute-bound
    # (AI = 10) — the paper's Tables I/II workload.
    apps = [
        AppSpec.memory_bound("mem0", 0.5),
        AppSpec.memory_bound("mem1", 0.5),
        AppSpec.memory_bound("mem2", 0.5),
        AppSpec.compute_bound("comp", 10.0),
    ]
    model = NumaPerformanceModel()

    allocations = {
        "uneven (1,1,1,5)": UnevenSharePolicy(
            {"mem0": 1, "mem1": 1, "mem2": 1, "comp": 5}
        ).allocate(machine, apps),
        "even (2,2,2,2)": EvenSharePolicy().allocate(machine, apps),
        "node-exclusive": NodeExclusivePolicy().allocate(machine, apps),
    }

    rows = []
    for name, alloc in allocations.items():
        pred = model.predict(machine, apps, alloc)
        rows.append(
            [
                name,
                pred.total_gflops,
                pred.app("comp").gflops,
                pred.app("mem0").gflops,
            ]
        )
    print(
        render_table(
            ["allocation", "total GFLOPS", "comp", "each mem"],
            rows,
            title="Paper scenarios (Figure 2):",
        )
    )
    print()

    # Search the whole symmetric space for the throughput optimum...
    best = ExhaustiveSearch().search(machine, apps)
    print(f"throughput optimum: {best.score:.1f} GFLOPS "
          f"with {best.allocation}")
    # ...and for the max-min-fair optimum, which cannot starve anyone.
    fair = ExhaustiveSearch(objective=min_app_gflops).search(machine, apps)
    print(
        f"max-min-fair optimum: worst app gets "
        f"{fair.score:.1f} GFLOPS "
        f"with {fair.allocation}"
    )


if __name__ == "__main__":
    main()
