"""Serve-path benchmark of the allocation service.

The service runs in its own process behind the gateway's TCP listener
(:mod:`perfbench.service`); a seeded, single-threaded asyncio load
generator (:mod:`perfbench.loadgen`) drives it over at most two
connections.  One command runs one workload with one seed::

    python3 perfbench/run.py --workload churn-delta --seed 1 \\
        --seconds 30 --trace 0

and prints every end-to-end metric of ``BENCHMARK.json`` as the last
line of its standard output; ``--trace 1`` repeats the workload with
timing wrappers installed around each layer's public functions
(:mod:`perfbench.layers`) and prints the per-layer metrics instead.

Modules:

* :mod:`perfbench.workloads` -- the workload table and the seeded,
  pure schedule builders (who registers when, who leaves, heartbeats);
* :mod:`perfbench.stats` -- percentiles and the tail-percentile rule;
* :mod:`perfbench.oracle` -- output checks: per-epoch workloads rebuilt
  from the generator's own acks, node capacity, the offline
  ``ExhaustiveSearch`` optimum;
* :mod:`perfbench.layers` -- per-layer timing wrappers for traced runs;
* :mod:`perfbench.service` -- the service launcher (child process);
* :mod:`perfbench.loadgen` -- the load generator;
* :mod:`perfbench.run` -- the command line entry point.

The pure modules are unit-tested by ``python3 -m pytest perfbench/tests``.
"""
