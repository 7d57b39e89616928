"""The fast-path benchmark harness and its CLI entry point.

Speedup assertions here are deliberately loose (``> 1``) — CI machines
are noisy; the committed ``BENCH_model.json`` records the real numbers.
"""

import json
from unittest import mock

import pytest

from repro.__main__ import main
from repro.analysis.bench import (
    _parallel_worker_counts,
    _run_parallel_bench,
    bench_workload,
    delta_workload,
    effective_cpus,
    format_report,
    host_stamp,
    run_bench,
    write_report,
)
from repro.core import model as model_module
from repro.core.model import NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch


@pytest.fixture(scope="module")
def report():
    return run_bench(smoke=True, annealing_steps=50)


class TestRunBench:
    def test_schema_and_ops(self, report):
        assert report["schema"] == "repro-bench/1"
        assert report["mode"] == "smoke"
        assert report["candidates"] == 165
        expected = {
            "model/scalar",
            "model/batched",
            "search/exhaustive_scalar",
            "search/exhaustive_fast",
            "search/greedy_scalar",
            "search/greedy_fast",
            "search/hillclimb_scalar",
            "search/hillclimb_fast",
            "search/annealing_scalar",
            "search/annealing_fast",
        }
        assert set(report["ops"]) == expected
        for stats in report["ops"].values():
            assert stats["seconds"] > 0
            assert stats["evals_per_sec"] > 0

    def test_fast_paths_actually_faster(self, report):
        assert report["speedups"]["model/batched"] > 1
        assert report["speedups"]["search/exhaustive_fast"] > 1

    def test_both_exhaustive_paths_count_all_candidates(self, report):
        assert report["ops"]["search/exhaustive_scalar"]["evaluations"] == 165
        assert report["ops"]["search/exhaustive_fast"]["evaluations"] == 165

    def test_format_report(self, report):
        text = format_report(report)
        assert "model/batched" in text
        assert "speedup" in text

    def test_write_report_round_trips(self, report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report

    def test_workload_is_the_paper_machine(self):
        machine, apps = bench_workload()
        assert machine.num_nodes == 4
        assert len(apps) == 4

    def test_delta_section_schema(self, report):
        delta = report["delta"]
        assert delta["apps"] == 10
        assert delta["candidates"] == 24310
        assert set(delta["ops"]) == {
            "delta/full_cold",
            "delta/full_warm",
            "delta/steady_state",
        }
        for stats in delta["ops"].values():
            assert stats["seconds"] > 0
        assert delta["steady_state_ms"] > 0

    def test_delta_beats_full_re_search(self, report):
        # Loose (> 1) on purpose; BENCH_model.json records the real
        # numbers (hundreds of x) and CI gates on steady_state_ms.
        assert report["delta"]["speedups"]["vs_full_cold"] > 1
        # A warm full search is one memo hit plus the exact re-score of
        # its winner, less work than a delta re-optimization, so
        # vs_full_warm sits below 1: check it makes no kernel call.
        machine, apps = delta_workload()
        search = ExhaustiveSearch(NumaPerformanceModel(workers=0))
        cold = search.search(machine, apps)
        with mock.patch.object(
            model_module,
            "batched_app_gflops",
            wraps=model_module.batched_app_gflops,
        ) as kernel:
            warm = search.search(machine, apps)
        assert kernel.call_count == 0
        assert warm.allocation.as_mapping() == cold.allocation.as_mapping()

    def test_delta_path_is_sublinear_in_the_space(self, report):
        steady = report["delta"]["ops"]["delta/steady_state"]
        assert steady["evaluations"] < 24310 / 10

    def test_delta_workload_is_ten_apps(self):
        machine, apps = delta_workload()
        assert len(apps) == 10
        assert len({a.name for a in apps}) == 10
        assert machine.name == bench_workload()[0].name

    def test_format_report_includes_delta(self, report):
        text = format_report(report)
        assert "delta/steady_state" in text
        assert "steady-state delta re-optimization" in text

    def test_report_records_its_host(self, report):
        host = report["host"]
        assert host == host_stamp()
        assert host["effective_cpus"] == effective_cpus()
        for key in ("cpu_model", "numpy", "python"):
            assert isinstance(host[key], str) and host[key]
        assert f"host: {host['cpu_model']}" in format_report(report)

    def test_no_parallel_section_without_workers(self, report):
        assert "parallel" not in report


class TestParallelBench:
    @pytest.fixture(scope="class")
    def parallel(self):
        return _run_parallel_bench(repeats=1, workers=2)

    def test_worker_count_rungs(self):
        assert _parallel_worker_counts(1) == [1]
        assert _parallel_worker_counts(2) == [2]
        assert _parallel_worker_counts(4) == [2, 4]
        assert _parallel_worker_counts(3) == [2, 3]
        assert _parallel_worker_counts(8) == [2, 4, 8]

    def test_effective_cpus_positive(self):
        assert effective_cpus() >= 1

    def test_section_schema(self, parallel):
        assert parallel["apps"] == 10
        assert parallel["candidates"] == 24310
        assert parallel["worker_counts"] == [2]
        assert set(parallel["serial"]) == {"exhaustive", "hillclimb"}
        entry = parallel["workers"]["2"]
        assert set(entry) == {"exhaustive", "hillclimb", "pool"}
        assert set(parallel["speedups"]) == {
            "exhaustive_w2",
            "hillclimb_w2",
        }

    def test_parallel_answers_byte_identical(self, parallel):
        assert parallel["identical"] is True
        for op in ("exhaustive", "hillclimb"):
            assert parallel["workers"]["2"][op]["identical"] is True

    def test_pool_spawned_and_released(self, parallel):
        from repro.core.parallel import pool_stats

        if parallel["shared_memory"]:
            assert parallel["workers"]["2"]["pool"]["spawned"] is True
            assert parallel["workers"]["2"]["pool"]["calls"] > 0
        # The bench releases its pools; nothing leaks into the registry.
        assert 2 not in pool_stats()

    def test_format_report_includes_parallel(self, parallel):
        report = run_bench(smoke=True, annealing_steps=50)
        report["parallel"] = parallel
        text = format_report(report)
        assert "process-parallel search" in text
        assert "exhaustive (2 workers)" in text
        if parallel["effective_cpus"] < 2:
            assert "single CPU" in text


class TestBenchCli:
    def test_json_mode(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "--smoke",
                "--json",
                "--min-speedup",
                "0",
                "--max-delta-ms",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["schema"] == "repro-bench/1"
        assert json.loads(out.read_text()) == printed

    def test_impossible_gate_fails(self, capsys):
        code = main(["bench", "--smoke", "--min-speedup", "1e9"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_impossible_delta_gate_fails(self, capsys):
        code = main(
            [
                "bench",
                "--smoke",
                "--min-speedup",
                "0",
                "--max-delta-ms",
                "1e-9",
            ]
        )
        assert code == 1
        assert "delta" in capsys.readouterr().err

    def test_every_failing_gate_is_reported(self, capsys):
        code = main(
            [
                "bench",
                "--smoke",
                "--min-speedup",
                "1e9",
                "--max-delta-ms",
                "1e-9",
            ]
        )
        assert code == 1
        fails = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("FAIL:")
        ]
        assert len(fails) == 2
        assert "speedup" in fails[0] and "delta" in fails[1]

    def test_parallel_gate_requires_workers(self, capsys):
        code = main(
            ["bench", "--smoke", "--min-parallel-speedup", "1.0"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_committed_baseline_is_current_schema(self):
        with open("BENCH_model.json", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert baseline["schema"] == "repro-bench/1"
        assert baseline["speedups"]["search/exhaustive_fast"] >= 5.0
        assert baseline["delta"]["steady_state_ms"] < 1.0
        assert baseline["delta"]["speedups"]["vs_full_cold"] > 10

    def test_committed_baseline_has_parallel_section(self):
        with open("BENCH_model.json", encoding="utf-8") as fh:
            baseline = json.load(fh)
        parallel = baseline["parallel"]
        assert parallel["identical"] is True
        assert 4 in parallel["worker_counts"]
        assert "exhaustive_w4" in parallel["speedups"]
        if parallel["effective_cpus"] >= 4:
            # Only meaningful where the cores existed at record time.
            assert parallel["speedups"]["exhaustive_w4"] >= 2.0
