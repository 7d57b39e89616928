"""The fast-path benchmark harness and its CLI entry point.

Speedup assertions here are deliberately loose (``> 1``) — CI machines
are noisy; the committed ``BENCH_model.json`` records the real numbers.
"""

import json
from unittest import mock

import pytest

from repro.__main__ import main
from repro.analysis.bench import (
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


def _exit_code(argv):
    """``main``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        # Loose (> 1) on purpose; BENCH_model.json records one run's
        # numbers (3.0x) and CI gates on steady_state_ms.
        assert report["delta"]["speedups"]["vs_full_cold"] > 1
        # A warm full search is one memo hit plus the exact re-score of
        # its winner, less work than a delta re-optimization, so
        # vs_full_warm sits below 1: check it makes no kernel call.
        machine, apps = delta_workload()
        search = ExhaustiveSearch(NumaPerformanceModel())
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

    def test_effective_cpus_positive(self):
        assert effective_cpus() >= 1


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

    @pytest.mark.parametrize(
        "option",
        [["--min-parallel-speedup", "1"], ["--workers", "2"]],
        ids=lambda o: o[0],
    )
    def test_pool_options_are_refused(self, option):
        assert _exit_code(["bench", "--smoke", *option]) == 2

    def test_committed_baseline_is_current_schema(self, report):
        # Only what any host's baseline holds: a fresh run's shape and
        # the workload's evaluation counts.  Its times are the host's.
        with open("BENCH_model.json", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert baseline["schema"] == "repro-bench/1"
        for committed, fresh in (
            (baseline, report),
            (baseline["delta"], report["delta"]),
        ):
            assert set(committed) == set(fresh)
            assert set(committed["ops"]) == set(fresh["ops"])
            assert set(committed["speedups"]) == set(fresh["speedups"])
        ops = baseline["ops"]
        assert baseline["candidates"] == 165
        for op in ("model/scalar", "model/batched",
                   "search/exhaustive_scalar", "search/exhaustive_fast"):
            assert ops[op]["evaluations"] == 165, op
        delta = baseline["delta"]
        assert delta["candidates"] == 24310
        for op in ("delta/full_cold", "delta/full_warm"):
            assert delta["ops"][op]["evaluations"] == 24310, op
        assert delta["ops"]["delta/steady_state"]["evaluations"] < 100
        host = baseline["host"]
        assert set(host) == set(report["host"])
        assert isinstance(host["effective_cpus"], int)
        assert host["effective_cpus"] >= 1
        for key in ("cpu_model", "numpy", "python"):
            assert isinstance(host[key], str) and host[key]
        # Mirrors CI's live gate (--min-speedup 5).
        assert baseline["speedups"]["search/exhaustive_fast"] >= 5.0
