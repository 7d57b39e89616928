"""The open-loop load harness: seeded arrival processes, percentile
math, DES compatibility of the schedules, and a real (small) run
through the live gateway."""

import asyncio
import json

import pytest

from repro.analysis.bench import host_stamp
from repro.errors import ServiceError
from repro.serve import LOAD_SCENARIOS, LoadScenario, run_load
from repro.serve.gateway import TokenBucket
from repro.serve.load import (
    diurnal_arrivals,
    percentile,
    poisson_arrivals,
)
from repro.sim import Simulator


class TestArrivalProcesses:
    def test_poisson_is_deterministic_in_seed(self):
        a = poisson_arrivals(rate=200.0, duration=2.0, seed=42)
        b = poisson_arrivals(rate=200.0, duration=2.0, seed=42)
        assert a == b
        assert a != poisson_arrivals(rate=200.0, duration=2.0, seed=43)

    def test_poisson_rate_and_range(self):
        times = poisson_arrivals(rate=500.0, duration=4.0, seed=0)
        assert all(0 <= t < 4.0 for t in times)
        assert times == tuple(sorted(times))
        # ~2000 expected; 5 sigma is ~±224.
        assert 1700 < len(times) < 2300

    def test_poisson_validation(self):
        with pytest.raises(ServiceError):
            poisson_arrivals(rate=0.0, duration=1.0, seed=0)
        with pytest.raises(ServiceError):
            poisson_arrivals(rate=1.0, duration=0.0, seed=0)

    def test_diurnal_is_deterministic_and_sorted(self):
        a = diurnal_arrivals(
            base_rate=20.0, peak_rate=100.0, period=1.0,
            duration=3.0, seed=7,
        )
        assert a == diurnal_arrivals(
            base_rate=20.0, peak_rate=100.0, period=1.0,
            duration=3.0, seed=7,
        )
        assert a == tuple(sorted(a))
        assert all(0 <= t < 3.0 for t in a)

    def test_diurnal_modulates_the_rate(self):
        # Rate is base at the period boundaries and peak mid-period, so
        # the middle half of each period must collect more arrivals.
        times = diurnal_arrivals(
            base_rate=10.0, peak_rate=200.0, period=2.0,
            duration=20.0, seed=3,
        )
        crest = sum(1 for t in times if 0.5 <= (t % 2.0) < 1.5)
        trough = len(times) - crest
        assert crest > 2 * trough

    def test_diurnal_mean_rate_between_base_and_peak(self):
        times = diurnal_arrivals(
            base_rate=50.0, peak_rate=150.0, period=1.0,
            duration=10.0, seed=11,
        )
        # Mean of the sinusoid is (base+peak)/2 = 100/s over whole
        # periods; 5 sigma on 1000 is ~±158.
        assert 840 < len(times) < 1160

    def test_diurnal_validation(self):
        with pytest.raises(ServiceError):
            diurnal_arrivals(
                base_rate=0.0, peak_rate=1.0, period=1.0,
                duration=1.0, seed=0,
            )
        with pytest.raises(ServiceError):
            diurnal_arrivals(
                base_rate=2.0, peak_rate=1.0, period=1.0,
                duration=1.0, seed=0,
            )


class TestPercentile:
    def test_interpolation(self):
        xs = [10.0, 20.0, 30.0, 40.0]
        assert percentile(xs, 0) == 10.0
        assert percentile(xs, 50) == 25.0
        assert percentile(xs, 100) == 40.0
        assert percentile(xs, 75) == pytest.approx(32.5)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_validation(self):
        with pytest.raises(ServiceError):
            percentile([], 50)
        with pytest.raises(ServiceError):
            percentile([1.0], 101)


class TestDesCompatibility:
    def test_schedule_drives_a_sim_clocked_token_bucket(self):
        """An arrival schedule + a sim-clocked bucket is deterministic.

        This is the DES form of the gateway's admission decision: the
        same pure schedule and the same bucket knobs produce the same
        accept/shed pattern on simulation time, with no event loop.
        """

        def run_once() -> list[bool]:
            sim = Simulator()
            bucket = TokenBucket(
                rate=50.0, burst=10, clock=lambda: sim.now
            )
            decisions: list[bool] = []
            for offset in poisson_arrivals(
                rate=200.0, duration=1.0, seed=5
            ):
                sim.schedule_at(
                    offset,
                    lambda: decisions.append(bucket.try_acquire()),
                )
            sim.run()
            return decisions

        first = run_once()
        assert first == run_once()
        # 200/s offered against a 50/s bucket: most are shed, the
        # 10-token burst plus refills are admitted.
        assert 30 < sum(first) < 90
        assert sum(first) < len(first) / 2


class TestScenarioLibrary:
    def test_ci_preset_exists(self):
        assert "open-loop-small" in LOAD_SCENARIOS
        assert "open-loop-large" in LOAD_SCENARIOS

    def test_every_scenario_generates_arrivals_and_configs(self):
        for scenario in LOAD_SCENARIOS.values():
            times = scenario.arrival_times(seed=0)
            assert times, scenario.name
            scenario.service_config()
            scenario.gateway_config(http=False)

    def test_large_preset_is_tens_of_thousands(self):
        big = LOAD_SCENARIOS["open-loop-large"]
        assert len(big.arrival_times(seed=0)) > 20_000

    def test_scenario_validation(self):
        with pytest.raises(ServiceError):
            LoadScenario(
                name="x", description="", arrival="uniform",
                rate=1.0, duration=1.0,
                reports_per_session=1, report_interval=0.1,
            )
        with pytest.raises(ServiceError):
            LoadScenario(
                name="x", description="", arrival="diurnal",
                rate=1.0, duration=1.0,
                reports_per_session=1, report_interval=0.1,
            )


TINY = LoadScenario(
    name="tiny",
    description="test-only: a handful of sessions",
    arrival="poisson",
    rate=40.0,
    duration=0.5,
    reports_per_session=1,
    report_interval=0.02,
    max_sessions=4,
    bucket_rate=2000.0,
    bucket_burst=200,
    slo_p99_ms=2000.0,
    min_admitted=1,
)


class TestRunLoad:
    def test_unknown_scenario_and_transport_rejected(self):
        with pytest.raises(ServiceError):
            run_load("no-such-scenario")
        with pytest.raises(ServiceError):
            run_load("open-loop-small", transport="carrier-pigeon")

    def test_tiny_run_reports_latency_and_sheds(self, monkeypatch):
        monkeypatch.setitem(LOAD_SCENARIOS, "tiny", TINY)
        report = run_load("tiny", seed=1)
        data = report.to_dict()
        assert data["schema"] == "repro-serve-bench/1"
        assert data["scenario"] == "tiny"
        for key in ("p50", "p95", "p99", "max", "mean", "count"):
            assert key in data["latency_ms"]
        assert data["latency_ms"]["count"] > 0
        assert (
            data["latency_ms"]["p50"]
            <= data["latency_ms"]["p95"]
            <= data["latency_ms"]["p99"]
            <= data["latency_ms"]["max"]
        )
        assert data["sessions"]["admitted"] >= 1
        assert (
            data["sessions"]["admitted"]
            + data["sessions"]["turned_away"]
            <= data["sessions"]["target"]
        )
        for key in (
            "gateway",
            "rate_limited",
            "queue_full",
            "sessions_cap",
            "service",
            "client_observed",
        ):
            assert key in data["shed"]
        assert data["service"]["reoptimizations"] >= 1
        assert data["service"]["coalescing"] >= 1.0
        # JSON round-trip and the human table both render.
        assert json.loads(report.to_json()) == data
        assert "sessions" in report.format()
        assert report.passed

    def test_report_records_its_host(self, monkeypatch):
        monkeypatch.setitem(LOAD_SCENARIOS, "tiny", TINY)
        report = run_load("tiny", seed=1)
        host = report.to_dict()["host"]
        assert host == host_stamp()
        assert f"host       {host['cpu_model']}" in report.format()

    def test_gate_override_fails_an_impossible_slo(self, monkeypatch):
        monkeypatch.setitem(LOAD_SCENARIOS, "tiny", TINY)
        report = run_load("tiny", seed=1, max_p99_ms=0.000001)
        assert not report.passed


class TestShedAccounting:
    @pytest.mark.parametrize(
        "scenario", ["open-loop-small", "open-loop-burst", "diurnal-small"]
    )
    def test_counted_overloaded_stages_sum_to_client_observed(
        self, scenario
    ):
        # Every `overloaded` reply a client saw was counted by exactly
        # one refusal stage: the token bucket, the admission queue, or
        # the registry's max_sessions cap.
        shed = run_load(scenario, seed=0).shed
        assert shed["client_observed"] > 0
        assert (
            shed["rate_limited"] + shed["queue_full"] + shed["sessions_cap"]
            == shed["client_observed"]
        )
