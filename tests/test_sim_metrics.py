"""Unit tests for counters, time series, and rate integrators."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.metrics import Counter, MetricSet, RateIntegrator, TimeSeries


class TestCounter:
    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(2.5)
        assert c.value == 3.5

    def test_decrease_rejected(self):
        with pytest.raises(SimulationError):
            Counter("x").add(-1)


class TestTimeSeries:
    def test_record_and_arrays(self):
        s = TimeSeries("g")
        s.record(0.0, 1.0)
        s.record(1.0, 3.0)
        assert len(s) == 2
        assert np.allclose(s.times, [0.0, 1.0])
        assert s.last == 3.0
        assert s.max() == 3.0

    def test_time_must_not_decrease(self):
        s = TimeSeries("g")
        s.record(2.0, 1.0)
        with pytest.raises(SimulationError):
            s.record(1.0, 1.0)

    def test_time_weighted_mean(self):
        s = TimeSeries("g")
        s.record(0.0, 10.0)  # holds for 1s
        s.record(1.0, 0.0)  # holds for 3s
        s.record(4.0, 99.0)  # terminal, zero weight
        assert s.mean() == pytest.approx(10.0 / 4.0)

    def test_mean_needs_two_samples(self):
        s = TimeSeries("g")
        s.record(0.0, 1.0)
        with pytest.raises(SimulationError):
            s.mean()

    def test_empty_series_errors(self):
        s = TimeSeries("g")
        with pytest.raises(SimulationError):
            s.last
        with pytest.raises(SimulationError):
            s.max()


class TestRateIntegrator:
    def test_accumulate(self):
        r = RateIntegrator("flops")
        r.accumulate(0.0, 2.0, 5.0)
        r.accumulate(2.0, 3.0, 10.0)
        assert r.total == pytest.approx(20.0)
        assert r.average_rate(4.0) == pytest.approx(5.0)

    def test_validation(self):
        r = RateIntegrator("flops")
        with pytest.raises(SimulationError):
            r.accumulate(1.0, 0.0, 1.0)
        with pytest.raises(SimulationError):
            r.accumulate(0.0, 1.0, -1.0)
        with pytest.raises(SimulationError):
            r.average_rate(0.0)


class TestMetricSet:
    def test_autocreate_and_identity(self):
        m = MetricSet()
        assert m.counter("a") is m.counter("a")
        assert m.series("s") is m.series("s")
        assert m.integrator("i") is m.integrator("i")

    def test_snapshot(self):
        m = MetricSet()
        m.counter("tasks").add(3)
        m.integrator("flops").accumulate(0, 1, 2.0)
        snap = m.snapshot()
        assert snap["counter/tasks"] == 3
        assert snap["total/flops"] == 2.0
