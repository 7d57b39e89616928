"""Process-wide metric primitives: counters, gauges, histograms, series.

This module generalises the simulator-local registry the metric
primitives started as.  Experiments and instrumented hot paths need
five things:

* :class:`Counter` — monotonically increasing event counts (tasks
  executed, model evaluations, agent commands);
* :class:`Gauge` — a value that moves both ways (best score so far,
  runnable threads, queue length);
* :class:`Histogram` — a distribution of observations (prediction
  latencies);
* :class:`TimeSeries` — timestamped gauge samples (bandwidth per slice);
* :class:`RateIntegrator` — a piecewise-constant rate integrated into a
  total (FLOPs from GFLOPS).

All of them store plain Python floats and convert to NumPy arrays only
on demand, so recording stays O(1) per sample.  The registries'
get-or-create paths are thread-safe (double-checked under a lock);
individual metric mutation relies on single-writer use or GIL-atomic
appends, which is all the instrumented call sites need.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "RateIntegrator",
    "MetricSet",
    "MetricsRegistry",
]


@dataclass
class Counter:
    """A monotonically increasing event counter."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter '{self.name}' cannot decrease (amount={amount})"
            )
        self.value += amount


@dataclass
class Gauge:
    """A value that can move in both directions (a level, not a count)."""

    name: str
    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)
        self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.set(self.value - amount)


@dataclass
class Histogram:
    """A distribution of observed values (e.g. per-call latencies).

    Stores raw observations; summary statistics are computed on demand,
    so :meth:`record` stays a single list append.
    """

    name: str
    _values: list[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        """Add one observation."""
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return float(sum(self._values))

    @property
    def values(self) -> np.ndarray:
        """All observations as an array, in recording order."""
        return np.asarray(self._values)

    def min(self) -> float:
        """Smallest observation."""
        self._require_data("min")
        return float(np.min(self._values))

    def max(self) -> float:
        """Largest observation."""
        self._require_data("max")
        return float(np.max(self._values))

    def mean(self) -> float:
        """Arithmetic mean of the observations."""
        self._require_data("mean")
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), linearly interpolated."""
        if not 0 <= q <= 100:
            raise ObservabilityError(
                f"histogram '{self.name}': percentile {q} outside [0, 100]"
            )
        self._require_data("percentile")
        return float(np.percentile(self._values, q))

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean/p50/p99 as a flat dict."""
        if not self._values:
            return {"count": 0.0, "sum": 0.0}
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min(),
            "max": self.max(),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def _require_data(self, what: str) -> None:
        if not self._values:
            raise ObservabilityError(
                f"histogram '{self.name}' is empty ({what} undefined)"
            )


@dataclass
class TimeSeries:
    """Timestamped samples of a gauge."""

    name: str
    _times: list[float] = field(default_factory=list)
    _values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self._times and time < self._times[-1] - 1e-12:
            raise ObservabilityError(
                f"time series '{self.name}': sample at {time} after "
                f"{self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps as an array."""
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values)

    @property
    def last(self) -> float:
        """Most recent value."""
        if not self._values:
            raise ObservabilityError(f"time series '{self.name}' is empty")
        return self._values[-1]

    def mean(self) -> float:
        """Time-weighted mean of the series (trapezoid-free: step-wise).

        Each sample's value is assumed to hold until the next sample.  The
        final sample gets zero weight (its holding interval is unknown), so
        a series needs at least two samples.
        """
        if len(self._times) < 2:
            raise ObservabilityError(
                f"time series '{self.name}' needs >= 2 samples for a mean"
            )
        t = self.times
        v = self.values
        dt = np.diff(t)
        span = t[-1] - t[0]
        if span <= 0:
            return float(v[:-1].mean())
        return float((v[:-1] * dt).sum() / span)

    def max(self) -> float:
        """Largest sample value."""
        if not self._values:
            raise ObservabilityError(f"time series '{self.name}' is empty")
        return float(np.max(self._values))


@dataclass
class RateIntegrator:
    """Integrates a piecewise-constant rate into a total.

    Used for FLOPs (integrate GFLOPS over seconds) and bytes moved
    (integrate GB/s).
    """

    name: str
    total: float = 0.0
    _last_time: float | None = None

    def accumulate(self, start: float, end: float, rate: float) -> None:
        """Add ``rate * (end - start)`` to the total."""
        if end < start:
            raise ObservabilityError(
                f"integrator '{self.name}': end {end} before start {start}"
            )
        if rate < 0:
            raise ObservabilityError(
                f"integrator '{self.name}': negative rate {rate}"
            )
        self.total += rate * (end - start)
        self._last_time = end

    def average_rate(self, duration: float) -> float:
        """Total divided by ``duration`` (e.g. achieved GFLOPS)."""
        if duration <= 0:
            raise ObservabilityError(
                f"integrator '{self.name}': non-positive duration {duration}"
            )
        return self.total / duration


_M = TypeVar("_M")


class MetricSet:
    """A named registry of metrics, auto-creating on first use.

    Creation is thread-safe: concurrent first requests for the same name
    resolve to one shared object.  The fast path (the metric already
    exists) is a single dict lookup, so per-slice recording in the
    simulator stays cheap.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._series: dict[str, TimeSeries] = {}
        self._integrators: dict[str, RateIntegrator] = {}

    def _get_or_make(
        self, table: dict[str, _M], name: str, factory: Callable[[str], _M]
    ) -> _M:
        obj = table.get(name)
        if obj is None:
            with self._lock:
                obj = table.get(name)
                if obj is None:
                    obj = factory(name)
                    table[name] = obj
        return obj

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_make(self._counters, name, Counter)

    def series(self, name: str) -> TimeSeries:
        """Get or create the time series ``name``."""
        return self._get_or_make(self._series, name, TimeSeries)

    def integrator(self, name: str) -> RateIntegrator:
        """Get or create the rate integrator ``name``."""
        return self._get_or_make(self._integrators, name, RateIntegrator)

    def counters(self) -> Iterator[Counter]:
        """All counters, in creation order."""
        return iter(self._counters.values())

    def snapshot(self) -> dict[str, float]:
        """Flat dict of counter values and integrator totals."""
        out: dict[str, float] = {}
        for c in self._counters.values():
            out[f"counter/{c.name}"] = c.value
        for i in self._integrators.values():
            out[f"total/{i.name}"] = i.total
        return out


class MetricsRegistry(MetricSet):
    """The full metric registry: counters, gauges, histograms, series.

    One process-wide instance backs the instrumented hot paths (see
    :data:`repro.obs.OBS`); the execution simulator keeps a private one
    per machine instance.  Extends :class:`MetricSet` — everything that
    accepted a ``MetricSet`` accepts a registry.
    """

    def __init__(self) -> None:
        super().__init__()
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_make(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_make(self._histograms, name, Histogram)

    def gauges(self) -> Iterator[Gauge]:
        """All gauges, in creation order."""
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        """All histograms, in creation order."""
        return iter(self._histograms.values())

    def snapshot(self) -> dict[str, float]:
        """Flat dict of every metric's current value(s).

        Keys follow the exporter convention: ``counter/<name>``,
        ``total/<name>`` (integrators), ``gauge/<name>`` and
        ``hist/<name>/<stat>``.
        """
        out = super().snapshot()
        for g in self._gauges.values():
            out[f"gauge/{g.name}"] = g.value
        for h in self._histograms.values():
            for stat, value in h.summary().items():
                out[f"hist/{h.name}/{stat}"] = value
        return out

    def clear(self) -> None:
        """Drop every metric (a fresh registry without rebinding it)."""
        with self._lock:
            self._counters.clear()
            self._series.clear()
            self._integrators.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._series)
            + len(self._integrators)
            + len(self._gauges)
            + len(self._histograms)
        )
