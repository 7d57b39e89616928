"""Unified observability layer: spans, metrics, and exporters.

The paper's Figure 1 architecture stands on *monitoring* — the agent can
only steer per-NUMA-node thread counts because it observes application
progress.  This package gives the whole reproduction the same
measurement substrate:

* :mod:`repro.obs.tracer` — nested, timestamped :class:`Span` records
  with a thread-safe buffer (:class:`Tracer`, no-op :class:`NullTracer`);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, histograms, time series and rate integrators (generalising the
  simulator-local registry they started as);
* :mod:`repro.obs.export` — JSON-lines and Chrome ``chrome://tracing``
  trace-event exporters.

Instrumentation is wired into the hot paths (model prediction, the four
allocation searches, simulator ticks, runtime task execution, agent
decision rounds) through the process-wide :data:`OBS` facade and is
**zero-cost when disabled**: the default tracer is :data:`NULL_TRACER`
and every metric update is guarded by one ``OBS.enabled`` check.

Opt in for a scope::

    from repro import obs

    with obs.capture() as cap:
        ExhaustiveSearch().search(machine, apps)
    obs.write_chrome_trace("trace.json", cap.tracer, cap.metrics)

or process-wide with :func:`enable` / :func:`disable`, or from the CLI:
``python -m repro trace quickstart --export chrome --out trace.json``.
See ``docs/OBSERVABILITY.md`` for naming conventions and formats.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSet,
    MetricsRegistry,
    RateIntegrator,
    TimeSeries,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "RateIntegrator",
    "MetricSet",
    "MetricsRegistry",
    "Observability",
    "OBS",
    "CounterHandle",
    "GaugeHandle",
    "HistogramHandle",
    "Capture",
    "enable",
    "disable",
    "capture",
    "get_tracer",
    "get_metrics",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]


class Observability:
    """The process-wide observability switchboard.

    Instrumented call sites read three attributes: ``enabled`` (the
    single boolean hot paths branch on), ``tracer`` and ``metrics``.
    Mutate only through :func:`enable` / :func:`disable` /
    :func:`capture` so the flag and the tracer stay consistent.
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.tracer: Tracer = NULL_TRACER
        self.metrics: MetricsRegistry = MetricsRegistry()


#: The one switchboard instance every instrumented hot path consults.
OBS = Observability()


class _MetricHandle:
    """A call-site cache for one named metric.

    ``OBS.metrics.counter("x").add()`` performs a dict lookup (and a
    string hash) on every call — measurable when it sits inside a search
    inner loop scoring tens of thousands of candidates.  A handle is
    created once, where the instrumented object is constructed, and
    resolves the metric object a single time per registry: the fast path
    is one identity comparison.  Handles rebind automatically when the
    registry is swapped (:func:`enable` / :func:`capture`), so a handle
    created before a capture still records into that capture.
    """

    __slots__ = ("name", "_registry", "_metric")

    #: Which :class:`MetricsRegistry` accessor resolves this handle.
    _kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._registry: MetricsRegistry | None = None
        self._metric = None

    def _resolve(self):
        registry = OBS.metrics
        if registry is not self._registry:
            self._metric = getattr(registry, self._kind)(self.name)
            self._registry = registry
        return self._metric


class CounterHandle(_MetricHandle):
    """Hoisted :class:`Counter` accessor (see :class:`_MetricHandle`)."""

    __slots__ = ()
    _kind = "counter"

    def add(self, amount: float = 1.0) -> None:
        """Increment the counter by ``amount``."""
        self._resolve().add(amount)


class GaugeHandle(_MetricHandle):
    """Hoisted :class:`Gauge` accessor (see :class:`_MetricHandle`)."""

    __slots__ = ()
    _kind = "gauge"

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._resolve().set(value)


class HistogramHandle(_MetricHandle):
    """Hoisted :class:`Histogram` accessor (see :class:`_MetricHandle`)."""

    __slots__ = ()
    _kind = "histogram"

    def record(self, value: float) -> None:
        """Add one observation."""
        self._resolve().record(value)


@dataclass(frozen=True)
class Capture:
    """What :func:`capture` yields: the active tracer and registry."""

    tracer: Tracer
    metrics: MetricsRegistry


def enable(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> Tracer:
    """Turn instrumentation on process-wide; returns the active tracer.

    A fresh :class:`Tracer` is installed unless one is supplied; the
    existing metrics registry is kept unless replaced.
    """
    OBS.tracer = tracer if tracer is not None else Tracer()
    if metrics is not None:
        OBS.metrics = metrics
    OBS.enabled = True
    return OBS.tracer


def disable() -> None:
    """Turn instrumentation off (restores the no-op tracer)."""
    OBS.enabled = False
    OBS.tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The currently installed tracer (:data:`NULL_TRACER` when off)."""
    return OBS.tracer


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return OBS.metrics


@contextmanager
def capture(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> Iterator[Capture]:
    """Enable instrumentation for a scope, restoring prior state after.

    Installs a fresh tracer *and* a fresh metrics registry (unless
    given), so a capture never mixes with ambient measurements::

        with capture() as cap:
            run_workload()
        write_chrome_trace("trace.json", cap.tracer, cap.metrics)
    """
    new_tracer = tracer if tracer is not None else Tracer()
    new_metrics = metrics if metrics is not None else MetricsRegistry()
    previous = (OBS.enabled, OBS.tracer, OBS.metrics)
    OBS.tracer = new_tracer
    OBS.metrics = new_metrics
    OBS.enabled = True
    try:
        yield Capture(tracer=new_tracer, metrics=new_metrics)
    finally:
        OBS.enabled, OBS.tracer, OBS.metrics = previous
