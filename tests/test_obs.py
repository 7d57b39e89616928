"""Unit tests for the observability layer (repro.obs).

Covers the tracer (nesting, LIFO enforcement, thread safety), the
registry additions (gauges, histograms, concurrent get-or-create), both
exporters (JSON-lines round-trip, Chrome trace-event schema), the
global enable/disable/capture lifecycle, hot-path instrumentation
integration, and the zero-cost-when-disabled guarantee.
"""

import json
import threading
import time

import pytest

from repro import obs
from repro.errors import ObservabilityError, SimulationError
from repro.obs import (
    NULL_TRACER,
    OBS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    capture,
    disable,
    enable,
    get_metrics,
    get_tracer,
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with instrumentation disabled."""
    disable()
    yield
    disable()


def _fake_clock(start=0.0, step=1.0):
    """Deterministic clock: 0, 1, 2, ... (or custom start/step)."""
    state = {"t": start - step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


class TestSpan:
    def test_duration_and_finished(self):
        s = Span(name="a", span_id=1, parent_id=None, thread_id=0, start=2.0)
        assert not s.finished
        assert s.duration is None
        s.end = 5.0
        assert s.finished
        assert s.duration == 3.0

    def test_dict_round_trip(self):
        s = Span(
            name="x/y",
            span_id=7,
            parent_id=3,
            thread_id=42,
            start=1.0,
            end=2.0,
            attrs={"k": "v", "n": 3},
        )
        assert Span.from_dict(s.to_dict()) == s


class TestTracerNesting:
    def test_parent_child_ids(self):
        t = Tracer(clock=_fake_clock())
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [s.name for s in t.spans]
        assert names == ["inner", "outer"]  # completion order

    def test_sibling_spans_share_parent(self):
        t = Tracer()
        with t.span("root") as root:
            with t.span("a") as a:
                pass
            with t.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_attrs_and_timestamps(self):
        t = Tracer(clock=_fake_clock())
        with t.span("op", key="val") as sp:
            sp.attrs["extra"] = 1
        assert sp.attrs == {"key": "val", "extra": 1}
        assert sp.start == 0.0 and sp.end == 1.0

    def test_exception_annotates_and_propagates(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (sp,) = t.spans
        assert sp.finished
        assert sp.attrs["error"] == "ValueError"

    def test_manual_start_finish_lifo(self):
        t = Tracer()
        a = t.start("a")
        b = t.start("b")
        with pytest.raises(ObservabilityError):
            t.finish(a)  # b is still open
        t.finish(b)
        t.finish(a)
        assert len(t) == 2

    def test_observability_error_is_simulation_error(self):
        assert issubclass(ObservabilityError, SimulationError)

    def test_current(self):
        t = Tracer()
        assert t.current() is None
        with t.span("s") as sp:
            assert t.current() is sp
        assert t.current() is None

    def test_instant_is_zero_duration_child(self):
        t = Tracer(clock=_fake_clock())
        with t.span("parent") as parent:
            mark = t.instant("tick", n=1)
        assert mark.duration == 0.0
        assert mark.parent_id == parent.span_id
        assert mark.attrs == {"n": 1}

    def test_record_explicit_times(self):
        t = Tracer()
        sp = t.record("sim/window", 10.0, 12.5, label="w")
        assert sp.start == 10.0 and sp.end == 12.5
        with pytest.raises(ObservabilityError):
            t.record("bad", 2.0, 1.0)

    def test_filter_and_clear(self):
        t = Tracer()
        with t.span("a", keep=True):
            pass
        with t.span("b"):
            pass
        assert [s.name for s in t.filter(name="a")] == ["a"]
        assert [
            s.name for s in t.filter(predicate=lambda s: "keep" in s.attrs)
        ] == ["a"]
        t.clear()
        assert len(t) == 0

    def test_iteration(self):
        t = Tracer()
        with t.span("only"):
            pass
        assert [s.name for s in t] == ["only"]


class TestTracerThreads:
    def test_threads_nest_independently(self):
        t = Tracer()
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)
        errors = []

        def work(idx):
            try:
                barrier.wait()
                for i in range(per_thread):
                    with t.span(f"w{idx}", i=i) as outer:
                        with t.span(f"w{idx}/inner") as inner:
                            assert inner.parent_id == outer.span_id
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(t) == n_threads * per_thread * 2
        # span ids are unique across threads
        ids = [s.span_id for s in t.spans]
        assert len(ids) == len(set(ids))
        # each inner span's parent lives on the same thread
        by_id = {s.span_id: s for s in t.spans}
        for s in t.spans:
            if s.parent_id is not None:
                assert by_id[s.parent_id].thread_id == s.thread_id

    def test_registry_concurrent_get_or_create(self):
        reg = MetricsRegistry()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        seen = []

        def work():
            barrier.wait()
            for _ in range(200):
                reg.counter("shared").add()
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        # all threads resolved the same Counter object
        assert all(c is seen[0] for c in seen)
        assert reg.counter("shared").value == n_threads * 200


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("level")
        g.set(10.0)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0
        assert g.updates == 3

    def test_inc_accepts_negative(self):
        g = Gauge("g")
        g.inc(-3.0)
        assert g.value == -3.0


class TestHistogram:
    def test_record_and_stats(self):
        h = Histogram("lat")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.record(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min() == 1.0
        assert h.max() == 4.0
        assert h.mean() == 2.5
        assert h.percentile(50) == 2.5
        assert len(h) == 4
        assert list(h.values) == [1.0, 2.0, 3.0, 4.0]

    def test_summary_keys(self):
        h = Histogram("lat")
        h.record(1.0)
        assert set(h.summary()) == {
            "count", "sum", "min", "max", "mean", "p50", "p99",
        }
        assert Histogram("empty").summary() == {"count": 0.0, "sum": 0.0}

    def test_empty_stats_raise(self):
        h = Histogram("empty")
        for fn in (h.min, h.max, h.mean):
            with pytest.raises(ObservabilityError):
                fn()
        with pytest.raises(ObservabilityError):
            h.percentile(50)

    def test_percentile_range_checked(self):
        h = Histogram("h")
        h.record(1.0)
        with pytest.raises(ObservabilityError):
            h.percentile(101)


class TestMetricsRegistry:
    def test_auto_create_and_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 3

    def test_snapshot_keys(self):
        reg = MetricsRegistry()
        reg.counter("c").add(2)
        reg.gauge("g").set(7.0)
        reg.histogram("h").record(1.0)
        reg.integrator("i").accumulate(0.0, 2.0, 3.0)
        snap = reg.snapshot()
        assert snap["counter/c"] == 2
        assert snap["gauge/g"] == 7.0
        assert snap["hist/h/count"] == 1.0
        assert snap["total/i"] == 6.0

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("c").add()
        reg.gauge("g").set(1.0)
        reg.clear()
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_iterators(self):
        reg = MetricsRegistry()
        reg.gauge("a")
        reg.gauge("b")
        reg.histogram("h")
        assert [g.name for g in reg.gauges()] == ["a", "b"]
        assert [h.name for h in reg.histograms()] == ["h"]


class TestJsonlExport:
    def _traced(self):
        t = Tracer(clock=_fake_clock())
        with t.span("outer", policy="even"):
            with t.span("inner", n=3):
                pass
        t.instant("mark")
        return t

    def test_round_trip(self, tmp_path):
        t = self._traced()
        path = str(tmp_path / "spans.jsonl")
        assert write_jsonl(path, t) == 3
        assert read_jsonl(path) == list(t.spans)

    def test_to_jsonl_one_object_per_line(self):
        t = self._traced()
        lines = to_jsonl(t).splitlines()
        assert len(lines) == 3
        for line in lines:
            rec = json.loads(line)
            assert {"name", "span_id", "start", "end"} <= set(rec)

    def test_empty_tracer(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        assert write_jsonl(path, Tracer()) == 0
        assert read_jsonl(path) == []

    def test_bad_record_raises_with_location(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write("not json\n")
        with pytest.raises(ObservabilityError, match="bad.jsonl:1"):
            read_jsonl(path)


class TestChromeExport:
    def test_schema(self):
        t = Tracer(clock=_fake_clock(start=100.0))
        with t.span("optimizer/greedy", apps=2):
            pass
        t.instant("agent/mark")
        reg = MetricsRegistry()
        reg.counter("c").add(5)
        doc = to_chrome_trace(t, reg)
        events = doc["traceEvents"]
        assert events, "traceEvents must be non-empty"
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "C", "M"}
        for e in events:
            assert e["ph"] in {"X", "i", "C", "M"}
            assert e["pid"] == 1
            if "ts" in e:
                assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0
        # timestamps are normalised: earliest span at 0 µs
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0
        # instants are thread-scoped
        assert all(e["s"] == "t" for e in events if e["ph"] == "i")
        # metric snapshot rides along as a counter track
        counters = [e for e in events if e["ph"] == "C"]
        assert {c["name"] for c in counters} == {"counter/c"}
        assert counters[0]["args"]["value"] == 5
        json.dumps(doc)  # must be serialisable as-is

    def test_thread_ids_renumbered(self):
        t = Tracer()
        with t.span("main"):
            pass

        def other():
            with t.span("worker"):
                pass

        th = threading.Thread(target=other)
        th.start()
        th.join()
        doc = to_chrome_trace(t)
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {0, 1}

    def test_non_serialisable_attrs_stringified(self):
        t = Tracer()
        with t.span("op", obj=object(), ok=1):
            pass
        doc = to_chrome_trace(t)
        (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert isinstance(ev["args"]["obj"], str)
        assert ev["args"]["ok"] == 1
        json.dumps(doc)

    def test_write_returns_event_count(self, tmp_path):
        t = Tracer()
        with t.span("a"):
            pass
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, t)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == count
        assert doc["displayTimeUnit"] == "ms"


class TestGlobalState:
    def test_default_is_disabled_null_tracer(self):
        assert OBS.enabled is False
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer() is NULL_TRACER

    def test_enable_disable(self):
        tracer = enable()
        assert OBS.enabled
        assert get_tracer() is tracer
        assert not isinstance(tracer, NullTracer)
        disable()
        assert not OBS.enabled
        assert get_tracer() is NULL_TRACER

    def test_enable_keeps_metrics_unless_replaced(self):
        before = get_metrics()
        enable()
        assert get_metrics() is before
        fresh = MetricsRegistry()
        enable(metrics=fresh)
        assert get_metrics() is fresh

    def test_capture_installs_fresh_and_restores(self):
        prev_tracer, prev_metrics = OBS.tracer, OBS.metrics
        with capture() as cap:
            assert OBS.enabled
            assert OBS.tracer is cap.tracer
            assert OBS.metrics is cap.metrics
            assert cap.tracer is not prev_tracer
            assert cap.metrics is not prev_metrics
        assert not OBS.enabled
        assert OBS.tracer is prev_tracer
        assert OBS.metrics is prev_metrics

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert not OBS.enabled

    def test_nested_capture(self):
        with capture() as outer:
            with capture() as inner:
                assert OBS.tracer is inner.tracer
            assert OBS.tracer is outer.tracer

    def test_all_exports_resolve(self):
        for name in obs.__all__:
            assert getattr(obs, name) is not None


class TestInstrumentationIntegration:
    """The hot paths actually record through OBS when enabled."""

    def _machine_and_apps(self):
        from repro.core.model import NumaPerformanceModel
        from repro.core.spec import AppSpec
        from repro.machine import model_machine

        machine = model_machine()
        apps = [
            AppSpec.compute_bound("a", 10.0),
            AppSpec.memory_bound("b", 0.5),
        ]
        return NumaPerformanceModel(), machine, apps

    @staticmethod
    def _alloc(machine, apps):
        from repro.core.allocation import ThreadAllocation

        return ThreadAllocation.uniform(
            [a.name for a in apps], machine.num_nodes, 2
        )

    def test_model_predict_counts(self):
        model, machine, apps = self._machine_and_apps()
        alloc = self._alloc(machine, apps)
        with capture() as cap:
            model.predict(machine, apps, alloc)
            model.predict(machine, apps, alloc)
        assert cap.metrics.counter("model/predictions").value == 2
        assert cap.metrics.histogram("model/predict_seconds").count == 2

    def test_optimizer_search_span_and_metrics(self):
        from repro.core.optimizer import GreedySearch

        model, machine, apps = self._machine_and_apps()
        with capture() as cap:
            result = GreedySearch(model=model).search(machine, apps)
        spans = cap.tracer.filter(name="optimizer/greedy")
        assert len(spans) == 1
        assert spans[0].attrs["score"] == result.score
        assert spans[0].attrs["evaluations"] == result.evaluations
        assert (
            cap.metrics.counter("optimizer/evaluations").value
            == result.evaluations
        )
        assert cap.metrics.gauge("optimizer/best_score").value == result.score

    def test_agent_round_spans(self):
        from repro.obs.demo import run_trace_target

        with capture() as cap:
            run_trace_target("agent")
        rounds = cap.tracer.filter(name="agent/round")
        assert rounds
        assert cap.metrics.counter("agent/rounds").value == len(rounds)
        commands = cap.tracer.filter(name="agent/command")
        assert commands  # the alignment strategy does issue commands
        for sp in commands:
            assert "runtime" in sp.attrs
            assert "command" in sp.attrs
            assert "threads_before" in sp.attrs
            assert "threads_after" in sp.attrs
        assert cap.metrics.counter("agent/commands").value == len(commands)
        # sim + runtime instrumentation rode along
        snap = cap.metrics.snapshot()
        assert snap["counter/sim/events"] > 0
        assert snap["counter/sim/ticks"] > 0
        assert any(k.startswith("counter/runtime/") for k in snap)

    def test_disabled_records_nothing(self):
        model, machine, apps = self._machine_and_apps()
        alloc = self._alloc(machine, apps)
        baseline_metrics = len(get_metrics())
        model.predict(machine, apps, alloc)
        assert len(get_tracer()) == 0
        assert len(get_metrics()) == baseline_metrics


class TestNoOpOverhead:
    def test_disabled_not_measurably_slower(self):
        """Smoke bound: the disabled path stays within 1.5x of enabled.

        (Being *faster* disabled is the design goal; this only guards
        against a pathological regression, so the bound is loose.)
        """
        from repro.core.allocation import ThreadAllocation
        from repro.core.model import NumaPerformanceModel
        from repro.core.spec import AppSpec
        from repro.machine import model_machine

        machine = model_machine()
        apps = [AppSpec.compute_bound("a", 10.0)]
        alloc = ThreadAllocation.uniform(["a"], machine.num_nodes, 2)
        model = NumaPerformanceModel()
        n = 300

        def run_n():
            t0 = time.perf_counter()
            for _ in range(n):
                model.predict(machine, apps, alloc)
            return time.perf_counter() - t0

        run_n()  # warm caches
        disabled, enabled = [], []
        # Interleaved rounds compared by their minimums: host noise only
        # ever adds time, so one slow round cannot decide the check.
        for _ in range(5):
            disabled.append(run_n())
            with capture():
                enabled.append(run_n())
        assert min(disabled) <= min(enabled) * 1.5
