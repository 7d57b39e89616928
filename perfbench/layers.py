"""Per-layer timing for traced benchmark runs.

:func:`install` wraps the public functions of every layer the serve
path crosses with thin timers, inside the service process and before
the gateway starts.  Each wrapper patches the binding its caller
actually resolves -- the ``decode_message``/``encode_message`` names
bound in :mod:`repro.serve.gateway` and :mod:`repro.serve.server`,
``batched_app_gflops`` as bound in :mod:`repro.core.model`, methods on
their classes -- so nothing under ``src/`` changes.

Samples are kept in memory for one segment -- the timed stretch of the
run, opened once the initial population is allocated -- and summarised
into the per-layer metrics of ``BENCHMARK.json`` when the service
exits.  Outside the segment a wrapper costs one attribute read.
Counters the program already keeps (gateway commands and sheds,
quarantines, degraded re-optimizations, ``ScoreCache.hits``/``misses``)
are read, not wrapped.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from perfbench.stats import mean, percentile

__all__ = ["Recorder", "install", "MOVES", "HANDLED"]

_ns = time.perf_counter_ns

#: Command kinds whose handler time is reported separately.
HANDLED = ("register", "deregister", "progress-report", "query-allocation")

#: Which end-to-end number each layer's numbers should move, and on
#: which workloads -- the prediction each per-layer metric is read
#: against (longest matching name prefix wins).  ``ack_*`` and the
#: first_alloc tail are printed by every run but are not metrics of
#: ``BENCHMARK.json`` (see :mod:`perfbench.run`).
MOVES = (
    ("loadgen.", "validity of every number", "all"),
    ("protocol.", "cmds_per_cpu_s, ack_p50_ms", "report-durable; little on churn-full"),
    ("gateway.", "ack_p50_ms, ack_tail_ms, ok_share",
     "all; on churn-full the wait is mostly time behind a search"),
    ("service.handle_", "cmds_per_cpu_s (writes vs reads), ack_p50_ms",
     "report-durable, churn-delta"),
    ("service.debounce_", "first_alloc_p50_ms", "churn-delta"),
    ("service.", "first_alloc_*, ack_tail_ms", "churn-full most, churn-delta"),
    ("service.pushes", "first_alloc_*", "churn workloads"),
    ("service.quarantines", "first_alloc_* (expected 0)", "churn workloads"),
    ("service.degraded", "first_alloc_* (expected 0)", "churn workloads"),
    ("persist.", "cmds_per_cpu_s, ack_*", "report-durable only"),
    ("delta.", "first_alloc_*, ack_tail_ms", "churn-delta only"),
    ("optimizer.", "first_alloc_*, ack_tail_ms",
     "churn-full; churn-delta only through fallbacks"),
    ("candidates.enumerate", "first_alloc_*", "churn-full"),
    ("candidates.moves", "first_alloc_*", "churn-delta"),
    ("model.", "first_alloc_*", "churn-full"),
    ("fasteval.", "first_alloc_*", "churn-full; no change predicted on churn-delta"),
    ("parallel.", "first_alloc_*", "churn-full once the pool is on; 0 at defaults"),
)


def moves_of(metric: str) -> tuple[str, str]:
    """``(moves, on)`` of the longest :data:`MOVES` prefix of ``metric``."""
    best = max((p for p in MOVES if metric.startswith(p[0])), key=lambda p: len(p[0]))
    return best[1], best[2]


class Segment:
    """Samples of the timed stretch of a traced run."""

    def __init__(self, counters: dict[str, int], epoch: int) -> None:
        #: key -> durations in nanoseconds
        self.times: defaultdict[str, list[int]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.fallbacks: Counter = Counter()
        self.start = counters
        self.end: dict[str, int] | None = None
        #: registry epoch at the last re-optimization (coalescing)
        self.epoch = epoch
        #: service clock of the oldest churn no re-optimization absorbed
        self.churn_at: float | None = None


class Recorder:
    """Collects the :class:`Segment` of one service process."""

    def __init__(self) -> None:
        #: the open segment; wrappers record only while it is set
        self.segment: Segment | None = None
        #: the segment once :meth:`stop` closed it
        self.closed: Segment | None = None
        self.gateway = None
        self.service = None

    def attach(self, gateway, service) -> None:
        """Bind the running gateway and service whose counters are read."""
        self.gateway, self.service = gateway, service

    def _counters(self) -> dict[str, int]:
        gateway, service = self.gateway, self.service
        cache = service.model.cache
        return {
            "gateway.commands": gateway.commands,
            "gateway.shed": gateway.shed,
            "service.quarantines": service.quarantines,
            "service.degraded": service.degraded_reoptimizations,
            "cache.hits": cache.hits if cache is not None else 0,
            "cache.misses": cache.misses if cache is not None else 0,
        }

    def start(self) -> None:
        """Open the segment; samples go there until :meth:`stop`."""
        self.segment = Segment(self._counters(), self.service.registry.epoch)

    def stop(self) -> None:
        """Close the open segment."""
        if self.segment is not None:
            self.segment.end = self._counters()
            self.closed, self.segment = self.segment, None

    def summary(self) -> dict | None:
        """Per-layer metrics (and diagnostics) of the closed segment."""
        return summarize(self.closed) if self.closed is not None else None


def summarize(seg: Segment) -> dict:
    """The per-layer metrics of a segment, plus budget diagnostics."""
    t, c = seg.times, seg.counts
    delta = {k: seg.end[k] - seg.start[k] for k in seg.start}

    def pct(key: str, q: int, scale: float) -> float:
        return percentile(t[key], q) / scale if t[key] else 0.0

    def avg(key: str, scale: float) -> float:
        return mean(t[key]) / scale

    def top(key: str, scale: float) -> float:
        return max(t[key]) / scale if t[key] else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    reopts = len(t["reopt"])
    searches = len(t["delta"])
    lookups = delta["cache.hits"] + delta["cache.misses"]
    moves = len(t["moves"])
    metrics = {
        "protocol.calls": len(t["decode"]) + len(t["encode"]),
        "protocol.decode_us_mean": avg("decode", 1e3),
        "protocol.encode_us_mean": avg("encode", 1e3),
        "gateway.commands": delta["gateway.commands"],
        "gateway.shed": delta["gateway.shed"],
        "gateway.queue_wait_ms_p50": pct("queue_wait", 50, 1e6),
        "gateway.queue_wait_ms_p99": pct("queue_wait", 99, 1e6),
        **{
            f"service.handle_us_mean.{kind}": avg(f"handle.{kind}", 1e3)
            for kind in HANDLED
        },
        "service.debounce_wait_ms_p50": pct("debounce_wait", 50, 1e6),
        "service.reopts": reopts,
        "service.coalescing": share(c["epochs"], reopts),
        "service.reopt_ms_p50": pct("reopt", 50, 1e6),
        "service.reopt_ms_max": top("reopt", 1e6),
        "service.pushes": c["pushes"],
        "service.quarantines": delta["service.quarantines"],
        "service.degraded": delta["service.degraded"],
        "persist.appends": len(t["append"]),
        "persist.append_us_p50": pct("append", 50, 1e3),
        "persist.append_us_p99": pct("append", 99, 1e3),
        "persist.compactions": len(t["compact"]),
        "persist.compact_ms_mean": avg("compact", 1e6),
        "delta.searches": searches,
        "delta.search_ms_p50": pct("delta", 50, 1e6),
        "delta.search_ms_max": top("delta", 1e6),
        "delta.evals_per_search": share(c["delta.evals"], searches),
        "delta.fallback_share": share(sum(seg.fallbacks.values()), searches),
        "optimizer.exhaustive_calls": len(t["exhaustive"]),
        "optimizer.exhaustive_ms_p50": pct("exhaustive", 50, 1e6),
        "optimizer.exact_ms_mean": avg("exact", 1e6),
        "candidates.enumerate_ms_mean": avg("enumerate", 1e6),
        "candidates.moves_ms_mean": share(
            sum(t["moves"]) + sum(t["moves_batch"]), moves
        ) / 1e6,
        "model.score_calls": len(t["score"]),
        "model.score_rows": c["score.rows"],
        "model.score_ms_p50": pct("score", 50, 1e6),
        "fasteval.kernel_rows": c["kernel.rows"],
        "fasteval.kernel_ms_total": sum(t["kernel"]) / 1e6,
        "fasteval.tables_builds": len(t["tables"]),
        "fasteval.cache_hit_ratio": share(delta["cache.hits"], lookups),
        "parallel.calls": len(t["parallel"]),
        "parallel.rows": c["parallel.rows"],
        "parallel.fallbacks": c["parallel.fallbacks"],
    }
    handled = sum(len(t[f"handle.{kind}"]) for kind in HANDLED)
    handled_ns = sum(sum(t[f"handle.{kind}"]) for kind in HANDLED)
    return {
        "metrics": metrics,
        "fallback_reasons": dict(seg.fallbacks),
        "handle_ms_mean": share(handled_ns, handled) / 1e6,
        "handled": handled,
    }


def install(rec: Recorder) -> None:
    """Wrap every traced layer function; call once, before serving."""
    from repro.core import candidates, fasteval, model, optimizer, parallel
    from repro.core.delta import DeltaSearch
    from repro.serve import gateway, persist, server, service

    def timed(owner, attr, key, after=None, static=False):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            seg = rec.segment
            if seg is None:
                return original(*args, **kwargs)
            t0 = _ns()
            result = original(*args, **kwargs)
            seg.times[key].append(_ns() - t0)
            if after is not None:
                after(seg, args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def rows(key):
        def count(seg, args, result):
            seg.counts[key] += len(args[1])

        return count

    def parallel_rows(seg, args, result):
        seg.counts["parallel.rows"] += len(args[1])
        if result is None:
            seg.counts["parallel.fallbacks"] += 1

    def score_rows(seg, args, result):
        seg.counts["score.rows"] += len(result)

    for module in (gateway, server):
        timed(module, "decode_message", "decode")
        timed(module, "encode_message", "encode")
    timed(persist.Journal, "append", "append")
    timed(persist.Journal, "compact", "compact")
    timed(optimizer.ExhaustiveSearch, "search", "exhaustive")
    timed(model.NumaPerformanceModel, "predict", "exact")
    timed(model.NumaPerformanceModel, "predict_scores", "score", score_rows)
    timed(model, "batched_app_gflops", "kernel", rows("kernel.rows"))
    timed(fasteval.ModelTables, "build", "tables", static=True)
    timed(candidates.CandidateSpace, "symmetric_tensor", "enumerate")
    timed(candidates.CandidateSpace, "composition_moves", "moves")
    timed(candidates.CandidateSpace, "composition_batch", "moves_batch")
    timed(parallel, "parallel_app_gflops", "parallel", parallel_rows)

    allocation_service = service.AllocationService
    handle = allocation_service.handle
    reoptimize = allocation_service.reoptimize
    subscribe = allocation_service.subscribe
    delta_search = DeltaSearch.search

    @functools.wraps(handle)
    def traced_handle(self, message, *, received_at=None):
        seg = rec.segment
        if seg is None:
            return handle(self, message, received_at=received_at)
        now = self.clock()
        if received_at is not None:
            seg.times["queue_wait"].append(int((now - received_at) * 1e9))
        t0 = _ns()
        reply = handle(self, message, received_at=received_at)
        seg.times["handle." + message.TYPE].append(_ns() - t0)
        if (
            seg.churn_at is None
            and reply.TYPE == "ack"
            and message.TYPE in ("register", "deregister")
        ):
            seg.churn_at = now
        return reply

    @functools.wraps(reoptimize)
    def traced_reoptimize(self):
        seg = rec.segment
        if seg is None:
            return reoptimize(self)
        if not any(True for _ in self.registry.active_sessions()):
            # Nothing to allocate (a warm-up population just left): no
            # search runs, so it is not counted as a re-optimization.
            seg.churn_at = None
            seg.epoch = self.registry.epoch
            return reoptimize(self)
        if seg.churn_at is not None:
            seg.times["debounce_wait"].append(
                int((self.clock() - seg.churn_at) * 1e9)
            )
            seg.churn_at = None
        epoch = self.registry.epoch
        seg.counts["epochs"] += epoch - seg.epoch
        seg.epoch = epoch
        t0 = _ns()
        reoptimize(self)
        seg.times["reopt"].append(_ns() - t0)

    @functools.wraps(subscribe)
    def traced_subscribe(self, name, push):
        def counted(message):
            seg = rec.segment
            if (
                seg is not None
                and message.TYPE == "allocation"
                and message.in_reply_to is None
            ):
                seg.counts["pushes"] += 1
            push(message)

        subscribe(self, name, counted)

    @functools.wraps(delta_search)
    def traced_delta(self, machine, apps, **kwargs):
        seg = rec.segment
        if seg is None:
            return delta_search(self, machine, apps, **kwargs)
        t0 = _ns()
        outcome = delta_search(self, machine, apps, **kwargs)
        seg.times["delta"].append(_ns() - t0)
        seg.counts["delta.evals"] += outcome.result.evaluations
        if outcome.fallback_reason is not None:
            seg.fallbacks[outcome.fallback_reason] += 1
        return outcome

    allocation_service.handle = traced_handle
    allocation_service.reoptimize = traced_reoptimize
    allocation_service.subscribe = traced_subscribe
    DeltaSearch.search = traced_delta
