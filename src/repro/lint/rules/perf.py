"""Performance rules.

The observability layer's metric lookups
(``OBS.metrics.counter("name")``) hash the metric name and take the
registry lock on every call.  In a search inner loop that runs tens of
thousands of times per second, the lookup dominates the instrumented
work — the batched evaluation engine exists precisely because per-call
overhead compounds there.  PERF001 flags lookups inside loop bodies so
they get hoisted into a module- or instance-level handle
(:class:`~repro.obs.CounterHandle` and friends), which resolves the
name once and survives registry swaps.

PERF002 guards the other hot path this codebase has learned about the
hard way: churn-time re-optimization.  A full-space ``search()`` per
churn event costs O(space) — 24,310 model evaluations for ten apps on
the model machine — while :class:`~repro.core.delta.DeltaSearch`
repairs the previous answer in O(delta).  The rule flags full searches
inside event-handler-shaped functions that demonstrably track a
previous allocation (so a warm start was available and ignored);
deliberate full re-searches get ``# repro: noqa[PERF002]``.

PERF003 guards worker pools, the standard library's and
:mod:`repro.core.parallel`'s: spawning a worker pool costs process
forks, shared-memory setup and (under ``spawn``) a full interpreter
boot — tens to hundreds of milliseconds, against per-batch scoring
work measured in single-digit milliseconds.  A ``Pool`` /
``ProcessPoolExecutor`` / ``WorkerPool`` constructed inside a loop or
per handler invocation pays that tax on every round; pools must be
created once and reused (``repro.core.parallel.get_pool`` keeps a
process-wide registry precisely for this).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.engine import (
    FileContext,
    Rule,
    Severity,
    Violation,
    register,
)

__all__ = [
    "MetricLookupInLoop",
    "FullSearchInChurnPath",
    "PoolConstructionInLoop",
]

#: Registry factory methods whose per-call lookup cost PERF001 targets.
_METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _enclosing_loop(ctx: FileContext, node: ast.AST) -> ast.AST | None:
    """The innermost loop that re-evaluates ``node`` per iteration.

    That is the loop's body/else (and a ``while`` condition), but *not*
    a ``for``'s iterable, which evaluates once.  Stops at function
    boundaries: code in a nested function that merely happens to be
    *defined* inside a loop runs once per call, not once per iteration,
    and loop temperature is the callee's concern.
    """
    child: ast.AST = node
    for anc in ctx.parents(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        if isinstance(anc, _LOOPS):
            per_iteration = list(anc.body) + list(anc.orelse)
            if isinstance(anc, ast.While):
                per_iteration.append(anc.test)
            if any(child is part for part in per_iteration):
                return anc
        child = anc
    return None


def _is_metric_lookup(node: ast.Call) -> str | None:
    """The metric kind when ``node`` is ``<expr>.metrics.<kind>(...)``."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _METRIC_KINDS:
        return None
    owner = func.value
    if isinstance(owner, ast.Attribute) and owner.attr == "metrics":
        return func.attr
    return None


@register
class MetricLookupInLoop(Rule):
    """``OBS.metrics.counter(...)`` resolved inside a loop body.

    A warning rather than an error: a lookup in a cold loop (a shutdown
    sweep, a once-per-tick simulator step) is harmless, and the author
    is the one who knows the loop's temperature.  Hot paths should hoist
    the lookup into a :class:`~repro.obs.CounterHandle` /
    :class:`~repro.obs.GaugeHandle` / :class:`~repro.obs.HistogramHandle`
    created once; deliberate cold-loop lookups get
    ``# repro: noqa[PERF001]``.
    """

    rule_id = "PERF001"
    severity = Severity.WARNING
    summary = (
        "metric registry lookup (`*.metrics.counter/gauge/histogram`) "
        "inside a loop body; hoist it into a module- or instance-level "
        "metric handle (see repro.obs.CounterHandle)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield this rule's violations found in ``ctx``."""
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            kind = _is_metric_lookup(node)
            if kind is None:
                continue
            loop = _enclosing_loop(ctx, node)
            if loop is None:
                continue
            yield self.violation(
                ctx,
                node,
                f"`.metrics.{kind}(...)` re-resolves the metric on every "
                f"iteration of the loop at line {loop.lineno}; create the "
                f"{kind} handle once outside the loop "
                f"(repro.obs.{kind.capitalize()}Handle)",
            )


#: Function names that look like per-event / re-optimization handlers.
_HANDLER_NAME_RE = re.compile(
    r"^(?:on|handle)_|churn|reoptim|optimi[sz]e|decide"
)

#: Handler names plus the scoring-path verbs PERF003 also treats as hot.
_HOT_FUNC_NAME_RE = re.compile(
    r"^(?:on|handle)_|churn|reoptim|optimi[sz]e|decide|search|score"
    r"|evaluate"
)

#: Variable/attribute names that look like previous-answer state.
_PREV_NAME_RE = re.compile(r"prev|previous|last")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dotted_names(expr: ast.AST) -> str:
    """Every identifier along an attribute/call chain, lowercased."""
    parts: list[str] = []
    while True:
        if isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        elif isinstance(expr, ast.Call):
            expr = expr.func
        elif isinstance(expr, ast.Name):
            parts.append(expr.id)
            break
        else:
            break
    return " ".join(parts).lower()


def _is_full_search_call(node: ast.Call) -> bool:
    """``<receiver>.search(a, b, ...)`` with no 'delta' in the chain.

    Two positional arguments separate the optimizer protocol
    (``search(machine, apps)``) from unrelated ``.search`` methods such
    as compiled regexes; a receiver chain mentioning ``delta`` is
    already the incremental path.
    """
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "search":
        return False
    if len(node.args) < 2:
        return False
    return "delta" not in _dotted_names(func.value)


def _assign_target_name(target: ast.AST) -> str | None:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _names_previous_allocation(name: str, annotation: str) -> bool:
    if not _PREV_NAME_RE.search(name.lower()):
        return False
    return "alloc" in name.lower() or "ThreadAllocation" in annotation


def _tracks_previous_allocation(scope: ast.AST) -> str | None:
    """The previous-allocation name ``scope`` assigns, or ``None``.

    A scope "tracks a previous allocation" when it assigns a name
    matching ``prev``/``previous``/``last`` that is either explicitly
    allocation-flavoured (contains ``alloc``) or annotated as a
    :class:`~repro.core.allocation.ThreadAllocation`.
    """
    for node in ast.walk(scope):
        if isinstance(node, ast.AnnAssign):
            name = _assign_target_name(node.target)
            annotation = ast.unparse(node.annotation)
            if name and _names_previous_allocation(name, annotation):
                return name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                name = _assign_target_name(target)
                if name and _names_previous_allocation(name, ""):
                    return name
    return None


@register
class FullSearchInChurnPath(Rule):
    """Full-space ``search()`` on a churn path with a warm start in reach.

    Fires on ``<receiver>.search(machine, apps, ...)`` calls inside a
    function whose name looks like an event handler (``on_*``,
    ``handle_*``, or mentioning churn / re-optimization / ``decide``)
    when that function — or its enclosing class — assigns a
    previous-allocation name (``prev*``/``last*`` plus ``alloc`` in the
    name or a ``ThreadAllocation`` annotation).  Tracking the previous
    answer and then re-searching the whole space from scratch pays
    O(space) per event where :class:`~repro.core.delta.DeltaSearch`
    pays O(delta); see ``docs/OPTIMIZER.md``.

    A warning, not an error: a full re-search is sometimes the point
    (the delta searcher's own fall-back, an oracle check, a deliberate
    periodic re-plan).  Those sites document themselves with
    ``# repro: noqa[PERF002]``.
    """

    rule_id = "PERF002"
    severity = Severity.WARNING
    summary = (
        "full-space `.search(machine, apps)` in a churn/event-handler "
        "function that tracks a previous allocation; warm-start with "
        "repro.core.delta.DeltaSearch instead"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield this rule's violations found in ``ctx``."""
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            if not _is_full_search_call(node):
                continue
            func = cls = None
            for anc in ctx.parents(node):
                if func is None and isinstance(anc, _FUNCS):
                    func = anc
                elif func is not None and isinstance(anc, ast.ClassDef):
                    cls = anc
                    break
            if func is None or not _HANDLER_NAME_RE.search(
                func.name.lower()
            ):
                continue
            prev = _tracks_previous_allocation(func) or (
                cls is not None and _tracks_previous_allocation(cls)
            )
            if not prev:
                continue
            yield self.violation(
                ctx,
                node,
                f"`{func.name}` tracks the previous allocation "
                f"(`{prev}`) but re-searches the full space every "
                f"event; warm-start with DeltaSearch, or mark a "
                f"deliberate full re-search `# repro: noqa[PERF002]`",
            )


#: Constructor names that spawn a worker pool (stdlib and this repo's).
_POOL_NAME_RE = re.compile(
    r"^(?:Pool|ThreadPool|ProcessPoolExecutor|ThreadPoolExecutor|"
    r"WorkerPool)$"
)


def _pool_constructor_name(node: ast.Call) -> str | None:
    """The pool class name when ``node`` constructs a worker pool.

    Matches both the bare-name form (``WorkerPool(4)``,
    ``ProcessPoolExecutor(...)``) and the attribute form
    (``multiprocessing.Pool(...)``, ``ctx.Pool(...)``,
    ``concurrent.futures.ProcessPoolExecutor(...)``).
    """
    func = node.func
    if isinstance(func, ast.Name) and _POOL_NAME_RE.match(func.id):
        return func.id
    if isinstance(func, ast.Attribute) and _POOL_NAME_RE.match(func.attr):
        return func.attr
    return None


@register
class PoolConstructionInLoop(Rule):
    """A worker pool constructed per iteration or per handler call.

    Fires on ``Pool`` / ``ThreadPool`` / ``ProcessPoolExecutor`` /
    ``ThreadPoolExecutor`` / ``WorkerPool`` construction either inside
    a loop body, or inside a search/handler-shaped function (``on_*``,
    ``handle_*``, or a name mentioning churn / re-optimization /
    ``decide`` / ``search`` / ``score`` / ``evaluate``) — both shapes
    re-pay process spawn plus shared-memory setup on every round.
    Pools must be created once and reused:
    :func:`repro.core.parallel.get_pool` keeps a process-wide registry
    keyed by worker count.

    A warning, not an error: a pool built in a loop that runs once per
    process lifetime (a benchmark sweeping worker counts, a test
    parametrizing start methods) is legitimate — those sites document
    themselves with ``# repro: noqa[PERF003]``.
    """

    rule_id = "PERF003"
    severity = Severity.WARNING
    summary = (
        "worker pool (`Pool`/`ProcessPoolExecutor`/`WorkerPool`) "
        "constructed inside a loop or search/handler function; create "
        "it once and reuse it (repro.core.parallel.get_pool)"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield this rule's violations found in ``ctx``."""
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            name = _pool_constructor_name(node)
            if name is None:
                continue
            loop = _enclosing_loop(ctx, node)
            if loop is not None:
                yield self.violation(
                    ctx,
                    node,
                    f"`{name}(...)` spawns a fresh worker pool on every "
                    f"iteration of the loop at line {loop.lineno}; "
                    f"create it once outside the loop or reuse the "
                    f"registry (repro.core.parallel.get_pool)",
                )
                continue
            func = self._enclosing_hot_function(ctx, node)
            if func is not None:
                yield self.violation(
                    ctx,
                    node,
                    f"`{func.name}` constructs `{name}(...)` on every "
                    f"call — search/handler functions run per event, so "
                    f"the pool is re-spawned each time; hoist it to the "
                    f"owner's lifetime or use "
                    f"repro.core.parallel.get_pool",
                )

    @staticmethod
    def _enclosing_hot_function(
        ctx: FileContext, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost enclosing search/handler-shaped function."""
        for anc in ctx.parents(node):
            if isinstance(anc, _FUNCS):
                if _HOT_FUNC_NAME_RE.search(anc.name.lower()):
                    return anc
                return None
        return None
