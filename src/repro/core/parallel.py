"""Process-parallel candidate scoring over shared-memory score tensors.

Nothing in the program calls this module: the model scores every batch
with the serial kernel in-process (``docs/PERFORMANCE.md``, "Why
scoring is serial").  It stays only because the serve-path benchmark
imports it: ``perfbench/layers.py`` wraps :func:`parallel_app_gflops`
in traced runs, and ``BENCHMARK.json`` lists the ``parallel.*``
metrics read from that wrapper.  Both change only with the benchmark,
and the module goes when they drop it.

Design
------
* **Shared-memory tensors, zero pickling.**  The ``(B, apps, nodes)``
  counts tensor, the per-workload :class:`~repro.core.fasteval.
  ModelTables` arrays, and the ``(B, apps)`` output GFLOPS matrix all
  live in :mod:`multiprocessing.shared_memory` blocks.  A task message
  is a tuple of block names and range bounds; workers score their
  slice in place and never send an ndarray through a queue.
* **Deterministic sharding.**  :func:`chunk_bounds` splits ``B``
  candidates into at most ``workers`` contiguous ranges whose sizes
  differ by at most one — a pure function of ``(B, workers)``.  Every
  model operation is row-independent, so ``batched_app_gflops`` over a
  slice is byte-identical to the same rows of a whole-batch call.
  Results are **byte-identical for any worker count** — pinned by
  ``tests/test_core_parallel.py`` for workers in {1, 2, 4} under both
  ``fork`` and ``spawn`` start methods.
* **Persistent, lazily spawned pool.**  Pools live in a process-wide
  registry (:func:`get_pool`), spawn on first use, and are reused
  across calls.  :func:`shutdown_pools` (also registered ``atexit``)
  tears them down.
* **Graceful degradation.**  No ``/dev/shm`` (some containers), a
  failed spawn, a crashed worker, or a timeout never raises:
  :func:`parallel_app_gflops` returns ``None`` and bumps the
  ``parallel/fallbacks`` counter (:class:`~repro.errors.ParallelError`
  stays internal).

Observability: one ``parallel/search`` span per pooled scoring call
(attrs ``workers``, ``chunks``, ``evaluations``), the
``parallel/workers`` gauge, ``parallel/chunks`` + ``parallel/
fallbacks`` counters, and a ``parallel/chunk_ms`` histogram of
worker-side chunk wall times.
"""

from __future__ import annotations

import atexit
import queue as queue_mod
import time
import traceback
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.core.fasteval import (
    ModelTables,
    batched_app_gflops,
    check_oversubscription,
)
from repro.errors import ParallelError
from repro.obs import OBS, CounterHandle, GaugeHandle, HistogramHandle

__all__ = [
    "WorkerPool",
    "chunk_bounds",
    "get_pool",
    "parallel_app_gflops",
    "pool_stats",
    "release_pool",
    "shared_memory_available",
    "shutdown_pools",
]

# Hot-path metric handles (PERF001: hoisted out of the scoring loop).
_WORKERS_GAUGE = GaugeHandle("parallel/workers")
_CHUNKS = CounterHandle("parallel/chunks")
_FALLBACKS = CounterHandle("parallel/fallbacks")
_CHUNK_MS = HistogramHandle("parallel/chunk_ms")

#: Fields of :class:`ModelTables` shipped to workers, in block order.
_TABLE_FIELDS = (
    "route_per_thread",
    "local_demand",
    "peak_per_thread",
    "intensity",
    "link",
    "node_capacity",
    "cores_per_node",
)


def chunk_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Deterministic ``[lo, hi)`` shards of ``n`` rows over ``workers``.

    A pure function of ``(n, workers)``: at most ``workers`` contiguous,
    non-empty ranges covering ``0..n`` in order, sizes differing by at
    most one (earlier chunks take the remainder).  ``n == 0`` returns no
    chunks; ``n < workers`` returns ``n`` single-row chunks.  The
    enumeration-order contract holds because chunks partition the batch
    *in order* — concatenating worker outputs reproduces the serial row
    order exactly.
    """
    if n < 0:
        raise ParallelError(f"cannot chunk a negative batch ({n})")
    if workers <= 0:
        raise ParallelError(f"chunking needs >= 1 worker, got {workers}")
    parts = min(n, workers)
    if parts == 0:
        return []
    base, extra = divmod(n, parts)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for k in range(parts):
        hi = lo + base + (1 if k < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


_SHM_PROBE: bool | None = None


def shared_memory_available() -> bool:
    """Whether POSIX shared memory works here (cached one-shot probe).

    ``/dev/shm``-less containers raise on the first ``SharedMemory``
    create; remembering the answer keeps the degraded path cheap (no
    per-batch retry storm).
    """
    global _SHM_PROBE
    if _SHM_PROBE is None:
        try:
            block = shared_memory.SharedMemory(create=True, size=8)
            block.close()
            block.unlink()
            _SHM_PROBE = True
        except (OSError, ValueError):
            _SHM_PROBE = False
    return _SHM_PROBE


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach a worker to one of the parent's existing blocks.

    On this Python version attaching re-registers the segment with the
    resource tracker; workers share the parent's tracker process, so
    the registration is an idempotent no-op and ownership stays where
    it belongs — the creating (parent) side unlinks exactly once.
    """
    return shared_memory.SharedMemory(name=name)


def _pack_tables(
    tables: ModelTables,
) -> tuple[bytes, list[tuple[str, str, tuple[int, ...], int, int]]]:
    """Serialise the tables arrays into (payload bytes, field metadata).

    Metadata rows are ``(field, dtype, shape, offset, nbytes)``; every
    array is stored C-contiguous so a worker can rebuild zero-copy
    views over one shared block.
    """
    payload = bytearray()
    meta: list[tuple[str, str, tuple[int, ...], int, int]] = []
    for field in _TABLE_FIELDS:
        arr = np.ascontiguousarray(getattr(tables, field))
        offset = len(payload)
        payload.extend(arr.tobytes())
        meta.append(
            (field, arr.dtype.str, tuple(arr.shape), offset, arr.nbytes)
        )
    return bytes(payload), meta


def _unpack_tables(buf, meta) -> ModelTables:
    """Rebuild a :class:`ModelTables` of views over a shared buffer."""
    fields = {}
    for field, dtype, shape, offset, nbytes in meta:
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        fields[field] = arr
    return ModelTables(key=(), **fields)


def _worker_main(tasks, results) -> None:
    """Worker-process loop: attach, score assigned ranges, acknowledge.

    Runs top-level (picklable) so the pool is safe under the ``spawn``
    start method.  Caches shared-memory attachments and rebuilt tables
    by block name; a changed name means the parent regrew or replaced a
    block, so stale attachments are dropped.
    """
    from repro.core.bwshare import RemainderRule

    blocks: dict[str, shared_memory.SharedMemory] = {}
    tables_cache: dict[str, ModelTables] = {}

    def attach(name: str) -> shared_memory.SharedMemory:
        block = blocks.get(name)
        if block is None:
            block = _attach(name)
            blocks[name] = block
        return block

    # Event loop, not a retry: every task is attempted exactly once and
    # failures ship to the parent as ("err", ...) acks.
    while True:  # repro: noqa[RETRY001]
        task = tasks.get()
        if task[0] == "stop":
            break
        if task[0] == "forget":
            # The parent unlinked a tables block; drop our attachment.
            _, name = task
            tables_cache.pop(name, None)
            block = blocks.pop(name, None)
            if block is not None:
                block.close()
            continue
        try:
            (
                _,
                call_id,
                tables_name,
                tables_meta,
                scratch_name,
                batch,
                n_apps,
                n_nodes,
                out_offset,
                lo,
                hi,
                rule_value,
            ) = task
            t0 = time.perf_counter()
            tables = tables_cache.get(tables_name)
            if tables is None:
                tables = _unpack_tables(attach(tables_name).buf, tables_meta)
                tables_cache[tables_name] = tables
            scratch = attach(scratch_name)
            counts = np.ndarray(
                (batch, n_apps, n_nodes),
                dtype=np.int64,
                buffer=scratch.buf,
            )
            out = np.ndarray(
                (batch, n_apps),
                dtype=np.float64,
                buffer=scratch.buf,
                offset=out_offset,
            )
            out[lo:hi] = batched_app_gflops(
                tables, counts[lo:hi], RemainderRule(rule_value)
            )
            results.put(
                ("ok", call_id, lo, hi, time.perf_counter() - t0)
            )
        except BaseException:  # repro: noqa[EXC001] — shipped to parent
            results.put(("err", call_id, traceback.format_exc()))
    for block in blocks.values():
        block.close()


class WorkerPool:
    """A persistent pool of scoring processes over shared memory.

    Parameters
    ----------
    workers:
        Process count.  Not capped at the host core count: determinism
        does not depend on it, and oversubscribed pools are how the
        single-core CI shard still exercises every code path.
    start_method:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` for the
        platform default.  The worker entry point is a module-level
        function, so every method works.
    timeout:
        Seconds :meth:`score` waits for the slowest chunk before
        declaring the pool broken.

    The pool spawns lazily on the first :meth:`score` call and is
    designed to be *reused*: per-workload tables upload once (keyed by
    fingerprint), the counts/output scratch block grows geometrically
    and is recycled across calls, and the processes survive between
    searches.  Constructing a pool per search defeats all of that —
    the PERF003 lint rule flags exactly that mistake.
    """

    def __init__(
        self,
        workers: int,
        *,
        start_method: str | None = None,
        timeout: float = 120.0,
    ) -> None:
        if workers <= 0:
            raise ParallelError(
                f"a worker pool needs >= 1 process, got {workers}"
            )
        self.workers = workers
        self.start_method = start_method
        self.timeout = timeout
        self.closed = False
        #: completed :meth:`score` calls (diagnostics / tests).
        self.calls = 0
        #: spawn generation: 0 until first use, then 1 (a pool never
        #: respawns — a broken pool closes and the registry replaces it).
        self.generation = 0
        self._procs: list = []
        self._tasks = None
        self._results = None
        self._call_id = 0
        #: tables fingerprint -> (shared block, field metadata).
        self._tables: dict[tuple, tuple[shared_memory.SharedMemory, list]] = {}
        self._scratch: shared_memory.SharedMemory | None = None

    # -- lifecycle ------------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether every worker process is currently running."""
        return (
            not self.closed
            and bool(self._procs)
            and all(p.is_alive() for p in self._procs)
        )

    def _ensure_spawned(self) -> None:
        if self.closed:
            raise ParallelError("pool is closed")
        if self._procs:
            return
        if not shared_memory_available():
            raise ParallelError("shared memory is unavailable on this host")
        try:
            ctx = get_context(self.start_method)
            self._tasks = ctx.Queue()
            self._results = ctx.Queue()
            procs = []
            for _ in range(self.workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(self._tasks, self._results),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            self._procs = procs
        except (OSError, ValueError) as exc:
            self.close()
            raise ParallelError(f"pool spawn failed: {exc}") from exc
        self.generation += 1
        if OBS.enabled:
            _WORKERS_GAUGE.set(self.workers)

    def close(self) -> None:
        """Shut the pool down and release every shared block.  Idempotent.

        Live workers get a ``stop`` message and a short grace period;
        stragglers (or crashed workers' survivors) are terminated.  A
        closed pool never respawns — :func:`get_pool` hands out a fresh
        one instead, which is what makes "shut down on drain, restart
        after recovery" a registry-level no-op.
        """
        if self.closed:
            return
        self.closed = True
        if self._tasks is not None:
            for proc in self._procs:
                if proc.is_alive():
                    try:  # repro: noqa[EXC002] — teardown is best-effort
                        self._tasks.put(("stop",))
                    except (OSError, ValueError):
                        break
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._tasks, self._results):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._tasks = self._results = None
        self._procs = []
        for block, _meta in self._tables.values():
            self._release_block(block)
        self._tables.clear()
        if self._scratch is not None:
            self._release_block(self._scratch)
            self._scratch = None
        if OBS.enabled:
            _WORKERS_GAUGE.set(0)

    @staticmethod
    def _release_block(block: shared_memory.SharedMemory) -> None:
        try:
            block.close()
            block.unlink()
        except OSError:  # repro: noqa[EXC002] — double-unlink is harmless
            pass

    # -- shared-memory plumbing ----------------------------------------

    def _publish_tables(
        self, tables: ModelTables
    ) -> tuple[str, list]:
        """The (block name, metadata) of ``tables``, uploading once.

        Keyed by the workload fingerprint; a bounded cache mirrors the
        model's own kept-tables limit, telling workers to ``forget``
        evicted blocks before unlinking them.
        """
        entry = self._tables.get(tables.key)
        if entry is not None:
            return entry[0].name, entry[1]
        payload, meta = _pack_tables(tables)
        block = shared_memory.SharedMemory(
            create=True, size=max(len(payload), 1)
        )
        block.buf[: len(payload)] = payload
        while len(self._tables) >= 8:
            _key, (old, _m) = next(iter(self._tables.items()))
            self._tables.pop(_key)
            for _ in self._procs:
                self._tasks.put(("forget", old.name))
            self._release_block(old)
        self._tables[tables.key] = (block, meta)
        return block.name, meta

    def _ensure_scratch(self, nbytes: int) -> shared_memory.SharedMemory:
        """A scratch block of at least ``nbytes``, grown geometrically.

        Growing allocates a *new* (differently named) block, so workers
        naturally re-attach; the old block is unlinked immediately (the
        kernel keeps it alive for any worker mid-attachment).
        """
        if self._scratch is not None and self._scratch.size >= nbytes:
            return self._scratch
        size = 1 << max(nbytes - 1, 1).bit_length()
        if self._scratch is not None:
            self._release_block(self._scratch)
        self._scratch = shared_memory.SharedMemory(create=True, size=size)
        return self._scratch

    # -- scoring --------------------------------------------------------

    def score(
        self, tables: ModelTables, counts: np.ndarray, rule
    ) -> np.ndarray:
        """Per-app GFLOPS of a ``(B, A, N)`` batch, sharded by range.

        Byte-identical to ``batched_app_gflops(tables, counts, rule)``:
        workers score contiguous row ranges with the very same kernel
        and write into disjoint slices of one shared ``(B, A)`` output.
        Oversubscribed candidates raise the same
        :class:`~repro.errors.OversubscriptionError` as the serial path
        (validated parent-side, before sharding).

        Raises
        ------
        ParallelError
            Pool spawn failure, worker death, or timeout.  The pool is
            closed; callers fall back to the serial path.
        """
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        batch, n_apps, n_nodes = counts.shape
        check_oversubscription(tables, counts)
        out_shape = (batch, n_apps)
        if batch == 0:
            return np.empty(out_shape)
        self._ensure_spawned()
        with OBS.tracer.span(
            "parallel/search",
            workers=self.workers,
            evaluations=batch,
        ) as sp:
            try:
                result = self._score_locked(
                    tables, counts, rule, out_shape, sp
                )
            except ParallelError:
                self.close()
                raise
        self.calls += 1
        return result

    def _score_locked(self, tables, counts, rule, out_shape, span):
        batch, n_apps, n_nodes = counts.shape
        tables_name, meta = self._publish_tables(tables)
        counts_nbytes = counts.nbytes
        out_nbytes = batch * n_apps * 8
        scratch = self._ensure_scratch(counts_nbytes + out_nbytes)
        shared_counts = np.ndarray(
            counts.shape, dtype=np.int64, buffer=scratch.buf
        )
        shared_counts[:] = counts
        chunks = chunk_bounds(batch, self.workers)
        self._call_id += 1
        call_id = self._call_id
        for lo, hi in chunks:
            self._tasks.put(
                (
                    "score",
                    call_id,
                    tables_name,
                    meta,
                    scratch.name,
                    batch,
                    n_apps,
                    n_nodes,
                    counts_nbytes,
                    lo,
                    hi,
                    rule.value,
                )
            )
        self._await_chunks(call_id, len(chunks))
        if OBS.enabled:
            _CHUNKS.add(len(chunks))
            span.attrs["chunks"] = len(chunks)
        out = np.ndarray(
            out_shape,
            dtype=np.float64,
            buffer=scratch.buf,
            offset=counts_nbytes,
        )
        return out.copy()

    def _await_chunks(self, call_id: int, expected: int) -> None:
        """Collect ``expected`` chunk acknowledgements for ``call_id``.

        Polls with a short interval so a dead worker is noticed in
        ~100 ms rather than at the full timeout; acknowledgements from
        an earlier (failed) call are discarded by id.
        """
        deadline = time.monotonic() + self.timeout
        done = 0
        while done < expected:
            try:
                msg = self._results.get(timeout=0.1)
            except queue_mod.Empty:
                if not all(p.is_alive() for p in self._procs):
                    raise ParallelError(
                        "a scoring worker died mid-batch"
                    ) from None
                if time.monotonic() > deadline:
                    raise ParallelError(
                        f"pool timed out after {self.timeout}s"
                    ) from None
                continue
            if msg[1] != call_id:
                continue  # stale ack from an abandoned call
            if msg[0] == "err":
                raise ParallelError(f"worker failed:\n{msg[2]}")
            _, _, _lo, _hi, seconds = msg
            done += 1
            if OBS.enabled:
                _CHUNK_MS.record(seconds * 1e3)


# -- the process-wide pool registry ------------------------------------

_POOLS: dict[int, WorkerPool] = {}


def get_pool(
    workers: int, *, start_method: str | None = None
) -> WorkerPool | None:
    """The shared pool for ``workers`` processes, or ``None``.

    ``None`` means parallel scoring is not possible here (``workers <=
    0`` or no shared memory) — callers take the serial path.  A closed
    or crashed pool is transparently replaced by a fresh one.
    """
    if workers <= 0 or not shared_memory_available():
        return None
    pool = _POOLS.get(workers)
    if pool is None or pool.closed:
        pool = WorkerPool(workers, start_method=start_method)
        _POOLS[workers] = pool
    return pool


def release_pool(workers: int) -> None:
    """Close and drop the registry pool for ``workers``, if any."""
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.close()


def shutdown_pools() -> None:
    """Close every registry pool (also run at interpreter exit)."""
    for workers in list(_POOLS):
        release_pool(workers)


def pool_stats() -> dict[int, dict]:
    """Live registry snapshot: worker count -> generation/calls/alive."""
    return {
        workers: {
            "generation": pool.generation,
            "calls": pool.calls,
            "alive": pool.alive,
        }
        for workers, pool in _POOLS.items()
    }


atexit.register(shutdown_pools)


def parallel_app_gflops(
    tables: ModelTables,
    counts: np.ndarray,
    rule,
    workers: int,
    *,
    start_method: str | None = None,
) -> np.ndarray | None:
    """Pooled :func:`~repro.core.fasteval.batched_app_gflops`, or ``None``.

    Score ``counts`` through the shared pool for ``workers``; any
    pool-level failure (no shared memory, spawn failure, worker crash,
    timeout) bumps ``parallel/fallbacks`` and returns ``None`` so the
    caller can run the serial kernel instead.
    Model-level errors (oversubscription) raise exactly as the serial
    path would.
    """
    pool = get_pool(workers, start_method=start_method)
    if pool is not None:
        try:
            return pool.score(tables, counts, rule)
        except ParallelError:  # repro: noqa[EXC002] — fallback counted below
            pass
    if OBS.enabled:
        _FALLBACKS.add()
    return None
