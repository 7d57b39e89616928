"""Long-running allocation service: the Figure 1 agent as a daemon.

Where :mod:`repro.agent` runs a fixed number of coordination rounds
over a static application set, :mod:`repro.serve` keeps the loop alive
under *churn*: applications register, stream progress reports, and
deregister while the service continuously re-optimizes per-NUMA-node
thread counts for whoever is currently admitted — debouncing join/leave
bursts, reusing the :class:`~repro.core.fasteval.ScoreCache` across
membership changes, quarantining silent sessions under the PR-3
:class:`~repro.agent.resilience.ResiliencePolicy`, and streaming
allocation updates back with at-least-once delivery.

Layering (each layer usable on its own):

* :mod:`repro.serve.protocol` — the newline-delimited-JSON wire
  messages and their strict codec;
* :mod:`repro.serve.registry` — session lifecycle and the live
  workload;
* :mod:`repro.serve.persist` — the crash-safety layer: an append-only
  CRC'd write-ahead journal with atomic snapshot compaction, feeding
  deterministic :meth:`~repro.serve.service.AllocationService.recover`;
* :mod:`repro.serve.service` — the transport- and clock-agnostic core;
* :mod:`repro.serve.client` — in-process loopback client (tests,
  examples, the tutorial);
* :mod:`repro.serve.gateway` — the one asyncio front end: NDJSON
  streams over a unix socket and/or TCP, plus an HTTP/1.1 adapter,
  all under the same admission control — connection caps, a bounded
  admission queue, idle deadlines, and graceful drain (``python -m
  repro serve --socket PATH`` or ``--tcp :9070``, ``docs/GATEWAY.md``);
* :mod:`repro.serve.server` — per-connection outbox with backpressure,
  and :class:`~repro.serve.server.AsyncServiceClient`, the asyncio
  stream client;
* :mod:`repro.serve.scenarios` — seeded churn replays and fault drills
  on the DES clock, one :class:`~repro.serve.scenarios.Replay` record
  each (``python -m repro serve --scenario churn-basic``).

Protocol, lifecycle, and failure semantics are documented in
``docs/SERVICE.md``; the guided walk-through is ``docs/TUTORIAL.md``.
The serve path under load is measured from outside the package by
``perfbench/run.py`` (``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

from repro.serve.client import ServiceClient
from repro.serve.persist import (
    Journal,
    RecoveryLoad,
    atomic_write,
    load_journal,
)
from repro.serve.protocol import (
    ERROR_CODES,
    Ack,
    AllocationUpdate,
    Deregister,
    ErrorReply,
    ProgressReport,
    QueryAllocation,
    Register,
    ShutdownNotice,
    decode_message,
    encode_message,
)
from repro.serve.gateway import GatewayConfig, GatewayServer
from repro.serve.registry import Session, SessionState, WorkloadRegistry
from repro.serve.scenarios import (
    ChurnEvent,
    ChurnReport,
    Replay,
    ReplayDriver,
    ReplayEndpoint,
    SERVE_SCENARIOS,
    run_replay,
)
from repro.serve.server import AsyncServiceClient
from repro.serve.service import AllocationService, ServiceConfig

__all__ = [
    "ERROR_CODES",
    "Register",
    "Deregister",
    "ProgressReport",
    "QueryAllocation",
    "Ack",
    "AllocationUpdate",
    "ErrorReply",
    "ShutdownNotice",
    "encode_message",
    "decode_message",
    "Session",
    "SessionState",
    "WorkloadRegistry",
    "Journal",
    "RecoveryLoad",
    "atomic_write",
    "load_journal",
    "ServiceConfig",
    "AllocationService",
    "ServiceClient",
    "AsyncServiceClient",
    "GatewayConfig",
    "GatewayServer",
    "ChurnEvent",
    "ChurnReport",
    "ReplayEndpoint",
    "ReplayDriver",
    "Replay",
    "SERVE_SCENARIOS",
    "run_replay",
]
