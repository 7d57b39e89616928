"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration problems from runtime (simulation)
problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "AllocationError",
    "OversubscriptionError",
    "ModelError",
    "SimulationError",
    "ObservabilityError",
    "SchedulerError",
    "RuntimeSystemError",
    "TaskError",
    "DependencyError",
    "DatablockError",
    "AgentError",
    "ProtocolError",
    "EndpointUnavailable",
    "FaultError",
    "DistributedError",
    "CalibrationError",
    "LintError",
    "ServiceError",
    "ParallelError",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class TopologyError(ConfigurationError):
    """A machine topology is malformed (e.g. non-square link matrix)."""


class AllocationError(ConfigurationError):
    """A thread allocation is malformed or refers to unknown apps/nodes."""


class OversubscriptionError(AllocationError):
    """A thread allocation assigns more threads to a NUMA node than cores.

    The paper's model explicitly assumes no over-subscription ("there are at
    most as many threads bound to a NUMA node as there are CPU cores in that
    NUMA node"); violating allocations are rejected eagerly unless the
    caller opts into the OS-scheduler simulation which supports them.
    """


class ModelError(ReproError):
    """The analytic performance model was driven with invalid inputs."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ObservabilityError(SimulationError):
    """An observability primitive (metric, span, exporter) was misused.

    Subclasses :class:`SimulationError` because the metric primitives
    originated in the simulator; callers that catch ``SimulationError``
    keep working after their move to :mod:`repro.obs`.
    """


class SchedulerError(SimulationError):
    """An OS- or task-scheduler invariant was violated."""


class RuntimeSystemError(ReproError):
    """A task-based runtime system (OCR-Vx / TBB / OpenMP adapter) failed."""


class TaskError(RuntimeSystemError):
    """A task was misused (double completion, running a cancelled task...)."""


class DependencyError(RuntimeSystemError):
    """A task-graph dependency is invalid (cycle, unknown producer...)."""


class DatablockError(RuntimeSystemError):
    """A datablock was misused (freed twice, accessed without acquire...)."""


class AgentError(ReproError):
    """The resource-arbitration agent failed."""


class ProtocolError(AgentError):
    """An agent<->runtime protocol message was malformed or out of order."""


class EndpointUnavailable(AgentError):
    """A runtime endpoint did not answer (crashed, hung, or unreachable).

    Raised by endpoints — most prominently the fault-injection
    :class:`~repro.faults.proxy.InjectionProxy` — when a report or
    command cannot be served.  The agent treats it (and any other
    exception escaping an endpoint) as a coordination failure: it
    retries with backoff, and quarantines the endpoint when failures
    persist, rather than letting the control loop die.
    """


class FaultError(ReproError):
    """The fault-injection subsystem was misconfigured.

    Distinct from the failures it *injects*, which surface as
    :class:`EndpointUnavailable` / corrupted reports by design.
    """


class DistributedError(ReproError):
    """The simulated distributed (MPI-like) layer failed."""


class CalibrationError(ReproError):
    """Machine-parameter calibration could not fit the measurements."""


class LintError(ReproError):
    """The static-analysis subsystem was misused (bad rule id, unparseable
    file, malformed selection) — distinct from the violations it reports,
    which are data, not exceptions."""


class ServiceError(AgentError):
    """The long-running allocation service (:mod:`repro.serve`) rejected a
    request: malformed wire message, duplicate or unknown session,
    admission after drain began, or a protocol-state violation.

    Carries an optional machine-readable ``code`` (one of
    :data:`repro.serve.protocol.ERROR_CODES`) that the service copies
    into the :class:`~repro.serve.protocol.ErrorReply` it answers with,
    so clients can branch on the *kind* of rejection without parsing
    the human-readable message.

    Subclasses :class:`AgentError` because the service is the daemonised
    form of the coordination agent; callers guarding the agent<->runtime
    path with ``except AgentError`` cover the service too."""

    def __init__(self, message: str = "", *, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class ParallelError(ReproError):
    """The process-parallel scoring pool (:mod:`repro.core.parallel`)
    could not produce a result: shared memory was unavailable, a worker
    process died mid-chunk, or the pool timed out.

    Always recoverable — :func:`~repro.core.parallel.
    parallel_app_gflops` bumps the ``parallel/fallbacks`` counter and
    returns ``None``, the caller's cue to score serially, instead of
    letting this escape."""
