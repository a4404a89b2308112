"""Exception hierarchy for the QASOM middleware reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so user
code can catch middleware failures with a single ``except`` clause while more
specific handlers remain possible.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the library."""


class OntologyError(ReproError):
    """Raised for malformed ontology definitions or unknown concepts."""


class UnknownConceptError(OntologyError):
    """A concept URI was referenced but never declared in the ontology."""

    def __init__(self, uri: str) -> None:
        super().__init__(f"unknown concept: {uri!r}")
        self.uri = uri

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) through __init__, which double-wraps it; rebuild from
        # the original constructor argument instead.  Exceptions cross
        # process boundaries on the runtime's process backend.
        return (type(self), (self.uri,))


class UnitError(ReproError):
    """Raised when two QoS values with incompatible units are combined."""


class QoSModelError(ReproError):
    """Raised for inconsistent QoS model definitions (duplicate properties,
    contradictory monotonicity, unmappable user terms...)."""


class ServiceDescriptionError(ReproError):
    """Raised when a service description is malformed."""


class DiscoveryError(ReproError):
    """Raised when QoS-aware discovery cannot be performed."""


class CompositionError(ReproError):
    """Base class for composition-stage failures."""


class InvalidTaskError(CompositionError):
    """The user task structure is malformed (empty patterns, duplicate
    activity names, unbound loop probabilities...)."""


class NoCandidateError(CompositionError):
    """An abstract activity has no functionally matching service candidate,
    so no composition can fulfil the task."""

    def __init__(self, activity: str) -> None:
        super().__init__(f"no service candidate for activity {activity!r}")
        self.activity = activity

    def __reduce__(self):
        # See UnknownConceptError.__reduce__: keep the round-tripped
        # message identical to the original's (process-backend transport).
        return (type(self), (self.activity,))


class SelectionError(CompositionError):
    """QoS-aware selection could not produce a composition that satisfies the
    user's global QoS constraints."""


class AggregationError(CompositionError):
    """Raised when a QoS property cannot be aggregated over a pattern."""


class ExecutionError(ReproError):
    """Raised when executing a concrete composition fails irrecoverably."""


class BindingError(ExecutionError):
    """Dynamic binding found no live service for an activity at invoke time."""


class AdaptationError(ReproError):
    """Base class for adaptation-stage failures."""


class SubstitutionError(AdaptationError):
    """Service substitution found no satisfactory replacement."""


class BehaviouralAdaptationError(AdaptationError):
    """No alternative behaviour in the task class can fulfil the user task."""


class BpelParseError(ReproError):
    """Raised when an abstract-BPEL document cannot be parsed."""


class EnvironmentError_(ReproError):
    """Raised for invalid pervasive-environment manipulations (duplicate
    device identifiers, unknown nodes...)."""


class MiddlewareRuntimeError(ReproError):
    """Base class for concurrent-runtime failures (admission, deadlines,
    lifecycle misuse).  See :mod:`repro.runtime`."""


class AdmissionRejectedError(MiddlewareRuntimeError):
    """The runtime's admission queue was full and the request was rejected
    at submit time (backpressure)."""


class DeadlineExceededError(MiddlewareRuntimeError):
    """The request's deadline elapsed before the runtime could complete it
    (while queued, or before its execution turn came up)."""


class RuntimeShutdownError(MiddlewareRuntimeError):
    """The runtime was shut down before (or while) the request could be
    processed."""


class WorkerCrashError(MiddlewareRuntimeError):
    """A worker thread died while holding this request and the supervisor
    could not (or was not allowed to) requeue it — the requeue budget was
    exhausted, the bounded requeue count was reached, or the crash landed
    mid-commit where re-execution would not be safe."""


class WorkerProcessCrash(WorkerCrashError):
    """A worker *process* of the process execution backend died mid-compose
    (killed, OOM, or a crash in the child interpreter).  Transient by
    contract: the backend respawns the process and the runtime requeues the
    request under its original admission ticket (budget permitting); when
    the requeue is refused, the handle fails with this error — still a
    :class:`WorkerCrashError`, so callers need not care which backend's
    worker died."""


class UnsupportedBackendFeatureError(MiddlewareRuntimeError):
    """A runtime feature was requested on an execution backend that cannot
    honour it: cross-layer estimation on the process backend, whose worker
    processes cannot observe the parent's live device/link state.  Raised
    at construction time — never a silent no-op."""


class RuntimeInvariantError(MiddlewareRuntimeError):
    """A runtime safety invariant was violated (request lost, commit
    duplicated or out of ticket order, worker pool not restored) — raised
    by :func:`repro.runtime.chaos.assert_runtime_invariants`."""
