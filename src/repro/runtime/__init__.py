"""Concurrent multi-request runtime for the QASOM middleware.

The paper evaluates one composition request at a time; this package is the
deployable-middleware counterpart: a bounded worker pool that admits many
user requests against one shared environment, with snapshot-isolated
composition, coalesced discovery, per-request deadlines and backpressure —
while staying byte-for-byte deterministic with the serial path.

Entry points: :class:`MiddlewareRuntime` (the pool),
:class:`RuntimeConfig` (knobs), :class:`RunHandle` (the result surface,
shared with :meth:`repro.middleware.qasom.QASOM.submit`).
"""

from repro.runtime.admission import (
    AdaptiveAdmissionController,
    StaticAdmissionController,
    build_admission_controller,
)
from repro.runtime.backends import (
    BACKEND_CHOICES,
    ExecutionBackend,
    ProcessBackend,
    ThreadBackend,
    build_backend,
)
from repro.runtime.batching import SingleFlight
from repro.runtime.chaos import (
    ChaosPolicy,
    FiredFault,
    InjectedSnapshotFailure,
    InjectedWorkerCrash,
    InvariantReport,
    assert_runtime_invariants,
    verify_runtime_invariants,
)
from repro.runtime.handle import RequestStatus, RunHandle, RunSpec
from repro.runtime.runtime import MiddlewareRuntime, RuntimeConfig
from repro.runtime.snapshot import SnapshotManager
from repro.runtime.supervisor import RetryBudget, WorkerSupervisor

__all__ = [
    "AdaptiveAdmissionController",
    "BACKEND_CHOICES",
    "ChaosPolicy",
    "ExecutionBackend",
    "ProcessBackend",
    "ThreadBackend",
    "build_backend",
    "FiredFault",
    "InjectedSnapshotFailure",
    "InjectedWorkerCrash",
    "InvariantReport",
    "SingleFlight",
    "MiddlewareRuntime",
    "RetryBudget",
    "StaticAdmissionController",
    "WorkerSupervisor",
    "assert_runtime_invariants",
    "build_admission_controller",
    "verify_runtime_invariants",
    "RequestStatus",
    "RunHandle",
    "RunSpec",
    "RuntimeConfig",
    "SnapshotManager",
]
