"""Run specifications and handles: the stable result surface of the API.

A :class:`RunSpec` is the validated, normalised form of one submission —
what the caller wants done with a :class:`~repro.composition.request.UserRequest`
(or a pre-composed plan).  A :class:`RunHandle` is the caller's view of
that submission's progress: the same object whether the work ran inline
(:meth:`repro.middleware.qasom.QASOM.submit`) or through the concurrent
:class:`~repro.runtime.runtime.MiddlewareRuntime` pool, so code written
against handles is oblivious to the serial/pooled deployment choice.

Handles are thread-safe: the runtime's worker threads complete them, the
submitting thread blocks on :meth:`RunHandle.result` /
:meth:`RunHandle.plan` / :meth:`RunHandle.wait`.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import MiddlewareRuntimeError
from repro.composition.request import UserRequest
from repro.composition.selection import CompositionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.middleware.qasom import RunResult


class RequestStatus(enum.Enum):
    """Lifecycle of one submitted request."""

    #: Admitted, waiting for a worker.
    QUEUED = "queued"
    #: A worker is composing/executing it.
    RUNNING = "running"
    #: Finished successfully; the handle holds the plan(s)/result.
    DONE = "done"
    #: Finished with an error; the handle re-raises it on access.
    FAILED = "failed"
    #: Refused at submit time — the admission queue was full.
    REJECTED = "rejected"
    #: The per-request deadline elapsed before completion.
    EXPIRED = "expired"
    #: The runtime shut down before the request was processed.
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the request will make no further progress."""
        return self is not RequestStatus.QUEUED and self is not RequestStatus.RUNNING


@dataclass(frozen=True)
class RunSpec:
    """What one submission asks the middleware to do.

    Exactly one of ``request`` / ``plan`` drives composition: with a
    ``request`` the middleware discovers and selects; with a ``plan`` the
    composition stage is skipped and the plan is executed as-is.
    ``ranked`` asks for up to that many alternative compositions instead
    of one (a plan-only operation — ranked proposals are presented to the
    user, not executed).
    """

    request: Optional[UserRequest] = None
    plan: Optional[CompositionPlan] = None
    execute: bool = True
    adapt: bool = True
    ranked: int = 0
    best_effort: bool = False
    track_sla: bool = False

    def __post_init__(self) -> None:
        if self.request is None and self.plan is None:
            raise MiddlewareRuntimeError(
                "a submission needs a request (to compose) or a plan "
                "(to execute)"
            )
        if self.ranked < 0:
            raise MiddlewareRuntimeError("ranked must be >= 0")
        if self.ranked and self.plan is not None:
            raise MiddlewareRuntimeError(
                "ranked alternatives require a request, not a pre-built plan"
            )
        if self.ranked and self.execute:
            raise MiddlewareRuntimeError(
                "ranked proposals are not executed; pass execute=False and "
                "run the chosen alternative separately"
            )
        if self.plan is not None and not self.execute:
            raise MiddlewareRuntimeError(
                "a plan-only submission of an existing plan is a no-op"
            )


#: Process-wide monotonic handle sequence.  ``next()`` on an
#: ``itertools.count`` is atomic under the GIL, so handles created from
#: any thread get unique, never-reused ids — unlike ``id(handle)``, which
#: the allocator recycles after GC and which could cross-wire the
#: runtime's ticket bookkeeping between an old and a new handle.
_HANDLE_SEQ = itertools.count(1)


class RunHandle:
    """The caller's view of one submitted request.

    Blocking accessors (:meth:`result`, :meth:`plan`, :meth:`alternatives`)
    wait for completion and re-raise the request's failure —
    :class:`~repro.errors.AdmissionRejectedError` for backpressure
    rejections, :class:`~repro.errors.DeadlineExceededError` for expired
    deadlines, or whatever composition/execution raised.
    """

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        #: Unique, never-reused identity (the runtime's ticket-map key).
        self.seq: int = next(_HANDLE_SEQ)
        #: How many times a supervisor/transient-fault requeue re-admitted
        #: this request after a worker crash or injected snapshot failure.
        self.requeues: int = 0
        #: How many worker crashes this request survived (set by the
        #: runtime; drives the deferred ``worker_crash`` forensic bundle).
        self.crashes: int = 0
        #: The request's causal identity
        #: (:class:`~repro.observability.context.TraceContext`), minted at
        #: submission when observability or the flight recorder is on.
        #: After the first execution attempt opens its root span, this is
        #: replaced by a child context so crash-requeued retries nest
        #: under the first attempt's root — one span tree per request.
        self.trace_context = None
        #: The request's trace id: the minted context's, None when none
        #: was minted.  A child context keeps it.
        self.trace_id: Optional[str] = None
        self._done = threading.Event()
        self._status = RequestStatus.QUEUED
        self._result: Optional["RunResult"] = None
        self._plans: List[CompositionPlan] = []
        self._error: Optional[BaseException] = None
        #: Wall-clock submission/start/finish stamps (``time.perf_counter``),
        #: the raw material for queue-delay and tail-latency measurements.
        self.submitted_wall: float = time.perf_counter()
        self.started_wall: Optional[float] = None
        self.finished_wall: Optional[float] = None
        #: Simulated-clock submission/finish stamps, filled in by whichever
        #: path processed the handle (runtime pool or inline submit) when a
        #: simulated clock is available.  Pure annotations: they never
        #: influence scheduling, so serial/pooled byte-identity is untouched.
        self.submitted_sim: Optional[float] = None
        self.finished_sim: Optional[float] = None

    # -- state transitions (runtime-internal) ---------------------------
    def _mark_running(self) -> None:
        self._status = RequestStatus.RUNNING
        self.started_wall = time.perf_counter()

    def _mark_requeued(self) -> None:
        """Back to the queue after a worker crash / transient fault."""
        self._status = RequestStatus.QUEUED

    def _complete(
        self,
        result: Optional["RunResult"] = None,
        plans: Optional[List[CompositionPlan]] = None,
    ) -> None:
        self._result = result
        if plans is not None:
            self._plans = plans
        elif result is not None:
            self._plans = [result.plan]
        self._status = RequestStatus.DONE
        self.finished_wall = time.perf_counter()
        self._done.set()

    def _fail(self, error: BaseException, status: RequestStatus) -> None:
        self._error = error
        self._status = status
        self.finished_wall = time.perf_counter()
        self._done.set()

    # -- caller surface -------------------------------------------------
    @property
    def status(self) -> RequestStatus:
        """Current lifecycle state (terminal states never change again)."""
        return self._status

    def done(self) -> bool:
        """Whether the request reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal (or ``timeout`` seconds); True if terminal."""
        return self._done.wait(timeout)

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The failure, if the request failed; None on success."""
        self._await(timeout)
        return self._error

    def result(self, timeout: Optional[float] = None) -> "RunResult":
        """The full :class:`~repro.middleware.qasom.RunResult`.

        Only executing submissions produce one; for ``execute=False``
        submissions read :meth:`plan` / :meth:`alternatives` instead.
        """
        self._await(timeout)
        self._raise_if_failed()
        if self._result is None:
            raise MiddlewareRuntimeError(
                "plan-only submission has no execution result; read "
                "handle.plan() or handle.alternatives()"
            )
        return self._result

    def plan(self, timeout: Optional[float] = None) -> CompositionPlan:
        """The chosen composition plan (best alternative for ranked runs)."""
        self._await(timeout)
        self._raise_if_failed()
        return self._plans[0]

    def alternatives(
        self, timeout: Optional[float] = None
    ) -> List[CompositionPlan]:
        """All composed alternatives, best utility first."""
        self._await(timeout)
        self._raise_if_failed()
        return list(self._plans)

    # -- latency accounting ---------------------------------------------
    @property
    def queue_seconds(self) -> Optional[float]:
        """Wall-clock seconds spent admitted but not yet picked up."""
        if self.started_wall is None:
            return None
        return self.started_wall - self.submitted_wall

    @property
    def total_seconds(self) -> Optional[float]:
        """Wall-clock seconds from submission to terminal state."""
        if self.finished_wall is None:
            return None
        return self.finished_wall - self.submitted_wall

    @property
    def sim_seconds(self) -> Optional[float]:
        """Simulated seconds from submission to terminal state.

        ``None`` until terminal, or when no simulated clock stamped the
        handle.  This is the latency axis the windowed tail-latency
        telemetry and SLO gates use — deterministic across runs, unlike
        the wall-clock stamps.
        """
        if self.submitted_sim is None or self.finished_sim is None:
            return None
        return self.finished_sim - self.submitted_sim

    # -- internals ------------------------------------------------------
    def _await(self, timeout: Optional[float]) -> None:
        if not self._done.wait(timeout):
            raise MiddlewareRuntimeError(
                f"request not finished within {timeout} s "
                f"(status: {self._status.value})"
            )

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise self._error
        if not self._plans and self._result is None:
            raise MiddlewareRuntimeError(
                f"request finished without a result (status: "
                f"{self._status.value})"
            )

    def __repr__(self) -> str:
        return f"RunHandle(status={self._status.value})"

