"""The composition execution engine.

Interprets a :class:`~repro.composition.task.Task` pattern tree against a
:class:`~repro.composition.selection.CompositionPlan`:

* **sequence** — children run back to back on the simulated clock;
* **parallel** — branches run concurrently; the clock advances by the
  slowest branch while costs accrue across all of them;
* **conditional** — one branch is drawn according to the declared
  probabilities (seeded RNG — deterministic experiments);
* **loop** — the body repeats; the iteration count is drawn uniformly from
  ``[1, max_iterations]`` unless an expected count pins it.

Each activity invocation goes through the :class:`DynamicBinder`, calls the
pluggable :data:`Invoker` (the environment simulator provides one that
returns *observed* QoS), feeds the monitor, and — on failure — retries over
the remaining ranked services before giving up.

The resilience layer (``docs/RESILIENCE.md``) hooks in here: an optional
:class:`~repro.resilience.policies.RetryPolicy` bounds the attempt budget
and inserts exponential-backoff delays (with seeded jitter) on the
simulated clock, a :class:`~repro.resilience.policies.TimeoutPolicy` turns
over-deadline invocations into failures, a
:class:`~repro.resilience.breaker.BreakerRegistry` learns each outcome, and
a :class:`~repro.resilience.policies.DegradationPolicy` lets *optional*
activities be skipped (a degraded completion) instead of failing the
composition outright.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

from repro.errors import BindingError, ExecutionError
from repro.qos.properties import QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.composition.selection import CompositionPlan
from repro.composition.task import (
    Activity,
    Conditional,
    Leaf,
    Loop,
    Node,
    Parallel,
    Sequence,
)
from repro.execution.binding import DynamicBinder
from repro.execution.clock import SimulatedClock
from repro.adaptation.monitoring import QoSMonitor
from repro.observability import core as observability_core
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.policies import (
    DegradationPolicy,
    RetryPolicy,
    TimeoutPolicy,
)

#: Invokes a service at a simulated timestamp.  Returns the *observed* QoS
#: of the invocation, or None when the invocation failed outright.
Invoker = Callable[[ServiceDescription, float], Optional[QoSVector]]


@dataclass
class InvocationRecord:
    """One concrete service invocation in an execution trace."""

    activity_name: str
    service_id: str
    started_at: float
    observed_qos: Optional[QoSVector]
    succeeded: bool
    attempt: int


@dataclass
class ExecutionReport:
    """The outcome of executing one composition."""

    task_name: str
    succeeded: bool
    started_at: float
    finished_at: float
    invocations: List[InvocationRecord] = field(default_factory=list)
    total_cost: float = 0.0
    failed_activity: Optional[str] = None
    #: Optional activities skipped under graceful degradation (in skip
    #: order).  Non-empty ⇒ the run completed *degraded*.
    skipped_activities: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def degraded(self) -> bool:
        return bool(self.skipped_activities)

    def invocations_of(self, activity_name: str) -> List[InvocationRecord]:
        return [r for r in self.invocations if r.activity_name == activity_name]


class ExecutionEngine:
    """Pattern-tree interpreter with dynamic binding and retry-on-failure."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        invoker: Invoker,
        clock: Optional[SimulatedClock] = None,
        binder: Optional[DynamicBinder] = None,
        monitor: Optional[QoSMonitor] = None,
        max_attempts_per_activity: int = 3,
        seed: int = 0,
        observability=None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[TimeoutPolicy] = None,
        breakers: Optional[BreakerRegistry] = None,
        degradation: Optional[DegradationPolicy] = None,
    ) -> None:
        self.properties = dict(properties)
        self.invoker = invoker
        self.clock = clock if clock is not None else SimulatedClock()
        self.binder = binder if binder is not None else DynamicBinder(properties)
        self.monitor = monitor
        # An explicit retry policy owns the attempt budget.
        self.retry = retry
        self.max_attempts = (
            retry.max_attempts if retry is not None
            else max_attempts_per_activity
        )
        self.timeout = timeout
        self.breakers = breakers
        self.degradation = degradation
        self.obs = observability_core.resolve(observability)
        self._rng = random.Random(seed)
        # Backoff jitter draws from its own stream so retries never
        # perturb the conditional/loop draws — with a fixed seed the same
        # control flow unfolds whether or not providers fail.
        self._backoff_rng = random.Random(seed + 0x5F5E1)

    # ------------------------------------------------------------------
    def execute(self, plan: CompositionPlan) -> ExecutionReport:
        """Run the composition to completion (or first unrecoverable fail)."""
        report = ExecutionReport(
            task_name=plan.task.name,
            succeeded=True,
            started_at=self.clock.now(),
            finished_at=self.clock.now(),
        )
        try:
            self._run(plan.task.root, plan, report)
        except _ActivityFailed as failure:
            report.succeeded = False
            report.failed_activity = failure.activity_name
        report.finished_at = self.clock.now()
        return report

    # ------------------------------------------------------------------
    def _run(self, node: Node, plan: CompositionPlan, report: ExecutionReport) -> None:
        if isinstance(node, Leaf):
            self._run_activity(node.activity, plan, report)
            return
        if isinstance(node, Sequence):
            for member in node.members:
                self._run(member, plan, report)
            return
        if isinstance(node, Parallel):
            # Branches run concurrently: execute each against a forked clock
            # and advance the shared clock by the slowest branch.  The
            # shared clock must be restored even when a branch fails, or
            # the engine would keep timing against the fork.
            start = self.clock.now()
            branch_ends: List[float] = []
            shared = self.clock
            try:
                for branch in node.branches:
                    self.clock = SimulatedClock(start)
                    self._run(branch, plan, report)
                    branch_ends.append(self.clock.now())
            finally:
                self.clock = shared
            self.clock.advance_to(max(branch_ends) if branch_ends else start)
            return
        if isinstance(node, Conditional):
            probabilities = node.branch_probabilities()
            pick = self._rng.random()
            cumulative = 0.0
            chosen = node.branches[-1]
            for branch, p in zip(node.branches, probabilities):
                cumulative += p
                if pick <= cumulative:
                    chosen = branch
                    break
            self._run(chosen, plan, report)
            return
        if isinstance(node, Loop):
            if node.expected_iterations is not None:
                iterations = max(1, round(node.expected_iterations))
            else:
                iterations = self._rng.randint(1, node.max_iterations)
            for _ in range(iterations):
                self._run(node.body, plan, report)
            return
        raise ExecutionError(f"unknown pattern node {type(node).__name__}")

    def _run_activity(
        self, activity: Activity, plan: CompositionPlan, report: ExecutionReport
    ) -> None:
        activity_name = activity.name
        excluded: List[str] = []
        obs = self.obs
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                obs.counter("retries_total").inc()
                if self.retry is not None:
                    backoff = self.retry.backoff_seconds(
                        attempt - 1, self._backoff_rng
                    )
                    if backoff > 0.0:
                        self.clock.advance(backoff)
            with obs.span(
                "invoke", activity=activity_name, attempt=attempt
            ) as span:
                try:
                    service = self._bind_excluding(plan, activity_name, excluded)
                except BindingError:
                    obs.counter("invocations_total", status="unbindable").inc()
                    if self._skip_degraded(activity, report):
                        return
                    raise _ActivityFailed(activity_name)
                started = self.clock.now()
                observed = self.invoker(service, started)
                timed_out = self.timeout is not None and observed is not None \
                    and self.timeout.expired(observed.get("response_time"))
                span.set(
                    service_id=service.service_id,
                    succeeded=observed is not None and not timed_out,
                )
                if observed is None or timed_out:
                    if timed_out:
                        # The caller abandoned the call at the deadline:
                        # time passes by the timeout, not the response.
                        self.clock.advance(
                            self.timeout.invoke_timeout_ms / 1000.0
                        )
                        span.set(timed_out=True)
                    report.invocations.append(
                        InvocationRecord(
                            activity_name, service.service_id, started, None,
                            succeeded=False, attempt=attempt,
                        )
                    )
                    obs.counter(
                        "invocations_total",
                        status="timeout" if timed_out else "failed",
                    ).inc()
                    if self.breakers is not None:
                        self.breakers.record(service.service_id, False)
                    if self.monitor is not None:
                        self.monitor.report_failure(service.service_id, started)
                    excluded.append(service.service_id)
                    continue
                # Advance time by the observed response time (if measured).
                # Advance the (possibly forked, under parallel branches)
                # engine clock; the span keeps the observed response time
                # as an attribute since the tracer watches the shared clock.
                response_ms = observed.get("response_time")
                if response_ms is not None:
                    self.clock.advance(response_ms / 1000.0)
                    if obs.enabled:
                        span.set(response_ms=response_ms)
                        obs.histogram("invoke_sim_seconds").observe(
                            response_ms / 1000.0
                        )
                cost = observed.get("cost")
                if cost is not None:
                    report.total_cost += cost
                if self.breakers is not None:
                    self.breakers.record(service.service_id, True)
                if self.monitor is not None:
                    self.monitor.observe_vector(service.service_id, observed, started)
                report.invocations.append(
                    InvocationRecord(
                        activity_name, service.service_id, started, observed,
                        succeeded=True, attempt=attempt,
                    )
                )
                obs.counter("invocations_total", status="ok").inc()
                return
        obs.counter("activities_exhausted_total").inc()
        if self._skip_degraded(activity, report):
            return
        raise _ActivityFailed(activity_name)

    def _skip_degraded(
        self, activity: Activity, report: ExecutionReport
    ) -> bool:
        """Skip an exhausted *optional* activity under graceful degradation.

        Returns True when the activity was skipped (the composition keeps
        going, completing degraded); False means the failure is fatal.
        """
        if (
            self.degradation is None
            or not self.degradation.enabled
            or not activity.optional
        ):
            return False
        report.skipped_activities.append(activity.name)
        self.obs.counter("activities_skipped_total").inc()
        return True

    def _bind_excluding(
        self, plan: CompositionPlan, activity_name: str, excluded: List[str]
    ) -> ServiceDescription:
        base_liveness = self.binder.liveness

        def probe(service: ServiceDescription) -> bool:
            if service.service_id in excluded:
                return False
            return base_liveness(service) if base_liveness is not None else True

        # Temporarily narrow the binder's liveness probe rather than
        # rebuilding it, so per-policy state (round-robin cursors) persists
        # across retries.
        self.binder.liveness = probe
        try:
            return self.binder.bind(plan, activity_name)
        finally:
            self.binder.liveness = base_liveness


class _ActivityFailed(ExecutionError):
    def __init__(self, activity_name: str) -> None:
        super().__init__(f"activity {activity_name!r} failed on all attempts")
        self.activity_name = activity_name
