"""The QASOM middleware platform (Ch. VI, Figs. VI.2-VI.4).

QASOM wires every subsystem of the reproduction into the two frameworks of
the paper's architecture:

* the **QoS-aware Service Composition Framework** — semantic QoS-aware
  discovery over the environment's registry, QASSA selection, dynamic
  binding, and the execution engine;
* the **QoS-driven Composition Adaptation Framework** — global/proactive
  monitoring, service substitution, and behavioural adaptation over the
  task class repository.

The public surface is deliberately small and mirrors the concurrent
runtime's: :meth:`submit` (request → :class:`~repro.runtime.handle.RunHandle`,
processed inline) and :meth:`run` (``submit(...).result()``); both compose
through the middleware's one
:class:`~repro.runtime.process_worker.WorkerState`, which a thread
runtime's workers share: one discovery-pool memo keyed on the registry
and ontology generations, and one selector.
Code written against it moves to the pooled
:class:`~repro.runtime.runtime.MiddlewareRuntime` without changes.  The
"Public API & migration" section of ``docs/ARCHITECTURE.md`` maps the
removed pre-redesign entrypoints onto this surface.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.qos.properties import QoSProperty
from repro.semantics.ontology import Ontology
from repro.services.description import ServiceDescription
from repro.services.discovery import QoSAwareDiscovery
from repro.composition.request import UserRequest
from repro.composition.selection import CandidateSets, CompositionPlan
from repro.composition.task import Task
from repro.execution.binding import DynamicBinder
from repro.execution.engine import ExecutionEngine, ExecutionReport
from repro.adaptation.behavioural import BehaviouralAdaptation
from repro.adaptation.manager import AdaptationManager, AdaptationOutcome
from repro.adaptation.monitoring import AdaptationTrigger, QoSMonitor
from repro.adaptation.substitution import ServiceSubstitution
from repro.adaptation.task_class import TaskClassRepository
from repro.middleware.config import MiddlewareConfig
from repro.observability import Observability, Span, TraceContext
from repro.observability import core as observability_core
from repro.qos.sla import ComplianceTracker, derive_slas
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.degradation import PartialExecutionReport
from repro.runtime.handle import RequestStatus, RunHandle, RunSpec
from repro.runtime.process_worker import (
    WorkerContext,
    WorkerState,
    discover_candidates,
)
from repro.runtime.snapshot import SnapshotManager
from repro.env.environment import PervasiveEnvironment


@dataclass
class RunResult:
    """compose + execute in one call: the plan, the trace, the adaptations,
    and (when SLA tracking is on) the compliance summary."""

    plan: CompositionPlan
    report: ExecutionReport
    adaptations: List[AdaptationOutcome] = field(default_factory=list)
    compliance: Optional["ComplianceTracker"] = None
    #: The request's ``runtime.request`` span when observability is
    #: enabled (None otherwise); the root of its tree on every path.
    trace: Optional[Span] = None
    #: Degradation summary when the run completed with skipped optional
    #: activities (None for full completions and hard failures).
    partial: Optional[PartialExecutionReport] = None


class QASOM:
    """The assembled middleware."""

    def __init__(
        self,
        environment: PervasiveEnvironment,
        properties: Mapping[str, QoSProperty],
        *,
        task_ontology: Optional[Ontology] = None,
        repository: Optional[TaskClassRepository] = None,
        config: Optional[MiddlewareConfig] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        # A fresh config per instance: a dataclass default would be one
        # module-level object silently shared by every QASOM ever built.
        config = config if config is not None else MiddlewareConfig()
        self.environment = environment
        self.properties = dict(properties)
        self.config = config

        # Observability: an explicit instance wins; otherwise the config
        # knob; otherwise the ambient default (NULL unless installed).
        if observability is None:
            observability = Observability.from_config(
                config.observability, clock=environment.clock
            )
            if not observability.enabled:
                observability = observability_core.get_default()
        if observability.enabled and getattr(
            observability.tracer, "clock", None
        ) is None:
            observability.attach_clock(environment.clock)
        self.observability = observability

        # Composition framework.
        self.discovery = QoSAwareDiscovery(
            environment.registry, task_ontology, observability=observability
        )
        self.estimator = None
        if config.infrastructure_aware:
            from repro.qos.dependencies import CrossLayerEstimator

            self.estimator = CrossLayerEstimator(environment)
        # One composition state for serial submits, candidates_for,
        # substitution's fresh pools, behavioural adaptation and a thread
        # runtime's workers: discovery pools memoised per registry and
        # ontology generation on snapshots from ``snapshots``, and a
        # selector reusing per-activity local phases across requests
        # whose pools did not change.
        self.snapshots = SnapshotManager(environment.registry, task_ontology)
        self.worker_state = WorkerState(
            WorkerContext(
                properties=self.properties,
                aggregation=config.aggregation,
                qassa=config.qassa,
                discovery_minimum_degree=config.discovery_minimum_degree,
                ontology=task_ontology,
            ),
            discovery=self.discovery,
            observability=observability,
            estimator=self.estimator,
        )
        self.selector = self.worker_state.selector

        # Adaptation framework.
        self.monitor = QoSMonitor(
            self.properties, config.monitor, observability=observability
        )
        self.substitution = ServiceSubstitution(self.properties, self.monitor)
        self.repository = repository
        self.behavioural: Optional[BehaviouralAdaptation] = None
        if repository is not None:
            self.behavioural = BehaviouralAdaptation(
                repository,
                resolver=self.candidates_for,
                selector=lambda req, cands: self.selector.select(req, cands),
                ontology=task_ontology,
                config=config.homeomorphism,
            )

        # Resilience: with the knob on, build the per-service breaker
        # registry and hand the retry/timeout/degradation policies to the
        # binder and engine; off, every hook stays None and the execution
        # path is byte-for-byte the pre-resilience code.
        resilience = config.resilience
        self.breakers: Optional[BreakerRegistry] = None
        retry = timeout = degradation = None
        if resilience.enabled:
            self.breakers = BreakerRegistry(
                resilience.breaker,
                clock=environment.clock,
                observability=observability,
            )
            retry = resilience.retry
            timeout = resilience.timeout
            degradation = resilience.degradation
        # The environment's fault counters should land in the same metrics
        # registry as everything else (unless it already has its own).
        if observability.enabled and not environment.obs.enabled:
            environment.attach_observability(observability)

        self.binder = DynamicBinder(
            self.properties, self.monitor, liveness=environment.is_alive,
            observability=observability, breakers=self.breakers,
        )
        self.engine = ExecutionEngine(
            self.properties,
            invoker=environment.invoke,
            clock=environment.clock,
            binder=self.binder,
            monitor=self.monitor,
            max_attempts_per_activity=config.max_execution_attempts,
            seed=config.seed,
            observability=observability,
            retry=retry,
            timeout=timeout,
            breakers=self.breakers,
            degradation=degradation,
        )

    # ------------------------------------------------------------------
    @classmethod
    def for_environment(
        cls,
        environment: PervasiveEnvironment,
        properties: Mapping[str, QoSProperty],
        *,
        ontology: Optional[Ontology] = None,
        repository: Optional[TaskClassRepository] = None,
        config: Optional[MiddlewareConfig] = None,
        observability: Optional[Observability] = None,
    ) -> "QASOM":
        return cls(
            environment,
            properties,
            task_ontology=ontology,
            repository=repository,
            config=config,
            observability=observability,
        )

    # ------------------------------------------------------------------
    # composition framework
    # ------------------------------------------------------------------
    def candidates_for(self, task: Task) -> CandidateSets:
        """QoS-aware semantic discovery for every activity of a task (with
        ``config.infrastructure_aware``, at estimated effective QoS),
        served from the discovery-pool memo."""
        return discover_candidates(
            task,
            functools.partial(self.worker_state.pool, self.snapshots.acquire()),
            self.observability, self.estimator,
        )

    # ------------------------------------------------------------------
    # adaptation framework
    # ------------------------------------------------------------------
    def _fresh_candidates(self, activity) -> Sequence[ServiceDescription]:
        """The live part of the current discovery pool for one abstract
        activity (substitution fallback).  Takes the Activity itself so it
        stays correct when behavioural adaptation swaps the managed plan's
        task."""
        pool = self.worker_state.candidates(
            self.snapshots.acquire(), activity.capability
        )
        return [s for s in pool if self.environment.is_alive(s)]

    def adaptation_manager(
        self, plan: CompositionPlan, allow_behavioural: bool = True
    ) -> AdaptationManager:
        """Deploy a plan under a fresh adaptation manager.

        ``allow_behavioural=False`` restricts the manager to substitution —
        useful when the caller must keep executing the *same* task shape
        (and for the substitution-only arms of experiments)."""
        manager = AdaptationManager(
            self.properties,
            self.monitor,
            self.substitution,
            behavioural=self.behavioural if allow_behavioural else None,
            fresh_candidates=self._fresh_candidates,
            observability=self.observability,
        )
        manager.deploy(plan)
        return manager

    # ------------------------------------------------------------------
    # end-to-end
    # ------------------------------------------------------------------
    def _execute_plan(
        self,
        plan: CompositionPlan,
        adapt: bool = True,
        track_sla: bool = False,
    ) -> RunResult:
        """Execute a composition with monitoring (and adaptation) active.

        With ``track_sla`` the user's global constraints are decomposed into
        per-service SLAs before execution and every observed invocation is
        checked against them; the tracker lands in ``RunResult.compliance``.
        """
        with self.observability.span(
            "execute", task=plan.task.name, adapt=adapt,
        ) as span:
            manager = self.adaptation_manager(plan) if adapt else None
            tracker = (
                ComplianceTracker(derive_slas(plan, self.properties))
                if track_sla
                else None
            )
            pending: List[AdaptationTrigger] = []
            unsubscribe = None
            if manager is not None:
                unsubscribe = self.monitor.subscribe(pending.append)

            try:
                report = self.engine.execute(plan)
            finally:
                if unsubscribe is not None:
                    unsubscribe()

            if tracker is not None:
                for record in report.invocations:
                    if record.observed_qos is not None:
                        tracker.record_vector(record.service_id,
                                              record.observed_qos)

            adaptations: List[AdaptationOutcome] = []
            if manager is not None:
                handled = set()
                for trigger in pending:
                    key = (trigger.service_id, trigger.kind)
                    if key in handled:
                        continue
                    handled.add(key)
                    adaptations.append(manager.handle(trigger))
            partial: Optional[PartialExecutionReport] = None
            if report.degraded:
                partial = PartialExecutionReport.from_run(
                    plan, report, self.config.resilience.degradation
                )
            span.set(
                succeeded=report.succeeded,
                invocations=len(report.invocations),
                adaptations=len(adaptations),
                degraded=report.degraded,
            )
        return RunResult(plan=plan, report=report, adaptations=adaptations,
                         compliance=tracker, partial=partial)

    # ------------------------------------------------------------------
    # stable public surface (mirrors MiddlewareRuntime)
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Optional[UserRequest] = None,
        *,
        plan: Optional[CompositionPlan] = None,
        execute: bool = True,
        adapt: bool = True,
        ranked: int = 0,
        best_effort: bool = False,
        track_sla: bool = False,
    ) -> RunHandle:
        """Process one submission inline; returns a completed handle.

        The single entry point of the redesigned API: pass a ``request``
        to compose (and, by default, execute) it, ``execute=False`` for a
        plan-only run, ``ranked=k`` for up to ``k`` alternative proposals,
        or ``plan=`` to execute a previously composed plan.  The returned
        :class:`~repro.runtime.handle.RunHandle` is already terminal —
        the same surface :class:`~repro.runtime.runtime.MiddlewareRuntime`
        completes asynchronously, so call sites are agnostic to the
        serial/pooled deployment choice: an ``Exception`` from composing
        or executing fails the handle, whose accessors re-raise it.
        """
        spec = RunSpec(
            request=request, plan=plan, execute=execute, adapt=adapt,
            ranked=ranked, best_effort=best_effort, track_sla=track_sla,
        )
        # Created before the work, so ``total_seconds`` measures it (a
        # handle built afterwards reads ~0 ms for a whole selection).
        handle = RunHandle(spec)
        handle._mark_running()
        # Simulated-clock latency annotations, mirroring what the
        # concurrent runtime stamps on pooled handles.
        handle.submitted_sim = self.environment.clock.now()
        context = (
            TraceContext.mint() if self.observability.enabled else None
        )
        handle.trace_context = context
        handle.trace_id = context.trace_id if context is not None else None
        task = spec.plan.task if spec.request is None else spec.request.task
        result = error = None
        # Mirror the pooled runtime's span shape: one ``runtime.request``
        # root per submission, every descendant carrying the minted trace
        # id — so serial and pooled runs assemble into identical
        # one-tree-per-request traces.
        with self.observability.adopt(context):
            with self.observability.span(
                "runtime.request", task=task.name, execute=spec.execute,
                inline=True,
            ) as request_span:
                try:
                    if spec.plan is not None:
                        plans = [spec.plan]
                    else:
                        plans = self.worker_state.compose(
                            spec, self.snapshots.acquire()
                        )
                    if spec.execute:
                        result = self._execute_plan(
                            plans[0], adapt=spec.adapt,
                            track_sla=spec.track_sla,
                        )
                        if self.observability.enabled:
                            result.trace = request_span
                except Exception as exc:  # noqa: BLE001 - lands on handle
                    error = exc
                request_span.set(status="done" if error is None else "failed")
        handle.finished_sim = self.environment.clock.now()
        if error is None:
            handle._complete(result, plans)
        else:
            handle._fail(error, RequestStatus.FAILED)
        return handle

    def run(
        self,
        request: UserRequest,
        *,
        adapt: bool = True,
        best_effort: bool = False,
        track_sla: bool = False,
    ) -> RunResult:
        """compose + execute in one step: ``submit(...).result()``."""
        return self.submit(
            request, adapt=adapt, best_effort=best_effort,
            track_sla=track_sla,
        ).result()
