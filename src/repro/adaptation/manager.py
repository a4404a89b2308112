"""The QoS-driven composition adaptation framework (Fig. VI.4).

:class:`AdaptationManager` wires the pieces together: it deploys a selected
composition plan under the monitor's watch, translates the user's *global*
constraints into per-service watch bounds, reacts to triggers by escalating
through the two strategies —

1. **service substitution** (cheap, local), and if that fails
2. **behavioural adaptation** (re-realise the task through an alternative
   behaviour from the task class repository) —

and records every decision in an audit log the experiments read.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import (
    AdaptationError,
    BehaviouralAdaptationError,
    SubstitutionError,
)
from repro.qos.properties import QoSProperty
from repro.services.description import ServiceDescription
from repro.services.discovery import QoSConstraint
from repro.composition.request import decompose_constraint
from repro.composition.selection import CompositionPlan
from repro.adaptation.behavioural import (
    BehaviouralAdaptation,
    BehaviouralAdaptationResult,
)
from repro.adaptation.monitoring import AdaptationTrigger, QoSMonitor, TriggerKind
from repro.adaptation.substitution import ServiceSubstitution, SubstitutionResult
from repro.observability import core as observability_core


class AdaptationAction(enum.Enum):
    """What the manager did about a trigger."""

    NONE = "none"
    SUBSTITUTION = "substitution"
    BEHAVIOURAL = "behavioural"
    FAILED = "failed"


@dataclass
class AdaptationOutcome:
    """One audit-log entry: what a trigger led to."""

    trigger: AdaptationTrigger
    action: AdaptationAction
    substitution: Optional[SubstitutionResult] = None
    behavioural: Optional[BehaviouralAdaptationResult] = None
    error: Optional[str] = None


#: Supplies fresh substitution candidates for an abstract activity on
#: demand: called only once the plan's alternates have all failed.
#: Receives the Activity object (not just a name) so the resolver works
#: across behavioural adaptations, where activity names change but
#: capabilities remain.
FreshCandidates = Callable[["Activity"], Sequence[ServiceDescription]]


class AdaptationManager:
    """Escalating QoS-driven adaptation over one running composition."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        monitor: QoSMonitor,
        substitution: ServiceSubstitution,
        behavioural: Optional[BehaviouralAdaptation] = None,
        fresh_candidates: Optional[FreshCandidates] = None,
        observability=None,
    ) -> None:
        self.properties = dict(properties)
        self.monitor = monitor
        self.substitution = substitution
        self.behavioural = behavioural
        self.fresh_candidates = fresh_candidates
        self.obs = observability_core.resolve(observability)
        self.plan: Optional[CompositionPlan] = None
        #: The deployed plan's per-service watch bounds.
        self._bounds: List[QoSConstraint] = []
        self.log: List[AdaptationOutcome] = []
        self._deployed = False

    # ------------------------------------------------------------------
    def deploy(self, plan: CompositionPlan) -> None:
        """Put a composition under adaptation management.

        Global constraints are decomposed into per-service watch bounds by
        an equal-share heuristic: an additive budget (response time, cost)
        is split evenly across activities; multiplicative/min bounds apply
        to each service directly (a composition can never beat its worst
        member on those).  Every service shares the bounds, so they are
        decomposed once per plan.
        """
        self.plan = plan
        n = max(len(plan.selections), 1)
        bounds: List[QoSConstraint] = []
        for constraint in plan.request.constraints:
            prop = self.properties.get(constraint.property_name)
            if prop is not None:
                bounds.append(self._per_service_bound(constraint, prop, n))
        self._bounds = bounds
        for selection in plan.selections.values():
            self.monitor.watch(selection.primary.service_id, self._bounds)
        self._deployed = True

    @staticmethod
    def _per_service_bound(
        constraint: QoSConstraint, prop: QoSProperty, activity_count: int
    ) -> QoSConstraint:
        return decompose_constraint(constraint, prop, activity_count)

    # ------------------------------------------------------------------
    def handle(self, trigger: AdaptationTrigger) -> AdaptationOutcome:
        """React to one monitor trigger; escalates through the strategies."""
        if not self._deployed or self.plan is None:
            raise AdaptationError("no composition deployed")

        outcome = AdaptationOutcome(trigger=trigger, action=AdaptationAction.NONE)
        bound_ids = {
            sel.primary.service_id for sel in self.plan.selections.values()
        }
        if trigger.service_id not in bound_ids:
            # Stale trigger about a service we already swapped out.
            self.log.append(outcome)
            return outcome

        # Strategy 1: substitution.
        with self.obs.span(
            "adapt.substitute",
            service_id=trigger.service_id,
            trigger_kind=trigger.kind.value,
            property=trigger.property_name,
        ) as span:
            try:
                fresh = None
                if self.fresh_candidates is not None:
                    activity_name = self._activity_of(trigger.service_id)
                    fresh = functools.partial(
                        self.fresh_candidates,
                        self.plan.task.activity(activity_name),
                    )
                result = self.substitution.substitute(
                    self.plan, trigger.service_id, fresh_candidates=fresh
                )
            except SubstitutionError as substitution_error:
                outcome.error = str(substitution_error)
                span.set(succeeded=False)
            else:
                outcome.action = AdaptationAction.SUBSTITUTION
                outcome.substitution = result
                span.set(
                    succeeded=True,
                    replacement=result.replacement.service_id,
                )
                self.monitor.unwatch(result.removed.service_id)
                self._rewatch(result.replacement)
                self.obs.counter(
                    "adaptations_total",
                    action=AdaptationAction.SUBSTITUTION.value,
                ).inc()
                self.log.append(outcome)
                return outcome

        # Strategy 2: behavioural adaptation.
        if self.behavioural is not None:
            with self.obs.span(
                "adapt.behavioural",
                service_id=trigger.service_id,
                trigger_kind=trigger.kind.value,
            ) as span:
                try:
                    result_b = self.behavioural.adapt(self.plan.request)
                except BehaviouralAdaptationError as behavioural_error:
                    outcome.action = AdaptationAction.FAILED
                    outcome.error = (
                        f"{outcome.error}; behavioural: {behavioural_error}"
                    )
                    span.set(succeeded=False)
                else:
                    outcome.action = AdaptationAction.BEHAVIOURAL
                    outcome.behavioural = result_b
                    span.set(succeeded=True)
                    self.deploy(result_b.plan)
        else:
            outcome.action = AdaptationAction.FAILED

        self.obs.counter(
            "adaptations_total", action=outcome.action.value
        ).inc()
        self.log.append(outcome)
        return outcome

    # ------------------------------------------------------------------
    # global monitoring (§V.1.1 — the monitor's scope is the whole
    # composition, not just individual services)
    # ------------------------------------------------------------------
    def composition_runtime_qos(self):
        """The composition's aggregated QoS under run-time estimates.

        Every bound service's vector is the monitor's EWMA estimate where
        observations exist, its advertisement otherwise; aggregation follows
        the plan's pattern tree and approach.
        """
        from repro.composition.aggregation import aggregate_composition

        if self.plan is None:
            raise AdaptationError("no composition deployed")
        assignments = {
            name: self.monitor.estimated_vector(
                selection.primary.service_id,
                selection.primary.advertised_qos,
            )
            for name, selection in self.plan.selections.items()
        }
        relevant = {
            name: prop
            for name, prop in self.properties.items()
            if all(name in vector for vector in assignments.values())
        }
        return aggregate_composition(
            self.plan.task, assignments, relevant, self.plan.approach
        )

    def check_global(self) -> Dict[str, float]:
        """Violations of the *global* constraints under run-time estimates.

        Per-service watches are conservative (equal-share decomposition can
        flag a service whose overshoot another service's slack absorbs);
        this is the exact check.  Returns ``str(constraint) -> slack`` for
        violated constraints, empty when the composition still holds.
        """
        if self.plan is None:
            raise AdaptationError("no composition deployed")
        return self.plan.request.violations(self.composition_runtime_qos())

    def handle_global_violations(self) -> List[AdaptationOutcome]:
        """Run the global check and adapt the worst offender if it fails.

        The service contributing most to the most-violated property (by
        estimated value, direction-aware) is treated as the failing one and
        escalated through the usual strategies.
        """
        violations = self.check_global()
        if not violations or self.plan is None:
            return []
        worst_desc = min(violations, key=lambda k: violations[k])
        prop_name = worst_desc.split()[0]
        prop = self.properties.get(prop_name)
        if prop is None:
            return []
        contributions = []
        for name, selection in self.plan.selections.items():
            estimate = self.monitor.estimated_vector(
                selection.primary.service_id,
                selection.primary.advertised_qos,
            ).get(prop_name)
            if estimate is not None:
                contributions.append((estimate, selection.primary.service_id))
        if not contributions:
            return []
        worst_value = prop.direction.worst([c[0] for c in contributions])
        offender = next(
            sid for value, sid in contributions if value == worst_value
        )
        trigger = AdaptationTrigger(
            kind=TriggerKind.VIOLATION,
            service_id=offender,
            property_name=prop_name,
            observed=worst_value,
            projected=None,
            bound=None,
            timestamp=0.0,
        )
        return [self.handle(trigger)]

    # ------------------------------------------------------------------
    def _activity_of(self, service_id: str) -> str:
        assert self.plan is not None
        for name, selection in self.plan.selections.items():
            if selection.primary.service_id == service_id:
                return name
        raise AdaptationError(f"service {service_id!r} not bound in the plan")

    def _rewatch(self, service: ServiceDescription) -> None:
        self.monitor.watch(service.service_id, self._bounds)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Counts per action kind (used by the ablation benchmarks)."""
        counts: Dict[str, int] = {}
        for outcome in self.log:
            counts[outcome.action.value] = counts.get(outcome.action.value, 0) + 1
        return counts
