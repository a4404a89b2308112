"""Dynamic binding of services to activities (§I.5).

QASSA returns *several* ranked services per activity; the actual binding is
deferred to the instant the activity is about to execute.  Three policies
are provided:

* :attr:`BindingPolicy.UTILITY` (default) — pick, among the still-alive
  ranked services, the one whose **run-time QoS estimate** (monitor EWMA,
  falling back to advertised values) yields the best utility under the
  user's weights — absorbing the gap between advertised and delivered QoS
  without a full adaptation round;
* :attr:`BindingPolicy.FAILOVER` — always the highest-ranked live service
  (QASSA's original ordering), ignoring run-time estimates: cheapest, and
  the natural baseline for the dynamic-binding ablation;
* :attr:`BindingPolicy.ROUND_ROBIN` — rotate over the live ranked services
  per activity, spreading load (and battery drain) across providers.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import BindingError
from repro.qos.properties import Direction, QoSProperty
from repro.services.description import ServiceDescription
from repro.composition.selection import CompositionPlan
from repro.composition.utility import SawTerm, row_utility
from repro.adaptation.monitoring import QoSMonitor
from repro.observability import core as observability_core
from repro.resilience.breaker import BreakerRegistry

#: Tells the binder whether a service is currently reachable.
LivenessProbe = Callable[[ServiceDescription], bool]


class BindingPolicy(enum.Enum):
    """How the binder chooses among an activity's live ranked services."""

    UTILITY = "utility"
    FAILOVER = "failover"
    ROUND_ROBIN = "round_robin"


class DynamicBinder:
    """Just-in-time activity → service binding."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        monitor: Optional[QoSMonitor] = None,
        liveness: Optional[LivenessProbe] = None,
        policy: BindingPolicy = BindingPolicy.UTILITY,
        observability=None,
        breakers: Optional[BreakerRegistry] = None,
    ) -> None:
        self.properties = dict(properties)
        self.monitor = monitor
        self.liveness = liveness
        self.policy = policy
        self.obs = observability_core.resolve(observability)
        self.breakers = breakers
        self._round_robin_state: Dict[str, int] = {}

    def bind(self, plan: CompositionPlan, activity_name: str) -> ServiceDescription:
        """Choose the service to invoke for one activity, right now.

        Raises :class:`BindingError` when every ranked service is dead.
        """
        with self.obs.span(
            "bind", activity=activity_name, policy=self.policy.value
        ) as span:
            service = self._bind(plan, activity_name, span)
        return service

    def _bind(
        self, plan: CompositionPlan, activity_name: str, span
    ) -> ServiceDescription:
        selection = plan.selections.get(activity_name)
        if selection is None:
            self.obs.counter("bind_failures_total").inc()
            raise BindingError(f"plan has no activity {activity_name!r}")

        alive = [
            s for s in selection.services
            if self.liveness is None or self.liveness(s)
        ]
        if self.breakers is not None and alive:
            # Fail fast past providers with open circuit breakers — but if
            # *every* live candidate is open-circuit, bypass the breakers
            # (a last-ditch probe beats guaranteed failure).
            admitted = [
                s for s in alive if self.breakers.allow(s.service_id)
            ]
            if admitted:
                alive = admitted
            else:
                self.obs.counter("breaker_saturated_total").inc()
        span.set(ranked=len(selection.services), alive=len(alive))
        if not alive:
            self.obs.counter("bind_failures_total").inc()
            raise BindingError(
                f"no live service for activity {activity_name!r} "
                f"(all {len(selection.services)} ranked services are down)"
            )

        if self.policy is BindingPolicy.FAILOVER or len(alive) == 1:
            service = alive[0]
        elif self.policy is BindingPolicy.ROUND_ROBIN:
            index = self._round_robin_state.get(activity_name, 0)
            self._round_robin_state[activity_name] = index + 1
            service = alive[index % len(alive)]
        else:
            service = self._best_by_runtime_utility(plan, alive)
        span.set(service_id=service.service_id)
        self.obs.counter("bind_total").inc()
        return service

    def _best_by_runtime_utility(
        self, plan: CompositionPlan, alive
    ) -> ServiceDescription:
        """The live service of best SAW utility over the run-time estimates.

        Each service is one row of :meth:`QoSMonitor.estimated_row` over
        the weighted properties; each column is normalised over its
        values' min and max, a property a service does not advertise
        scores 0, and the first-ranked service wins a tie.
        """
        monitor = self.monitor
        if monitor is None:
            return alive[0]
        # Without any run-time evidence the estimates are just the
        # advertisements QASSA already optimised over — respect the plan's
        # ranking instead of re-ranking on a different (local) utility.
        if not any(
            monitor.estimate(service.service_id, name) is not None
            for service in alive
            for name in self.properties
        ):
            return alive[0]
        weights = plan.request.normalised_weights(self.properties)
        names = tuple(weights)
        rows = [
            monitor.estimated_row(s.service_id, s.advertised_qos, names)
            for s in alive
        ]
        terms: List[SawTerm] = []
        for position, (name, weight) in enumerate(weights.items()):
            column = [row[position] for row in rows
                      if row[position] is not None]
            if column:
                terms.append((
                    weight, position, min(column), max(column),
                    self.properties[name].direction is Direction.NEGATIVE,
                ))
        best, best_utility = alive[0], None
        for row, service in zip(rows, alive):
            utility = row_utility(
                row,
                terms if None not in row
                else [term for term in terms if row[term[1]] is not None],
            )
            if best_utility is None or utility > best_utility:
                best, best_utility = service, utility
        return best
