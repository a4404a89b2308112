"""Service substitution — the first adaptation strategy (§V.1.2).

When a service in a running composition under-delivers (or dies), the
cheapest repair replaces it with another service of the same activity.
QASSA deliberately selected *several* services per activity, so the first
substitution candidates are the pre-selected alternates — no new discovery
round is needed.  If none of them keeps the composition feasible, the
activity's full (fresh) candidate set is fetched, then searched best
utility first by the plan's own local normaliser and the requester's
weights; only when that also fails does behavioural adaptation take over.

The substitution decision re-aggregates the composition's QoS with the
monitor's *run-time estimates* for the surviving services (not their
advertised values), which is what makes the repair trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SubstitutionError
from repro.qos.properties import QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.composition.aggregation import aggregate_composition
from repro.composition.selection import CompositionPlan, SelectedActivity
from repro.composition.utility import service_utility
from repro.adaptation.monitoring import QoSMonitor


@dataclass
class SubstitutionResult:
    """Outcome of one substitution attempt."""

    activity_name: str
    removed: ServiceDescription
    replacement: ServiceDescription
    aggregated_qos: QoSVector
    used_fresh_candidates: bool


class ServiceSubstitution:
    """Replaces one composition member while preserving global feasibility."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        monitor: Optional[QoSMonitor] = None,
    ) -> None:
        self.properties = dict(properties)
        self.monitor = monitor

    # ------------------------------------------------------------------
    def substitute(
        self,
        plan: CompositionPlan,
        failing_service_id: str,
        fresh_candidates: Optional[
            Callable[[], Sequence[ServiceDescription]]
        ] = None,
    ) -> SubstitutionResult:
        """Replace the failing service in ``plan`` (mutating the plan).

        Candidates are tried in order: the plan's pre-selected alternates,
        then the pool ``fresh_candidates()`` returns (e.g. a new discovery
        round), best utility first when the plan carries the activity's
        local normaliser and in the given order otherwise.  The pool is
        fetched only once every alternate has failed: most substitutions
        never reach it.  The first candidate keeping the request's global
        constraints satisfied — under run-time QoS estimates — wins.
        Raises :class:`SubstitutionError` when none does.
        """
        activity_name = self._activity_of(plan, failing_service_id)
        selection = plan.selections[activity_name]
        removed = selection.primary

        alternates: List[ServiceDescription] = list(selection.alternates)
        found = self._first_feasible(
            plan, activity_name, alternates, failing_service_id
        )
        used_fresh = found is None and fresh_candidates is not None
        if used_fresh:
            fresh = [
                s
                for s in fresh_candidates()
                if s.service_id != failing_service_id
                and all(s != existing for existing in alternates)
            ]
            found = self._first_feasible(
                plan, activity_name, self._ranked(plan, selection, fresh),
                failing_service_id,
            )
        if found is None:
            raise SubstitutionError(
                f"no substitute for service {failing_service_id!r} "
                f"(activity {activity_name!r}) keeps the composition feasible"
            )
        candidate, aggregated = found
        self._apply(plan, activity_name, candidate, aggregated)
        return SubstitutionResult(
            activity_name=activity_name,
            removed=removed,
            replacement=candidate,
            aggregated_qos=aggregated,
            used_fresh_candidates=used_fresh,
        )

    def _first_feasible(
        self,
        plan: CompositionPlan,
        activity_name: str,
        candidates: List[ServiceDescription],
        failing_service_id: str,
    ) -> Optional[Tuple[ServiceDescription, QoSVector]]:
        """The first candidate (and the composition's QoS with it) that
        keeps the request's global constraints satisfied, else None."""
        for candidate in candidates:
            if candidate.service_id == failing_service_id:
                continue
            aggregated = self._aggregate_with(plan, activity_name, candidate)
            if plan.request.satisfied_by(aggregated):
                return candidate, aggregated
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _ranked(
        plan: CompositionPlan,
        selection: SelectedActivity,
        candidates: List[ServiceDescription],
    ) -> List[ServiceDescription]:
        """``candidates`` best utility first, scored with the selection's
        local normaliser and the request's weights over its properties, so
        they rank on the scale the selector ranked the activity on.
        Without a normaliser the given order is kept."""
        normalizer = selection.normalizer
        if normalizer is None:
            return candidates
        weights = plan.request.normalised_weights(normalizer.properties)

        def score(service: ServiceDescription) -> float:
            return service_utility(service.advertised_qos, normalizer, weights)

        return sorted(candidates, key=lambda s: (-score(s), s.service_id))

    def _activity_of(self, plan: CompositionPlan, service_id: str) -> str:
        for name, selection in plan.selections.items():
            if selection.primary.service_id == service_id:
                return name
        raise SubstitutionError(
            f"service {service_id!r} is not bound in the composition"
        )

    def _runtime_qos(self, service: ServiceDescription) -> QoSVector:
        if self.monitor is None:
            return service.advertised_qos
        return self.monitor.estimated_vector(
            service.service_id, service.advertised_qos
        )

    def _aggregate_with(
        self,
        plan: CompositionPlan,
        activity_name: str,
        candidate: ServiceDescription,
    ) -> QoSVector:
        assignments: Dict[str, QoSVector] = {}
        for name, selection in plan.selections.items():
            if name == activity_name:
                # The incoming service has no run-time history with us yet;
                # its advertised QoS is the best information available.
                assignments[name] = candidate.advertised_qos
            else:
                assignments[name] = self._runtime_qos(selection.primary)
        relevant = {
            n: p for n, p in self.properties.items()
            if all(n in v for v in assignments.values())
        }
        return aggregate_composition(
            plan.task, assignments, relevant, plan.approach
        )

    def _apply(
        self,
        plan: CompositionPlan,
        activity_name: str,
        candidate: ServiceDescription,
        aggregated: QoSVector,
    ) -> None:
        selection = plan.selections[activity_name]
        remaining = [
            s for s in selection.services
            if s != candidate and s != selection.primary
        ]
        selection.services = [candidate] + remaining
        plan.aggregated_qos = aggregated
        plan.feasible = True
