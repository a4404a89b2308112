"""Service-level agreements over composed services.

The survey chapter (II §2.2) highlights *contracting ability* as a defining
feature of service orientation, and VRESCo-style middleware represents a
composition's QoS as per-service SLAs under a global orchestration view.
This module provides that layer for QASOM:

* a :class:`ServiceLevelAgreement` holds the objectives one service owes
  the composition — derived from the user's *global* constraints by the
  same equal-share decomposition the monitor uses
  (:func:`repro.composition.request.decompose_constraint`);
* :func:`derive_slas` builds the SLA set for a selected composition plan;
* :class:`ComplianceTracker` consumes run-time observations (directly, or
  as a monitor listener) and produces per-objective
  :class:`ComplianceReport` rows with violation counts, compliance ratios
  and accrued penalties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.qos.properties import QoSProperty
from repro.services.discovery import QoSConstraint
from repro.composition.request import decompose_constraint
from repro.composition.selection import CompositionPlan


@dataclass(frozen=True)
class ServiceLevelObjective:
    """One agreed bound, with an optional penalty per violation."""

    constraint: QoSConstraint
    penalty_per_violation: float = 0.0

    @property
    def property_name(self) -> str:
        return self.constraint.property_name

    def violated_by(self, value: float) -> bool:
        return not self.constraint.satisfied_by(value)

    def __str__(self) -> str:
        return str(self.constraint)


@dataclass
class ServiceLevelAgreement:
    """The objectives one service owes one composition."""

    service_id: str
    provider: str
    objectives: Tuple[ServiceLevelObjective, ...]
    composition: str = ""

    def objective_for(self, property_name: str) -> Optional[ServiceLevelObjective]:
        for objective in self.objectives:
            if objective.property_name == property_name:
                return objective
        return None


def derive_slas(
    plan: CompositionPlan,
    properties: Mapping[str, QoSProperty],
    penalty_per_violation: float = 0.0,
    include_alternates: bool = True,
) -> Dict[str, ServiceLevelAgreement]:
    """Per-service SLAs implementing a plan's global constraints.

    Each global constraint is decomposed into an equal-share per-service
    bound; services only receive objectives for properties they advertise
    (a provider cannot contract on a dimension it never promised).  With
    ``include_alternates`` (default) every ranked service of each activity
    gets an agreement — dynamic binding may invoke any of them, and an
    uncontracted invocation would escape compliance tracking.
    """
    n = len(plan.selections)
    slas: Dict[str, ServiceLevelAgreement] = {}
    for activity, selection in plan.selections.items():
        services = (
            selection.services if include_alternates else [selection.primary]
        )
        for service in services:
            objectives: List[ServiceLevelObjective] = []
            for constraint in plan.request.constraints:
                prop = properties.get(constraint.property_name)
                if prop is None:
                    continue
                if constraint.property_name not in service.advertised_qos:
                    continue
                objectives.append(
                    ServiceLevelObjective(
                        decompose_constraint(constraint, prop, n),
                        penalty_per_violation,
                    )
                )
            slas[service.service_id] = ServiceLevelAgreement(
                service_id=service.service_id,
                provider=service.provider,
                objectives=tuple(objectives),
                composition=plan.task.name,
            )
    return slas


@dataclass
class ComplianceReport:
    """Per-objective compliance of one service."""

    service_id: str
    objective: ServiceLevelObjective
    observations: int = 0
    violations: int = 0
    worst_value: Optional[float] = None
    accrued_penalty: float = 0.0

    @property
    def compliance_ratio(self) -> float:
        """Fraction of observations meeting the objective (1.0 if none)."""
        if self.observations == 0:
            return 1.0
        return 1.0 - self.violations / self.observations

    @property
    def compliant(self) -> bool:
        return self.violations == 0


class ComplianceTracker:
    """Tracks observed QoS against a set of SLAs.

    Feed it directly via :meth:`record`, or attach it to a
    :class:`~repro.adaptation.monitoring.QoSMonitor`-shaped observation
    stream by calling :meth:`record` from the execution engine's invoker
    wrapper.
    """

    def __init__(self, slas: Mapping[str, ServiceLevelAgreement]) -> None:
        self._slas = dict(slas)
        self._reports: Dict[Tuple[str, str], ComplianceReport] = {}
        for sla in self._slas.values():
            for objective in sla.objectives:
                key = (sla.service_id, objective.property_name)
                self._reports[key] = ComplianceReport(sla.service_id, objective)

    def record(self, service_id: str, property_name: str, value: float) -> bool:
        """Record one observation; returns True when it violated the SLO.

        Observations for services/properties without an agreement are
        ignored (no contract — nothing to breach).
        """
        report = self._reports.get((service_id, property_name))
        if report is None:
            return False
        report.observations += 1
        objective = report.objective
        prop_constraint = objective.constraint
        if report.worst_value is None or prop_constraint.slack(value) < (
            prop_constraint.slack(report.worst_value)
        ):
            report.worst_value = value
        if objective.violated_by(value):
            report.violations += 1
            report.accrued_penalty += objective.penalty_per_violation
            return True
        return False

    def record_vector(self, service_id: str, vector) -> int:
        """Record a full QoS vector; returns the number of violations."""
        count = 0
        for name, value in vector.items():
            if self.record(service_id, name, value):
                count += 1
        return count

    # ------------------------------------------------------------------
    def report(self, service_id: str) -> List[ComplianceReport]:
        return [
            r for (sid, _), r in self._reports.items() if sid == service_id
        ]

    def reports(self) -> List[ComplianceReport]:
        return list(self._reports.values())

    def total_penalty(self) -> float:
        return sum(r.accrued_penalty for r in self._reports.values())

    def breached_agreements(self) -> List[str]:
        """Service ids with at least one violated objective."""
        return sorted({
            r.service_id for r in self._reports.values() if not r.compliant
        })

    def summary(self) -> Dict[str, float]:
        reports = self.reports()
        observations = sum(r.observations for r in reports)
        violations = sum(r.violations for r in reports)
        return {
            "agreements": float(len(self._slas)),
            "objectives": float(len(reports)),
            "observations": float(observations),
            "violations": float(violations),
            "total_penalty": self.total_penalty(),
        }
