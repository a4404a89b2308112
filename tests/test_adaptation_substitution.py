"""Tests for the service substitution strategy."""

from __future__ import annotations

import pytest

from repro.errors import SubstitutionError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.services.generator import ServiceGenerator
from repro.adaptation.monitoring import QoSMonitor, QoSObservation
from repro.adaptation.substitution import ServiceSubstitution
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.task import Task, leaf, sequence

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


@pytest.fixture
def plan():
    task = Task("t", sequence(leaf("A", "task:A"), leaf("B", "task:B")))
    generator = ServiceGenerator(PROPS, seed=5)
    candidates = CandidateSets(
        task,
        {a.name: generator.candidates(a.capability, 12)
         for a in task.activities},
    )
    request = UserRequest(
        task,
        constraints=(GlobalConstraint.at_most("response_time", 1e9),),
        weights={n: 1.0 for n in PROPS},
    )
    return QASSA(PROPS, config=QassaConfig(alternates_kept=3)).select(
        request, candidates
    )


class TestSubstitution:
    def test_replaces_with_preselected_alternate(self, plan):
        failing = plan.selections["A"].primary
        substitution = ServiceSubstitution(PROPS)
        result = substitution.substitute(plan, failing.service_id)
        assert result.removed == failing
        assert result.replacement != failing
        assert not result.used_fresh_candidates
        assert plan.selections["A"].primary == result.replacement
        assert plan.feasible

    def test_unknown_service_raises(self, plan):
        with pytest.raises(SubstitutionError):
            ServiceSubstitution(PROPS).substitute(plan, "svc-ghost")

    def test_aggregate_updated_after_substitution(self, plan):
        before = plan.aggregated_qos
        failing = plan.selections["B"].primary
        ServiceSubstitution(PROPS).substitute(plan, failing.service_id)
        after = plan.aggregated_qos
        # Aggregate recomputed with replacement's advertised QoS.
        assert isinstance(after, QoSVector)
        assert after is not before

    def test_no_alternates_no_fresh_raises(self, plan):
        # Strip alternates so the strategy has nothing to try.
        for selection in plan.selections.values():
            selection.services = [selection.primary]
        failing = plan.selections["A"].primary
        with pytest.raises(SubstitutionError):
            ServiceSubstitution(PROPS).substitute(plan, failing.service_id)

    def test_fresh_candidates_used_as_fallback(self, plan):
        for selection in plan.selections.values():
            selection.services = [selection.primary]
        failing = plan.selections["A"].primary
        generator = ServiceGenerator(PROPS, seed=99)
        fresh = generator.candidates("task:A", 5)
        result = ServiceSubstitution(PROPS).substitute(
            plan, failing.service_id, fresh_candidates=lambda: fresh
        )
        assert result.used_fresh_candidates
        assert result.replacement in fresh

    def test_infeasible_replacements_skipped(self, plan):
        """A substitute that would break the constraints is not chosen."""
        request = plan.request
        # Tighten the constraint so only sufficiently fast services fit.
        current_rt = plan.aggregated_qos["response_time"]
        tight = UserRequest(
            plan.task,
            constraints=(
                GlobalConstraint.at_most("response_time", current_rt * 1.2),
            ),
            weights=request.weights,
        )
        plan.request = tight
        failing = plan.selections["A"].primary
        substitution = ServiceSubstitution(PROPS)
        try:
            result = substitution.substitute(plan, failing.service_id)
        except SubstitutionError:
            return  # acceptable: no alternate keeps it feasible
        assert tight.satisfied_by(plan.aggregated_qos)
        assert result.replacement != failing

    def test_runtime_estimates_influence_decision(self, plan):
        """Monitored degradation of a surviving service is accounted for."""
        monitor = QoSMonitor(PROPS)
        surviving = plan.selections["B"].primary
        # B's real response time is catastrophically higher than advertised.
        monitor.observe(
            QoSObservation(surviving.service_id, "response_time", 5e8, 0.0)
        )
        plan.request = UserRequest(
            plan.task,
            constraints=(GlobalConstraint.at_most("response_time", 1e6),),
            weights=plan.request.weights,
        )
        failing = plan.selections["A"].primary
        substitution = ServiceSubstitution(PROPS, monitor=monitor)
        with pytest.raises(SubstitutionError):
            # No replacement for A can compensate B's measured 5e8 ms.
            substitution.substitute(plan, failing.service_id)
