"""Tests for ranked multi-composition selection (§I.1 shopping platform)."""

from __future__ import annotations

import pytest

from repro.errors import SelectionError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.services.generator import ServiceGenerator
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.task import Task, leaf, sequence
from repro.observability import Observability

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


def build_problem(activities=3, services=15, seed=0, rt_bound=None):
    task = Task(
        "p", sequence(*[leaf(f"A{i}", f"task:C{i}") for i in range(activities)])
    )
    generator = ServiceGenerator(PROPS, seed=seed)
    candidates = CandidateSets(
        task,
        {a.name: generator.candidates(a.capability, services)
         for a in task.activities},
    )
    constraints = ()
    if rt_bound is not None:
        constraints = (GlobalConstraint.at_most("response_time", rt_bound),)
    request = UserRequest(
        task, constraints=constraints, weights={n: 1.0 for n in PROPS}
    )
    return request, candidates


class TestSelectRanked:
    def test_returns_k_distinct_feasible_plans(self):
        request, candidates = build_problem()
        plans = QASSA(PROPS).select_ranked(request, candidates, k=3)
        assert 1 <= len(plans) <= 3
        bindings = {tuple(sorted(p.service_ids().items())) for p in plans}
        assert len(bindings) == len(plans)
        for plan in plans:
            assert plan.feasible
            assert request.satisfied_by(plan.aggregated_qos)

    def test_sorted_by_utility_descending(self):
        request, candidates = build_problem(services=25)
        plans = QASSA(PROPS).select_ranked(request, candidates, k=4)
        utilities = [p.utility for p in plans]
        assert utilities == sorted(utilities, reverse=True)

    def test_first_plan_matches_single_select(self):
        request, candidates = build_problem(seed=3)
        single = QASSA(PROPS).select(request, candidates)
        ranked = QASSA(PROPS).select_ranked(request, candidates, k=3)
        assert ranked[0].service_ids() == single.service_ids()

    def test_k_one_equivalent_to_select(self):
        request, candidates = build_problem(seed=4)
        plans = QASSA(PROPS).select_ranked(request, candidates, k=1)
        assert len(plans) == 1

    def test_invalid_k_rejected(self):
        request, candidates = build_problem()
        with pytest.raises(SelectionError):
            QASSA(PROPS).select_ranked(request, candidates, k=0)

    def test_infeasible_raises(self):
        request, candidates = build_problem(rt_bound=0.001)
        with pytest.raises(SelectionError):
            QASSA(PROPS).select_ranked(request, candidates, k=3)

    def test_fewer_than_k_when_lattice_small(self):
        """One candidate per activity → exactly one distinct composition."""
        request, candidates = build_problem(services=1)
        plans = QASSA(PROPS).select_ranked(request, candidates, k=5)
        assert len(plans) == 1

    def test_constrained_ranked_plans_all_feasible(self):
        request, candidates = build_problem(services=20, seed=6)
        # Put a real bound halfway through the feasible range.
        loose = QASSA(PROPS).select(request, candidates)
        bound = loose.aggregated_qos["response_time"] * 1.5
        constrained = UserRequest(
            request.task,
            constraints=(GlobalConstraint.at_most("response_time", bound),),
            weights=request.weights,
        )
        plans = QASSA(PROPS).select_ranked(constrained, candidates, k=3)
        for plan in plans:
            assert plan.aggregated_qos["response_time"] <= bound + 1e-9


class TestOneSelectionPath:
    def test_ranked_selection_is_traced_and_counted_like_select(self):
        request, candidates = build_problem()
        obs = Observability()
        plans = QASSA(PROPS, observability=obs).select_ranked(
            request, candidates, k=3
        )
        assert [span.name for span in obs.spans] == ["qassa.select"]
        (root,) = obs.spans
        assert len(root.find("qassa.select")) == 1
        assert [c.name for c in root.children if c.name == "qassa.global"] == [
            "qassa.global"
        ]
        assert root.find("qassa.global")[0].attributes["k"] == 3
        assert root.attributes["utility"] == plans[0].utility
        assert obs.metrics.value("qassa_selections_total") == 1
        assert obs.metrics.histogram("qassa_selection_seconds").count == 1
        assert obs.metrics.value("qassa_combinations_explored_total") == (
            plans[0].statistics.combinations_explored
        )
