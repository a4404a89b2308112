"""Tests for the QASSA selection algorithm."""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SelectionError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.services.generator import ServiceGenerator
from repro.composition.aggregation import AggregationApproach
from repro.composition.baselines import ExhaustiveSelection
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.task import Task, leaf, parallel, sequence
from repro.observability import Observability

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}


def build_problem(activities=3, services=12, seed=0, tightness=None):
    task = Task(
        "p", sequence(*[leaf(f"A{i}", f"task:C{i}") for i in range(activities)])
    )
    generator = ServiceGenerator(PROPS, seed=seed)
    candidates = CandidateSets(
        task,
        {
            a.name: generator.candidates(a.capability, services)
            for a in task.activities
        },
    )
    constraints = ()
    if tightness is not None:
        from repro.experiments.workloads import constraints_at_tightness

        constraints = constraints_at_tightness(
            task, candidates, PROPS,
            ["response_time", "availability"], tightness,
        )
    request = UserRequest(
        task,
        constraints=constraints,
        weights={name: 1.0 for name in PROPS},
    )
    return task, request, candidates


class TestBasicSelection:
    def test_unconstrained_selection_succeeds(self):
        _, request, candidates = build_problem()
        plan = QASSA(PROPS).select(request, candidates)
        assert plan.feasible
        assert set(plan.selections) == {"A0", "A1", "A2"}
        assert 0.0 <= plan.utility <= 1.0

    def test_plan_has_ranked_alternates(self):
        _, request, candidates = build_problem(services=20)
        config = QassaConfig(alternates_kept=3)
        plan = QASSA(PROPS, config=config).select(request, candidates)
        for name, selection in plan.selections.items():
            assert 1 <= len(selection.services) <= 4
            assert selection.primary == selection.services[0]

    def test_aggregated_qos_matches_binding(self):
        from repro.composition.aggregation import aggregate_composition

        task, request, candidates = build_problem()
        plan = QASSA(PROPS).select(request, candidates)
        recomputed = aggregate_composition(
            task,
            {n: s.advertised_qos for n, s in plan.binding().items()},
            PROPS,
            plan.approach,
        )
        for name in PROPS:
            assert plan.aggregated_qos[name] == pytest.approx(recomputed[name])

    def test_statistics_populated(self):
        _, request, candidates = build_problem()
        plan = QASSA(PROPS).select(request, candidates)
        stats = plan.statistics
        assert stats.elapsed_seconds > 0
        assert stats.combinations_explored >= 1
        assert stats.utility_evaluations > 0
        assert stats.search_space == candidates.search_space()

    def test_deterministic_given_seed(self):
        _, request, candidates = build_problem(seed=4)
        a = QASSA(PROPS, config=QassaConfig(seed=1)).select(request, candidates)
        b = QASSA(PROPS, config=QassaConfig(seed=1)).select(request, candidates)
        assert a.service_ids() == b.service_ids()

    def test_config_keeps_only_the_caller_knobs(self):
        assert [f.name for f in dataclasses.fields(QassaConfig)] == [
            "alternates_kept", "seed",
        ]
        with pytest.raises(TypeError):
            QassaConfig(prune_dominated=False)


class TestConstraints:
    def test_feasible_plan_satisfies_constraints(self):
        _, request, candidates = build_problem(services=25, tightness=0.6)
        plan = QASSA(PROPS).select(request, candidates)
        assert plan.feasible
        assert request.satisfied_by(plan.aggregated_qos)

    def test_impossible_constraints_raise(self):
        task, _, candidates = build_problem()
        request = UserRequest(
            task,
            constraints=(GlobalConstraint.at_most("response_time", 0.001),),
            weights={"response_time": 1.0},
        )
        with pytest.raises(SelectionError):
            QASSA(PROPS).select(request, candidates)

    def test_a_selection_that_raises_is_still_counted(self):
        task, _, candidates = build_problem()
        request = UserRequest(
            task,
            constraints=(GlobalConstraint.at_most("response_time", 0.001),),
            weights={"response_time": 1.0},
        )
        obs = Observability()
        with pytest.raises(SelectionError) as raised:
            QASSA(PROPS, observability=obs).select(request, candidates)
        explored = int(
            re.search(r"explored (\d+) level", str(raised.value)).group(1)
        )
        assert explored > 0
        assert obs.metrics.value("qassa_selections_total") == 1
        assert obs.metrics.histogram("qassa_selection_seconds").count == 1
        assert obs.metrics.value("qassa_combinations_explored_total") == (
            explored
        )

    def test_best_effort_returns_infeasible_plan(self):
        task, _, candidates = build_problem()
        request = UserRequest(
            task,
            constraints=(GlobalConstraint.at_most("response_time", 0.001),),
            weights={"response_time": 1.0},
        )
        plan = QASSA(PROPS).select(request, candidates, best_effort=True)
        assert not plan.feasible

    def test_unknown_property_in_request_raises(self):
        task, _, candidates = build_problem()
        request = UserRequest(
            task, constraints=(GlobalConstraint.at_most("karma", 1.0),)
        )
        with pytest.raises(SelectionError):
            QASSA(PROPS).select(request, candidates)

    def test_tight_but_satisfiable_finds_solution(self):
        """When exhaustive proves feasibility, QASSA should also succeed for
        moderately tight constraints."""
        _, request, candidates = build_problem(services=15, tightness=0.45)
        exhaustive_ok = True
        try:
            ExhaustiveSelection(PROPS).select(request, candidates)
        except SelectionError:
            exhaustive_ok = False
        if not exhaustive_ok:
            pytest.skip("instance infeasible at this tightness")
        plan = QASSA(PROPS).select(request, candidates)
        assert plan.feasible


class TestOptimality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_optimality_above_85_percent(self, seed):
        _, request, candidates = build_problem(
            activities=3, services=12, seed=seed, tightness=0.7
        )
        try:
            optimal = ExhaustiveSelection(PROPS).select(request, candidates)
        except SelectionError:
            pytest.skip("infeasible instance")
        plan = QASSA(PROPS).select(request, candidates)
        assert plan.utility >= 0.85 * optimal.utility

    def test_single_candidate_per_activity_is_trivially_optimal(self):
        _, request, candidates = build_problem(services=1)
        plan = QASSA(PROPS).select(request, candidates)
        optimal = ExhaustiveSelection(PROPS).select(request, candidates)
        assert plan.utility == pytest.approx(optimal.utility)
        assert plan.service_ids() == optimal.service_ids()


class TestLocalPhase:
    def test_dominated_candidates_pruned(self):
        task = Task("t", sequence(leaf("A", "task:C")))
        dominant = ServiceDescription(
            "good", "task:C",
            QoSVector({"response_time": 10.0, "cost": 1.0,
                       "availability": 0.99, "reliability": 0.99}, PROPS),
        )
        dominated = ServiceDescription(
            "bad", "task:C",
            QoSVector({"response_time": 100.0, "cost": 10.0,
                       "availability": 0.6, "reliability": 0.6}, PROPS),
        )
        candidates = CandidateSets(task, {"A": [dominated, dominant]})
        request = UserRequest(task, weights={n: 1.0 for n in PROPS})
        selector = QASSA(PROPS)
        locals_ = selector.local_selections(request, candidates)
        assert [s.name for s in locals_["A"].services] == ["good"]

    def test_levels_cover_kept_services(self):
        _, request, candidates = build_problem(services=30)
        locals_ = QASSA(PROPS).local_selections(request, candidates)
        for sel in locals_.values():
            covered = sorted(
                i for level in sel.levels for i in level.member_indexes
            )
            assert covered == list(range(len(sel.services)))


class TestParallelTask:
    def test_selection_on_parallel_structure(self):
        task = Task(
            "t", sequence(leaf("A", "task:A"),
                          parallel(leaf("B", "task:B"), leaf("C", "task:C"))),
        )
        generator = ServiceGenerator(PROPS, seed=2)
        candidates = CandidateSets(
            task,
            {a.name: generator.candidates(a.capability, 8)
             for a in task.activities},
        )
        request = UserRequest(
            task,
            constraints=(GlobalConstraint.at_most("response_time", 1e9),),
            weights={n: 1.0 for n in PROPS},
        )
        plan = QASSA(PROPS).select(request, candidates)
        assert plan.feasible
        # Parallel response time is max of B/C branches plus A.
        binding = plan.binding()
        expected = binding["A"].qos("response_time") + max(
            binding["B"].qos("response_time"), binding["C"].qos("response_time")
        )
        assert plan.aggregated_qos["response_time"] == pytest.approx(expected)


@settings(max_examples=15, deadline=None)
@given(
    activities=st.integers(1, 4),
    services=st.integers(1, 10),
    seed=st.integers(0, 100),
)
def test_unconstrained_selection_never_fails(activities, services, seed):
    _, request, candidates = build_problem(activities, services, seed)
    plan = QASSA(PROPS).select(request, candidates)
    assert plan.feasible
    assert len(plan.selections) == activities
