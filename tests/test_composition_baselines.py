"""Tests for the baseline selection algorithms."""

from __future__ import annotations

import random

import pytest

from repro.errors import SelectionError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.services.generator import ServiceGenerator
from repro.composition.baselines import (
    ExhaustiveSelection,
    GeneticSelection,
    GreedySelection,
    RandomSelection,
    _local_scores,
)
from repro.composition.exact import ExactSelection
from repro.composition.qassa import QASSA
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import (
    CandidateSets,
    evaluate_assignment,
    relevant_properties,
)
from repro.composition.task import Task, leaf, sequence
from repro.composition.utility import Normalizer, service_utility

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


def build_problem(activities=3, services=6, seed=0, rt_bound=None):
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


class TestExhaustive:
    def test_explores_full_space(self):
        request, candidates = build_problem(activities=2, services=4)
        plan = ExhaustiveSelection(PROPS).select(request, candidates)
        assert plan.statistics.combinations_explored == 16
        assert plan.feasible

    def test_returns_true_optimum(self):
        request, candidates = build_problem(activities=2, services=5)
        optimal = ExhaustiveSelection(PROPS).select(request, candidates)
        # No other algorithm can find a feasible plan with higher utility.
        for selector in (
            GreedySelection(PROPS),
            RandomSelection(PROPS, attempts=50),
            GeneticSelection(PROPS, generations=20),
        ):
            plan = selector.select(request, candidates, best_effort=True)
            assert plan.utility <= optimal.utility + 1e-9

    def test_limit_guard(self):
        request, candidates = build_problem(activities=3, services=6)
        with pytest.raises(SelectionError):
            ExhaustiveSelection(PROPS, limit=10).select(request, candidates)

    def test_proves_infeasibility(self):
        request, candidates = build_problem(rt_bound=0.001)
        with pytest.raises(SelectionError):
            ExhaustiveSelection(PROPS).select(request, candidates)

    def test_best_effort_on_infeasible(self):
        request, candidates = build_problem(rt_bound=0.001)
        plan = ExhaustiveSelection(PROPS).select(
            request, candidates, best_effort=True
        )
        assert not plan.feasible


class TestGreedy:
    def test_picks_local_best_utilities(self):
        request, candidates = build_problem()
        plan = GreedySelection(PROPS).select(request, candidates)
        assert len(plan.selections) == 3
        assert plan.statistics.combinations_explored == 1

    def test_greedy_equals_optimal_without_constraints(self):
        """With no global constraints and additive utility over per-activity
        local normalisation... greedy is near-optimal but not provably equal;
        we assert it is feasible and well-formed instead."""
        request, candidates = build_problem()
        plan = GreedySelection(PROPS).select(request, candidates)
        assert plan.feasible

    def test_greedy_may_violate_constraints(self):
        request, candidates = build_problem(rt_bound=0.001)
        plan = GreedySelection(PROPS).select(
            request, candidates, best_effort=True
        )
        assert not plan.feasible

    def test_greedy_strict_mode_raises(self):
        request, candidates = build_problem(rt_bound=0.001)
        with pytest.raises(SelectionError):
            GreedySelection(PROPS).select(request, candidates, best_effort=False)

    def test_local_spans_match_from_vectors_when_a_value_is_missing(self):
        request, candidates = build_problem(seed=2)
        pools = {name: list(candidates[name]) for name in candidates}
        # Strip the cheapest A0 candidate's cost: the span must then come
        # from the candidates that do advertise one.
        cheapest = min(pools["A0"], key=lambda s: s.advertised_qos["cost"])
        index = pools["A0"].index(cheapest)
        pools["A0"][index] = cheapest.with_qos(
            cheapest.advertised_qos.restrict(["response_time", "availability"])
        )
        candidates = CandidateSets(request.task, pools)
        relevant = relevant_properties(PROPS, request)
        weights = request.normalised_weights(relevant)
        tables = candidates.tables(tuple(relevant))
        cost = list(relevant).index("cost")
        assert tables["A0"].rows[index][cost] is None
        assert tables["A0"].low[cost] > cheapest.advertised_qos["cost"]
        plan = GreedySelection(PROPS).select(
            request, candidates, best_effort=True
        )
        for name, pool in pools.items():
            reference = Normalizer.from_vectors(
                [s.advertised_qos for s in pool], relevant
            )
            assert list(zip(tables[name].low, tables[name].high)) == [
                reference.span(n) for n in relevant
            ]
            scored = [
                (service_utility(s.advertised_qos, reference, weights), s)
                for s in pool
            ]
            assert _local_scores(candidates, name, relevant, weights) == scored
            assert plan.selections[name].primary is max(
                scored, key=lambda pair: pair[0]
            )[1]


class TestRandom:
    def test_finds_feasible_when_unconstrained(self):
        request, candidates = build_problem()
        plan = RandomSelection(PROPS, attempts=10, seed=1).select(
            request, candidates
        )
        assert plan.feasible

    def test_gives_up_after_attempts(self):
        request, candidates = build_problem(rt_bound=0.001)
        with pytest.raises(SelectionError):
            RandomSelection(PROPS, attempts=5).select(request, candidates)

    def test_deterministic_under_seed(self):
        request, candidates = build_problem()
        a = RandomSelection(PROPS, seed=3).select(request, candidates)
        b = RandomSelection(PROPS, seed=3).select(request, candidates)
        assert a.service_ids() == b.service_ids()


class TestGenetic:
    def test_finds_feasible_composition(self):
        request, candidates = build_problem(services=8, rt_bound=4000.0)
        plan = GeneticSelection(PROPS, generations=30, seed=2).select(
            request, candidates
        )
        assert plan.feasible
        assert request.satisfied_by(plan.aggregated_qos)

    def test_beats_random_on_average(self):
        request, candidates = build_problem(services=10)
        genetic = GeneticSelection(PROPS, generations=40, seed=5).select(
            request, candidates
        )
        random_plan = RandomSelection(PROPS, attempts=1, seed=5).select(
            request, candidates, best_effort=True
        )
        assert genetic.utility >= random_plan.utility

    def test_deterministic_under_seed(self):
        request, candidates = build_problem()
        a = GeneticSelection(PROPS, seed=7).select(request, candidates)
        b = GeneticSelection(PROPS, seed=7).select(request, candidates)
        assert a.service_ids() == b.service_ids()

    def test_single_activity_task(self):
        request, candidates = build_problem(activities=1, services=5)
        plan = GeneticSelection(PROPS, generations=10).select(request, candidates)
        assert plan.feasible
        assert len(plan.selections) == 1

    def test_infeasible_raises_without_best_effort(self):
        request, candidates = build_problem(rt_bound=0.001)
        with pytest.raises(SelectionError):
            GeneticSelection(PROPS, generations=5).select(request, candidates)

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_an_empty_population_at_construction(self, size):
        with pytest.raises(SelectionError, match="population_size must be >= 1"):
            GeneticSelection(PROPS, population_size=size)

    def test_a_population_of_one_selects(self):
        request, candidates = build_problem()
        plan = GeneticSelection(
            PROPS, population_size=1, generations=3
        ).select(request, candidates)
        assert plan.feasible


ALL_SELECTORS = [
    pytest.param(lambda: ExhaustiveSelection(PROPS), id="exhaustive"),
    pytest.param(lambda: ExactSelection(PROPS), id="exact"),
    pytest.param(lambda: GreedySelection(PROPS), id="greedy"),
    pytest.param(lambda: RandomSelection(PROPS, attempts=10, seed=0),
                 id="random"),
    pytest.param(lambda: GeneticSelection(PROPS, generations=5, seed=0),
                 id="genetic"),
    pytest.param(lambda: QASSA(PROPS), id="qassa"),
]


class TestBestEffortContract:
    """Regression: ``best_effort`` semantics must be uniform.

    GreedySelection used to default ``best_effort=True`` while every other
    selector defaulted to False, so swapping selectors silently changed
    whether infeasibility raised or produced a constraint-violating plan.
    """

    @pytest.mark.parametrize("make_selector", ALL_SELECTORS)
    def test_infeasible_raises_by_default(self, make_selector):
        request, candidates = build_problem(rt_bound=0.001)
        with pytest.raises(SelectionError):
            make_selector().select(request, candidates)

    @pytest.mark.parametrize("make_selector", ALL_SELECTORS)
    def test_best_effort_returns_flagged_plan(self, make_selector):
        request, candidates = build_problem(rt_bound=0.001)
        plan = make_selector().select(request, candidates, best_effort=True)
        assert not plan.feasible
        assert not request.satisfied_by(plan.aggregated_qos)


class TestRankedAlternates:
    """Regression: alternates used to be kept in raw pool order.

    ``_BaseSelector._plan`` now ranks each activity's non-primary
    candidates by their local SAW utility so dynamic binding substitutes
    the *best* remaining service first.
    """

    def test_alternates_sorted_by_local_utility(self):
        request, candidates = build_problem(activities=3, services=8, seed=5)
        plan = ExhaustiveSelection(PROPS).select(
            request, candidates, alternates=4
        )
        relevant = {n: PROPS[n] for n in request.relevant_properties or PROPS}
        weights = request.normalised_weights(relevant)
        for name in candidates.activity_names():
            pool = candidates[name]
            ranked = plan.selections[name].services
            assert len(ranked) == 5  # primary + 4 alternates
            local_norm = Normalizer.from_vectors(
                [s.advertised_qos for s in pool], relevant
            )
            scores = [
                service_utility(s.advertised_qos, local_norm, weights)
                for s in ranked[1:]
            ]
            assert scores == sorted(scores, reverse=True)
            # The kept alternates are the top-scoring non-primary services,
            # not simply the pool prefix.
            best_others = sorted(
                (s for s in pool if s != ranked[0]),
                key=lambda s: -service_utility(
                    s.advertised_qos, local_norm, weights
                ),
            )[:4]
            assert [s.name for s in ranked[1:]] == [
                s.name for s in best_others
            ]

    def test_alternates_available_from_every_selector(self):
        request, candidates = build_problem(activities=2, services=6)
        for make_selector in (
            lambda: ExactSelection(PROPS),
            lambda: GreedySelection(PROPS),
            lambda: RandomSelection(PROPS, attempts=5, seed=1),
            lambda: GeneticSelection(PROPS, generations=5, seed=1),
        ):
            plan = make_selector().select(request, candidates, alternates=2)
            for name in candidates.activity_names():
                assert len(plan.selections[name].alternates) == 2


class TestRandomBestOfAttempts:
    """Regression: RandomSelection used to return the *first* feasible
    assignment instead of the best feasible one across all attempts."""

    def test_returns_best_feasible_across_attempts(self):
        request, candidates = build_problem(activities=3, services=8, seed=9)
        attempts, seed = 25, 4
        plan = RandomSelection(PROPS, attempts=attempts, seed=seed).select(
            request, candidates
        )
        # Replay the selector's own deterministic draw sequence and score
        # every attempt from scratch.
        relevant = {n: PROPS[n] for n in request.relevant_properties or PROPS}
        from repro.composition.aggregation import CompiledAggregation
        from repro.composition.selection import make_global_normalizer

        aggregation = CompiledAggregation(
            request.task.root, relevant, ExhaustiveSelection(PROPS).approach
        )
        normalizer = make_global_normalizer(aggregation, {
            name: (table.low, table.high)
            for name, table in candidates.tables(tuple(relevant)).items()
        })
        rng = random.Random(seed)
        names = candidates.activity_names()
        utilities = []
        for _ in range(attempts):
            assignment = {n: rng.choice(candidates[n]) for n in names}
            _, utility, feasible = evaluate_assignment(
                aggregation, request, assignment, normalizer,
                request.normalised_weights(relevant),
            )
            if feasible:
                utilities.append(utility)
        assert utilities, "fixture must produce feasible draws"
        assert plan.utility == max(utilities)
        # The instance must actually discriminate first-feasible from
        # best-feasible, or this regression test is vacuous.
        assert utilities[0] < max(utilities)

    def test_more_attempts_never_worse(self):
        request, candidates = build_problem(activities=3, services=8, seed=9)
        utilities = [
            RandomSelection(PROPS, attempts=n, seed=4)
            .select(request, candidates).utility
            for n in (1, 5, 25)
        ]
        assert utilities == sorted(utilities)
