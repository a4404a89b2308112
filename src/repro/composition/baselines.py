"""Baseline selection algorithms (§IV.5, §VI.3.2).

The paper measures QASSA's *optimality* against the exhaustive optimum and
its *timeliness* against classic alternatives.  Four baselines are provided,
all sharing QASSA's interface (``select(request, candidates)`` →
:class:`~repro.composition.selection.CompositionPlan`):

* :class:`ExhaustiveSelection` — enumerates the full assignment space and
  returns the feasible composition with maximum utility.  Exact but
  exponential (the NP-hard reference).
* :class:`GreedySelection` — local selection only: the highest-utility
  service per activity, ignoring global constraints (the "greedy way" of
  §I.3.3; cheap but offers no feasibility guarantee).
* :class:`RandomSelection` — uniform random assignments with retries; the
  sanity floor for optimality plots.
* :class:`GeneticSelection` — a penalty-based genetic algorithm in the style
  of Canfora et al., the classic heuristic competitor for QoS-aware
  composition.

(See :class:`repro.composition.exact.ExactSelection` for the branch-and-
bound oracle that replaces exhaustive enumeration at realistic scales.)

**The ``best_effort`` contract** — uniform across every selector here,
QASSA and :class:`~repro.composition.exact.ExactSelection`:

* ``best_effort=False`` (the default everywhere): ``select()`` raises
  :class:`~repro.errors.SelectionError` when the algorithm finds no
  assignment satisfying the request's global constraints.  For the exact
  algorithms that is a proof of infeasibility; for the heuristics it only
  means *they* found nothing feasible.
* ``best_effort=True``: instead of raising, the highest-utility assignment
  the algorithm examined is returned with ``plan.feasible == False``, so
  optimality plots and the adaptation framework can still reason about
  near-misses.

Every returned plan's ``feasible`` flag is always consistent with
``request.satisfied_by(plan.aggregated_qos)``.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SelectionError
from repro.qos.properties import QoSProperty
from repro.services.description import ServiceDescription
from repro.composition.aggregation import AggregationApproach
from repro.composition.request import UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    SelectedActivity,
    SelectionStatistics,
    evaluate_assignment,
    make_global_normalizer,
    relevant_properties,
)
from repro.composition.utility import Normalizer, service_utility


class _BaseSelector:
    """Shared plumbing for baseline selectors."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
    ) -> None:
        self.properties = dict(properties)
        self.approach = approach

    def _plan(
        self,
        request: UserRequest,
        assignment: Mapping[str, ServiceDescription],
        candidates: CandidateSets,
        aggregated,
        utility: float,
        feasible: bool,
        stats: SelectionStatistics,
        alternates: int = 0,
    ) -> CompositionPlan:
        relevant: Optional[Dict[str, QoSProperty]] = None
        weights: Optional[Dict[str, float]] = None
        selections = {}
        for name, primary in assignment.items():
            ranked = [primary]
            if alternates:
                # Alternates back a plan's dynamic binding/substitution, so
                # they must actually be *ranked*: score each non-primary
                # candidate with the activity's local SAW utility and keep
                # the best (candidate order breaks exact ties).
                if relevant is None:
                    relevant = relevant_properties(self.properties, request)
                    weights = request.normalised_weights(relevant)
                pool = candidates[name]
                local_norm = Normalizer.from_vectors(
                    [s.advertised_qos for s in pool], relevant
                )
                scored = sorted(
                    (s for s in pool if s != primary),
                    key=lambda s: -service_utility(
                        s.advertised_qos, local_norm, weights
                    ),
                )
                ranked.extend(scored[:alternates])
            selections[name] = SelectedActivity(name, ranked)
        return CompositionPlan(
            task=request.task,
            request=request,
            selections=selections,
            aggregated_qos=aggregated,
            utility=utility,
            feasible=feasible,
            approach=self.approach,
            statistics=stats,
        )


class ExhaustiveSelection(_BaseSelector):
    """Exact optimum by full enumeration — the optimality reference.

    ``limit`` guards against accidental combinatorial explosions in tests;
    exceeding it raises so a benchmark never silently runs for hours.
    """

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        limit: int = 5_000_000,
    ) -> None:
        super().__init__(properties, approach)
        self.limit = limit

    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        best_effort: bool = False,
        alternates: int = 0,
    ) -> CompositionPlan:
        started = time.perf_counter()
        stats = SelectionStatistics(search_space=candidates.search_space())
        if stats.search_space > self.limit:
            raise SelectionError(
                f"exhaustive search space {stats.search_space} exceeds "
                f"limit {self.limit}"
            )
        relevant = relevant_properties(self.properties, request)
        normalizer = make_global_normalizer(
            request.task, candidates, relevant, self.approach
        )
        names = candidates.activity_names()
        best: Optional[Tuple[float, Dict[str, ServiceDescription], object]] = None
        best_any: Optional[Tuple[float, Dict[str, ServiceDescription], object]] = None

        for combo in itertools.product(*(candidates[name] for name in names)):
            assignment = dict(zip(names, combo))
            aggregated, utility, feasible = evaluate_assignment(
                request.task, request, assignment, relevant, normalizer,
                self.approach,
            )
            stats.combinations_explored += 1
            stats.utility_evaluations += 1
            entry = (utility, assignment, aggregated)
            if feasible and (best is None or utility > best[0]):
                best = entry
            if best_any is None or utility > best_any[0]:
                best_any = entry

        stats.elapsed_seconds = time.perf_counter() - started
        if best is not None:
            utility, assignment, aggregated = best
            return self._plan(
                request, assignment, candidates, aggregated, utility, True,
                stats, alternates,
            )
        if best_effort and best_any is not None:
            utility, assignment, aggregated = best_any
            return self._plan(
                request, assignment, candidates, aggregated, utility, False,
                stats, alternates,
            )
        raise SelectionError("no feasible composition exists (exhaustive proof)")


class GreedySelection(_BaseSelector):
    """Local-best selection: per-activity utility maximisation.

    Runs in O(total candidates) but ignores global constraints entirely —
    the resulting plan may be infeasible, which is precisely the weakness
    the paper's global phase addresses.  Like every other selector it
    raises on an infeasible outcome unless ``best_effort`` is set (see the
    module docstring for the contract); callers charting greedy's missing
    feasibility guarantee pass ``best_effort=True`` explicitly.
    """

    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        best_effort: bool = False,
        alternates: int = 0,
    ) -> CompositionPlan:
        started = time.perf_counter()
        stats = SelectionStatistics(search_space=candidates.search_space())
        relevant = relevant_properties(self.properties, request)
        weights = request.normalised_weights(relevant)
        normalizer = make_global_normalizer(
            request.task, candidates, relevant, self.approach
        )

        assignment: Dict[str, ServiceDescription] = {}
        for name in candidates.activity_names():
            services = candidates[name]
            local_norm = Normalizer.from_vectors(
                [s.advertised_qos for s in services], relevant
            )
            scored = [
                (service_utility(s.advertised_qos, local_norm, weights), s)
                for s in services
            ]
            stats.utility_evaluations += len(scored)
            assignment[name] = max(scored, key=lambda pair: pair[0])[1]

        aggregated, utility, feasible = evaluate_assignment(
            request.task, request, assignment, relevant, normalizer, self.approach
        )
        stats.utility_evaluations += 1
        stats.combinations_explored = 1
        stats.elapsed_seconds = time.perf_counter() - started
        if not feasible and not best_effort:
            raise SelectionError("greedy selection violates the global constraints")
        return self._plan(
            request, assignment, candidates, aggregated, utility, feasible,
            stats, alternates,
        )


class RandomSelection(_BaseSelector):
    """Uniform random assignments — the optimality floor.

    All ``attempts`` samples are drawn and the *best* feasible one (by
    utility) is returned — returning the first feasible hit would
    understate the random baseline in optimality plots.
    """

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        attempts: int = 100,
        seed: int = 0,
    ) -> None:
        super().__init__(properties, approach)
        self.attempts = attempts
        self.seed = seed

    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        best_effort: bool = False,
        alternates: int = 0,
    ) -> CompositionPlan:
        started = time.perf_counter()
        stats = SelectionStatistics(search_space=candidates.search_space())
        relevant = relevant_properties(self.properties, request)
        normalizer = make_global_normalizer(
            request.task, candidates, relevant, self.approach
        )
        rng = random.Random(self.seed)
        names = candidates.activity_names()
        best_feasible = None
        best_any = None

        for _ in range(self.attempts):
            assignment = {name: rng.choice(candidates[name]) for name in names}
            aggregated, utility, feasible = evaluate_assignment(
                request.task, request, assignment, relevant, normalizer,
                self.approach,
            )
            stats.combinations_explored += 1
            stats.utility_evaluations += 1
            if feasible and (best_feasible is None or utility > best_feasible[0]):
                best_feasible = (utility, assignment, aggregated)
            if best_any is None or utility > best_any[0]:
                best_any = (utility, assignment, aggregated)

        stats.elapsed_seconds = time.perf_counter() - started
        if best_feasible is not None:
            utility, assignment, aggregated = best_feasible
            return self._plan(
                request, assignment, candidates, aggregated, utility, True,
                stats, alternates,
            )
        if best_effort and best_any is not None:
            utility, assignment, aggregated = best_any
            return self._plan(
                request, assignment, candidates, aggregated, utility, False,
                stats, alternates,
            )
        raise SelectionError(
            f"random selection found no feasible composition in "
            f"{self.attempts} attempts"
        )


class GeneticSelection(_BaseSelector):
    """A penalty-based genetic algorithm (Canfora-style competitor).

    Chromosome = one candidate index per activity.  Fitness = composition
    utility minus a penalty proportional to total normalised constraint
    violation.  Tournament selection, single-point crossover, per-gene
    mutation.
    """

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        population_size: int = 40,
        generations: int = 60,
        crossover_rate: float = 0.8,
        mutation_rate: float = 0.05,
        penalty_weight: float = 2.0,
        seed: int = 0,
    ) -> None:
        super().__init__(properties, approach)
        self.population_size = population_size
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.penalty_weight = penalty_weight
        self.seed = seed

    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        best_effort: bool = False,
        alternates: int = 0,
    ) -> CompositionPlan:
        started = time.perf_counter()
        stats = SelectionStatistics(search_space=candidates.search_space())
        relevant = relevant_properties(self.properties, request)
        normalizer = make_global_normalizer(
            request.task, candidates, relevant, self.approach
        )
        rng = random.Random(self.seed)
        names = candidates.activity_names()
        sizes = [len(candidates[name]) for name in names]

        def decode(chromosome: Sequence[int]) -> Dict[str, ServiceDescription]:
            return {
                name: candidates[name][gene]
                for name, gene in zip(names, chromosome)
            }

        def penalty(aggregated) -> float:
            total = 0.0
            for constraint in request.constraints:
                value = aggregated.get(constraint.property_name)
                if value is None:
                    total += 1.0
                    continue
                slack = constraint.slack(value)
                if slack < 0:
                    scale = abs(constraint.bound) or 1.0
                    total += min(-slack / scale, 1.0)
            return total

        def evaluate(chromosome: Tuple[int, ...]):
            assignment = decode(chromosome)
            aggregated, utility, feasible = evaluate_assignment(
                request.task, request, assignment, relevant, normalizer,
                self.approach,
            )
            stats.utility_evaluations += 1
            fitness = utility - self.penalty_weight * penalty(aggregated)
            return fitness, utility, feasible, assignment, aggregated

        population = [
            tuple(rng.randrange(size) for size in sizes)
            for _ in range(self.population_size)
        ]
        cache: Dict[Tuple[int, ...], Tuple] = {}
        best_feasible = None
        best_any = None

        for _ in range(self.generations):
            scored = []
            for chromosome in population:
                if chromosome not in cache:
                    cache[chromosome] = evaluate(chromosome)
                    stats.combinations_explored += 1
                scored.append((chromosome, cache[chromosome]))
                fitness, utility, feasible, assignment, aggregated = cache[chromosome]
                if feasible and (best_feasible is None or utility > best_feasible[0]):
                    best_feasible = (utility, assignment, aggregated)
                if best_any is None or utility > best_any[0]:
                    best_any = (utility, assignment, aggregated)

            def tournament() -> Tuple[int, ...]:
                a, b = rng.choice(scored), rng.choice(scored)
                return a[0] if a[1][0] >= b[1][0] else b[0]

            next_population: List[Tuple[int, ...]] = []
            # Elitism: carry the best chromosome over unchanged.
            elite = max(scored, key=lambda pair: pair[1][0])[0]
            next_population.append(elite)
            while len(next_population) < self.population_size:
                parent_a, parent_b = tournament(), tournament()
                if len(names) > 1 and rng.random() < self.crossover_rate:
                    cut = rng.randrange(1, len(names))
                    child = parent_a[:cut] + parent_b[cut:]
                else:
                    child = parent_a
                child = tuple(
                    rng.randrange(sizes[i])
                    if rng.random() < self.mutation_rate
                    else gene
                    for i, gene in enumerate(child)
                )
                next_population.append(child)
            population = next_population

        stats.elapsed_seconds = time.perf_counter() - started
        if best_feasible is not None:
            utility, assignment, aggregated = best_feasible
            return self._plan(
                request, assignment, candidates, aggregated, utility, True,
                stats, alternates,
            )
        if best_effort and best_any is not None:
            utility, assignment, aggregated = best_any
            return self._plan(
                request, assignment, candidates, aggregated, utility, False,
                stats, alternates,
            )
        raise SelectionError("genetic search found no feasible composition")
