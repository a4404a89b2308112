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
``request.satisfied_by(plan.aggregated_qos)``.  For the four baselines and
the exact oracle one place enforces it, ``_BaseSelector.select``: each
selector only searches, and ``select`` turns the best feasible and the best
overall assignment found into a plan or the selector's error.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

from repro.errors import SelectionError
from repro.qos.properties import QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.composition.aggregation import AggregationApproach
from repro.composition.request import UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    SelectedActivity,
    SelectionStatistics,
    evaluate_assignment,
    global_scoring,
    relevant_properties,
)
from repro.composition.utility import Normalizer, service_utility

#: One scored assignment: ``(utility, assignment, aggregated QoS)``.
_Scored = Tuple[float, Dict[str, ServiceDescription], QoSVector]
#: A search's ``(best feasible, best overall)`` assignments, None if none.
_Found = Tuple[Optional[_Scored], Optional[_Scored]]


def _local_scores(
    candidates: CandidateSets, name: str,
    relevant: Mapping[str, QoSProperty], weights: Mapping[str, float],
) -> List[Tuple[float, ServiceDescription]]:
    """``(local SAW utility, service)`` for each of activity ``name``'s
    candidates in pool order, normalised over its pool table's spans."""
    table = candidates.tables(tuple(relevant))[name]
    spans = zip(table.low, table.high)
    normalizer = Normalizer(relevant, dict(zip(relevant, spans)))
    return [
        (service_utility(s.advertised_qos, normalizer, weights), s)
        for s in candidates[name]
    ]


def _first_maxima(scored: Iterable[Tuple[bool, _Scored]]) -> _Found:
    """The best feasible and the best overall of ``(feasible, scored)``
    pairs in exploration order: only a strictly higher utility replaces an
    incumbent, so the first maximum wins."""
    best: Optional[_Scored] = None
    best_any: Optional[_Scored] = None
    for feasible, entry in scored:
        if feasible and (best is None or entry[0] > best[0]):
            best = entry
        if best_any is None or entry[0] > best_any[0]:
            best_any = entry
    return best, best_any


class _BaseSelector:
    """Shared plumbing for the comparison selectors.

    A subclass defines ``_search(request, candidates, stats, best_effort)``,
    returning the best feasible and the best overall assignment it found
    (None when it found none; the latter is read only under
    ``best_effort``); :meth:`select` does the rest.
    """

    #: The :class:`SelectionError` message when the search found nothing
    #: feasible; each subclass names its own.
    _infeasible: str

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
    ) -> None:
        self.properties = dict(properties)
        self.approach = approach

    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        best_effort: bool = False,
        alternates: int = 0,
    ) -> CompositionPlan:
        """The best feasible composition the search found, with
        ``alternates`` ranked substitutes per activity, under the module
        docstring's ``best_effort`` contract."""
        started = time.perf_counter()
        stats = SelectionStatistics(search_space=candidates.search_space())
        best, best_any = self._search(request, candidates, stats, best_effort)
        stats.elapsed_seconds = time.perf_counter() - started
        if best is not None:
            return self._plan(
                request, candidates, best, True, stats, alternates
            )
        if best_effort and best_any is not None:
            return self._plan(
                request, candidates, best_any, False, stats, alternates
            )
        raise SelectionError(self._infeasible)

    def _scorer(
        self, request: UserRequest, candidates: CandidateSets,
        stats: SelectionStatistics,
    ) -> Callable[[Dict[str, ServiceDescription]], Tuple[bool, _Scored]]:
        """Scores one assignment as ``(feasible, scored)``; each call
        counts one explored combination and one utility evaluation."""
        weights, aggregation, normalizer = global_scoring(
            self.properties, request, candidates, self.approach
        )

        def score(assignment: Dict[str, ServiceDescription]):
            aggregated, utility, feasible = evaluate_assignment(
                aggregation, request, assignment, normalizer, weights
            )
            stats.combinations_explored += 1
            stats.utility_evaluations += 1
            return feasible, (utility, assignment, aggregated)

        return score

    def _plan(
        self, request: UserRequest, candidates: CandidateSets,
        found: _Scored, feasible: bool, stats: SelectionStatistics,
        alternates: int,
    ) -> CompositionPlan:
        utility, assignment, aggregated = found
        if alternates:
            relevant = relevant_properties(self.properties, request)
            weights = request.normalised_weights(relevant)
        selections = {}
        for name, primary in assignment.items():
            ranked = [primary]
            if alternates:
                # Alternates back a plan's dynamic binding/substitution, so
                # they must actually be *ranked*: score each non-primary
                # candidate with the activity's local SAW utility and keep
                # the best (candidate order breaks exact ties).
                scored = _local_scores(candidates, name, relevant, weights)
                scored.sort(key=lambda pair: -pair[0])
                ranked.extend(
                    [s for _, s in scored if s != primary][:alternates]
                )
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

    _infeasible = "no feasible composition exists (exhaustive proof)"

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        limit: int = 5_000_000,
    ) -> None:
        super().__init__(properties, approach)
        self.limit = limit

    def _search(
        self, request: UserRequest, candidates: CandidateSets,
        stats: SelectionStatistics, best_effort: bool,
    ) -> _Found:
        if stats.search_space > self.limit:
            raise SelectionError(
                f"exhaustive search space {stats.search_space} exceeds "
                f"limit {self.limit}"
            )
        score = self._scorer(request, candidates, stats)
        names = candidates.activity_names()
        pools = [candidates[name] for name in names]
        return _first_maxima(
            score(dict(zip(names, combo)))
            for combo in itertools.product(*pools)
        )


class GreedySelection(_BaseSelector):
    """Local-best selection: per-activity utility maximisation.

    Runs in O(total candidates) but ignores global constraints entirely —
    the resulting plan may be infeasible, which is precisely the weakness
    the paper's global phase addresses.  Like every other selector it
    raises on an infeasible outcome unless ``best_effort`` is set (see the
    module docstring for the contract); callers charting greedy's missing
    feasibility guarantee pass ``best_effort=True`` explicitly.
    """

    _infeasible = "greedy selection violates the global constraints"

    def _search(
        self, request: UserRequest, candidates: CandidateSets,
        stats: SelectionStatistics, best_effort: bool,
    ) -> _Found:
        weights, aggregation, normalizer = global_scoring(
            self.properties, request, candidates, self.approach
        )
        assignment: Dict[str, ServiceDescription] = {}
        for name in candidates.activity_names():
            scored = _local_scores(
                candidates, name, aggregation.properties, weights
            )
            stats.utility_evaluations += len(scored)
            assignment[name] = max(scored, key=lambda pair: pair[0])[1]

        aggregated, utility, feasible = evaluate_assignment(
            aggregation, request, assignment, normalizer, weights
        )
        stats.utility_evaluations += 1
        stats.combinations_explored = 1
        found = (utility, assignment, aggregated)
        return (found if feasible else None), found


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

    @property
    def _infeasible(self) -> str:
        return (
            f"random selection found no feasible composition in "
            f"{self.attempts} attempts"
        )

    def _search(
        self, request: UserRequest, candidates: CandidateSets,
        stats: SelectionStatistics, best_effort: bool,
    ) -> _Found:
        score = self._scorer(request, candidates, stats)
        rng = random.Random(self.seed)
        names = candidates.activity_names()
        return _first_maxima(
            score({name: rng.choice(candidates[name]) for name in names})
            for _ in range(self.attempts)
        )


class GeneticSelection(_BaseSelector):
    """A penalty-based genetic algorithm (Canfora-style competitor).

    Chromosome = one candidate index per activity.  Fitness = composition
    utility minus a penalty proportional to total normalised constraint
    violation.  Tournament selection, single-point crossover, per-gene
    mutation.  ``population_size`` must be at least 1.
    """

    _infeasible = "genetic search found no feasible composition"

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
        if population_size < 1:
            raise SelectionError("population_size must be >= 1")
        super().__init__(properties, approach)
        self.population_size = population_size
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.penalty_weight = penalty_weight
        self.seed = seed

    def _search(
        self, request: UserRequest, candidates: CandidateSets,
        stats: SelectionStatistics, best_effort: bool,
    ) -> _Found:
        score = self._scorer(request, candidates, stats)
        rng = random.Random(self.seed)
        names = candidates.activity_names()
        sizes = [len(candidates[name]) for name in names]

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

        cache: Dict[Tuple[int, ...], Tuple[float, bool, _Scored]] = {}

        def evaluate(chromosome: Tuple[int, ...]):
            if chromosome not in cache:
                feasible, scored = score({
                    name: candidates[name][gene]
                    for name, gene in zip(names, chromosome)
                })
                penalised = self.penalty_weight * penalty(scored[2])
                cache[chromosome] = (scored[0] - penalised, feasible, scored)
            return cache[chromosome]

        def explored() -> Iterator[Tuple[bool, _Scored]]:
            population = [
                tuple(rng.randrange(size) for size in sizes)
                for _ in range(self.population_size)
            ]
            for _ in range(self.generations):
                graded = []
                for chromosome in population:
                    fitness, feasible, scored = evaluate(chromosome)
                    graded.append((chromosome, fitness))
                    yield feasible, scored

                def tournament() -> Tuple[int, ...]:
                    a, b = rng.choice(graded), rng.choice(graded)
                    return a[0] if a[1] >= b[1] else b[0]

                # Elitism: carry the best chromosome over unchanged.
                elite = max(graded, key=lambda pair: pair[1])[0]
                next_population: List[Tuple[int, ...]] = [elite]
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

        return _first_maxima(explored())
