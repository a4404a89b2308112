"""QASSA — the QoS-Aware Service Selection Algorithm (§IV.3).

QASSA solves QoS-aware selection under *global* QoS constraints — an
NP-hard problem — with a two-phase heuristic designed for the timeliness,
adaptation-support and distributivity requirements of pervasive
environments:

**Local selection phase** (per abstract activity, §IV.3.2):

1. the candidate QoS vectors are normalised against the candidate set
   (direction-aware min-max, 1 = best);
2. Pareto-dominated candidates are pruned (a dominated service can always
   be replaced by its dominator at no loss);
3. the survivors are clustered with k-means in normalised QoS space;
4. clusters are ranked by centroid utility into **QoS levels** ``QL_r``
   (rank 0 = best); each level's highest-utility member becomes its
   *representative*.

Steps 1-3 never read the user's weights, so they form a *weight-free
stage* that a :class:`~repro.composition.selection_cache.SelectionCache`
keeps per candidate pool; step 4 and the candidates' SAW utilities form
the *weighted stage*, redone on every selection.

**Global selection phase** (§IV.3.3):

The algorithm searches the *level lattice* — one level choice per activity —
best-first.  A state's priority is the sum of its levels' centroid
utilities, which decreases monotonically along lattice edges (levels are
utility-sorted), so states are explored in near-best-utility order.  For
each popped state the representatives are aggregated over the task's pattern
tree and checked against the global constraints:

* **feasible** → the state yields a composition; several top members of each
  chosen level are kept as ranked alternates (dynamic binding / substitution
  support);
* **infeasible** → a bounded *repair* pass swaps cluster members to maximise
  slack on the most-violated constraint; if repair fails, the state's lattice
  successors are enqueued.

The search is capped (:data:`MAX_COMBINATIONS`); with utility-sorted levels
the first feasible states found are near-optimal, which is exactly the
trade-off Figs. VI.5-6 quantify (near-linear time, >90 % optimality).
Neighbouring states' repairs and polishes try many of the same
assignments, so one global phase aggregates each distinct assignment once,
folding the value rows the weight-free stage keeps.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from itertools import chain
from operator import ge
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SelectionError
from repro.qos.properties import Direction, QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.composition.aggregation import (
    AggregationApproach,
    CompiledAggregation,
    Row,
)
from repro.composition.clustering import QoSLevel, kmeans, rank_levels
from repro.composition.request import UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    PoolTable,
    SelectedActivity,
    SelectionStatistics,
    make_global_normalizer,
    relevant_properties,
)
from repro.composition.selection_cache import SelectionCache
from repro.composition.utility import Normalizer, point_utility, row_utility
from repro.observability import core as observability_core


#: The k of k-means: QoS levels per activity (the paper uses a small
#: constant so the lattice stays tractable).
LEVELS_PER_ACTIVITY = 4
#: Cap on the lattice states one global phase explores.
MAX_COMBINATIONS = 5000
#: Full sweeps of the per-state constraint-repair loop.
REPAIR_PASSES = 3
#: Kept services per activity the refine sweep tries, best local utility
#: first.
REFINE_CANDIDATES = 10
#: Feasible compositions :meth:`QASSA.select` collects before returning
#: the best of them.
FEASIBLE_BEAM = 2


@dataclass(frozen=True)
class QassaConfig:
    """The knobs of QASSA callers set.

    ``alternates_kept`` bounds how many ranked services each activity
    retains for dynamic binding; ``seed`` seeds k-means.  The search's
    sizes are the module constants above.
    """

    alternates_kept: int = 3
    seed: int = 0


@dataclass
class LocalSelection:
    """Output of the local phase for one activity.

    ``services`` are the clustered (post-pruning) candidates; ``reserve``
    holds the Pareto-dominated ones, utility-sorted — never selected as
    primaries, but still valid substitutes when the non-dominated pool is
    too small to fill the alternates quota.

    ``services``, ``normalizer``, ``clustering_iterations``, ``bounds``
    and ``rows`` come from the weight-free stage (shared by every request
    over the same pool and properties); ``utilities``, ``levels`` and the
    ``reserve`` order come from the request's weights.  Every instance has
    lists of its own, so nothing a caller does to one reaches the cache.
    """

    activity_name: str
    services: List[ServiceDescription]
    utilities: List[float]
    levels: List[QoSLevel]
    normalizer: Normalizer
    clustering_iterations: int
    reserve: List[ServiceDescription] = field(default_factory=list)
    #: The *full* pool's ``(low, high)`` rows (pruned ones included): the
    #: global normaliser is rebuilt from them without rescanning the pool.
    bounds: Tuple[Row, Row] = ((), ())
    #: Each of ``services``' values over the relevant properties in request
    #: order (None if it lacks one): the rows the global phase aggregates.
    rows: Tuple[Optional[Row], ...] = ()


class QASSA:
    """The centralized QASSA selector.

    Parameters
    ----------
    properties:
        QoS property definitions the selector reasons over (usually the
        request's relevant subset of the model's registry).
    approach:
        Aggregation approach for run-time-unknown patterns.
    config:
        The alternates quota and the k-means seed.
    cache:
        Optional :class:`~repro.composition.selection_cache.SelectionCache`.
        When present, each activity's weight-free local stage (normaliser,
        pool bounds, Pareto pruning, k-means clusters) is reused across
        ``select()`` and ``local_selections()`` calls whenever the
        activity's candidate pool is in a state the cache keeps under the
        same relevant properties — a new weight profile only re-ranks the
        cached clusters, churn and fault events recompute only the
        activities they actually touched, and a pool churn returns to an
        earlier state hits again.  Chosen compositions are identical with and
        without the cache (the local phase is deterministic).
    """

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        config: QassaConfig = QassaConfig(),
        observability=None,
        cache: Optional[SelectionCache] = None,
    ) -> None:
        self.properties = dict(properties)
        self.approach = approach
        self.config = config
        self.cache = cache
        self.obs = observability_core.resolve(observability)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        best_effort: bool = False,
    ) -> CompositionPlan:
        """Select a composition fulfilling the request.

        The lattice walk collects a small beam of feasible compositions
        (:data:`FEASIBLE_BEAM`) and the best by utility is returned — the
        paper's "several compositions providing different levels of QoS",
        reduced to its champion.

        Raises :class:`SelectionError` when no explored combination meets
        the global constraints, unless ``best_effort`` is set — then the
        highest-utility infeasible plan is returned with
        ``plan.feasible == False`` (the adaptation framework uses this to
        decide whether behavioural adaptation should kick in).
        """
        return self._select(request, candidates, FEASIBLE_BEAM, best_effort)[0]

    def select_ranked(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        k: int = 3,
    ) -> List[CompositionPlan]:
        """Up to ``k`` distinct feasible compositions, best utility first.

        This is the §I.1 shopping-platform behaviour: *"The shopping
        platform proposes to Bob several compositions of shopping services
        meeting his requirements.  The proposed compositions are ranked
        according to their QoS."*  The lattice walk simply keeps going after
        the first feasible state instead of returning, deduplicating plans
        by their primary bindings.

        Raises :class:`SelectionError` when not even one feasible
        composition exists within the exploration budget.
        """
        if k < 1:
            raise SelectionError("k must be >= 1")
        return self._select(request, candidates, k, best_effort=False)

    def _select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        k: int,
        best_effort: bool,
    ) -> List[CompositionPlan]:
        """Local phase then :meth:`global_phase`, under one ``qassa.select``
        span; every returned plan shares the run's statistics."""
        started = time.perf_counter()
        stats = SelectionStatistics(search_space=candidates.search_space())
        try:
            with self.obs.span(
                "qassa.select", task=request.task.name,
                activities=len(candidates.activity_names()),
            ) as span:
                relevant = relevant_properties(self.properties, request)
                weights = request.normalised_weights(relevant)
                locals_ = self._local_selections(
                    candidates, relevant, weights, stats
                )
                plans = self.global_phase(
                    request, candidates, locals_, relevant, stats, k,
                    best_effort,
                )
                span.set(
                    utility=plans[0].utility,
                    feasible=plans[0].feasible,
                    combinations_explored=stats.combinations_explored,
                    utility_evaluations=stats.utility_evaluations,
                )
        finally:
            # A selection that raises is counted too, with the states it
            # explored before giving up.
            stats.elapsed_seconds = time.perf_counter() - started
            self.obs.counter("qassa_selections_total").inc()
            self.obs.histogram("qassa_selection_seconds").observe(
                stats.elapsed_seconds
            )
            self.obs.counter("qassa_combinations_explored_total").inc(
                stats.combinations_explored
            )
        for plan in plans:
            plan.statistics = stats
        return plans

    def global_phase(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
        stats: SelectionStatistics,
        k: int,
        best_effort: bool = False,
    ) -> List[CompositionPlan]:
        """The global phase (§IV.3.3) over finished local selections.

        Walks the level lattice best-first until ``k`` distinct feasible
        compositions are found or :data:`MAX_COMBINATIONS` states are
        explored, and returns them best utility first.  When none is
        feasible, ``best_effort`` returns the highest-utility infeasible
        plan alone; otherwise :class:`SelectionError` is raised.  The
        distributed coordinator calls it on the devices' local selections.

        One :class:`_AssignmentScorer` serves the whole call: the walk,
        repair and refine score many assignments more than once, and each
        distinct one is aggregated once.  It is dropped when the call
        returns.  ``locals_`` must be computed for the same ``relevant``.
        """
        with self.obs.span("qassa.global", k=k) as span:
            names = candidates.activity_names()
            score = _AssignmentScorer(
                request, names, locals_, relevant, self.approach, stats
            )
            plans, best_infeasible = self._lattice_walk(
                request, names, locals_, relevant, score, stats, k
            )
            span.set(
                combinations_explored=stats.combinations_explored,
                feasible_found=len(plans),
                aggregations=score.aggregations,
            )
        if plans:
            plans.sort(key=lambda p: -p.utility)
            return plans
        if best_effort and best_infeasible is not None:
            return [best_infeasible]
        raise SelectionError(
            "no service composition satisfies the global QoS constraints "
            f"(explored {stats.combinations_explored} level combinations)"
        )

    def _lattice_walk(
        self,
        request: UserRequest,
        names: Sequence[str],
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
        score: _AssignmentScorer,
        stats: SelectionStatistics,
        k: int,
    ) -> Tuple[List[CompositionPlan], Optional[CompositionPlan]]:
        """Best-first lattice walk collecting up to ``k`` feasible plans.

        Returns ``(feasible plans, best infeasible plan)``.
        """

        def state_priority(state: Tuple[int, ...]) -> float:
            return sum(
                locals_[name].levels[rank].centroid_utility
                for name, rank in zip(names, state)
            )

        # Refine's candidates per activity, best local utility first.
        refine_order = [
            sorted(
                range(len(sel.services)), key=lambda i: -sel.utilities[i]
            )[:REFINE_CANDIDATES]
            for sel in (locals_[name] for name in names)
        ]
        start = tuple(0 for _ in names)
        heap: List[Tuple[float, Tuple[int, ...]]] = [(-state_priority(start), start)]
        visited = {start}
        plans: List[CompositionPlan] = []
        best_infeasible: Optional[CompositionPlan] = None
        seen_bindings: set = set()

        while heap and stats.combinations_explored < MAX_COMBINATIONS:
            _, state = heapq.heappop(heap)
            stats.combinations_explored += 1
            indexes = tuple(
                locals_[name].levels[rank].representative
                for name, rank in zip(names, state)
            )
            scored = score(indexes)
            if not scored[2]:
                repaired = self._repair(
                    request, names, state, locals_, relevant, score
                )
                if repaired is not None:
                    indexes, scored = repaired
            values, utility, feasible = scored
            if feasible:
                indexes, (values, utility, _) = self._refine_utility(
                    score, refine_order, indexes, scored
                )
                assignment = score.assignment(indexes)
                binding_key = tuple(
                    sorted((n, s.service_id) for n, s in assignment.items())
                )
                if binding_key not in seen_bindings:
                    seen_bindings.add(binding_key)
                    plans.append(
                        self._make_plan_object(
                            request, names, state, locals_, assignment,
                            score.aggregation.vector(values), utility,
                            feasible=True,
                        )
                    )
                    if len(plans) >= k:
                        return plans, best_infeasible
            elif best_infeasible is None or utility > best_infeasible.utility:
                best_infeasible = self._make_plan_object(
                    request, names, state, locals_, score.assignment(indexes),
                    score.aggregation.vector(values), utility, feasible=False,
                )
            for i in range(len(names)):
                ranks = list(state)
                if ranks[i] + 1 < len(locals_[names[i]].levels):
                    ranks[i] += 1
                    successor = tuple(ranks)
                    if successor not in visited:
                        visited.add(successor)
                        heapq.heappush(heap, (-state_priority(successor), successor))
        return plans, best_infeasible

    def local_selections(
        self,
        request: UserRequest,
        candidates: Union[
            CandidateSets, Mapping[str, Sequence[ServiceDescription]]
        ],
        stats: Optional[SelectionStatistics] = None,
    ) -> Dict[str, LocalSelection]:
        """Run only the local phase (used by the distributed variant, where
        each device computes its own activities' levels).  ``candidates``
        is a :class:`CandidateSets` or any activity -> pool mapping, such
        as one device's share of the activities; only its ``items()`` are
        read.  It consults the cache like :meth:`select` does, and counts
        its work into ``stats`` when given."""
        relevant = relevant_properties(self.properties, request)
        weights = request.normalised_weights(relevant)
        return self._local_selections(
            candidates, relevant, weights,
            SelectionStatistics() if stats is None else stats,
        )

    # ------------------------------------------------------------------
    # local phase
    # ------------------------------------------------------------------
    def _local_selections(
        self,
        candidates: Union[
            CandidateSets, Mapping[str, Sequence[ServiceDescription]]
        ],
        relevant: Mapping[str, QoSProperty],
        weights: Mapping[str, float],
        stats: SelectionStatistics,
    ) -> Dict[str, LocalSelection]:
        """Local phase for every activity, consulting the cache when wired."""
        locals_ = {
            name: self._local_phase(name, services, relevant, weights, stats)
            for name, services in candidates.items()
        }
        if self.cache is not None and self.obs.enabled:
            self.obs.counter("selection_cache_hits_total").inc(stats.cache_hits)
            self.obs.counter("selection_cache_misses_total").inc(stats.cache_misses)
        return locals_

    def _local_phase(
        self,
        activity_name: str,
        services: Sequence[ServiceDescription],
        relevant: Mapping[str, QoSProperty],
        weights: Mapping[str, float],
        stats: SelectionStatistics,
    ) -> LocalSelection:
        """One activity's local phase: the weight-free stage from the cache
        (computed and stored on a miss), then the weighted stage."""
        with self.obs.span(
            "qassa.cluster", activity=activity_name,
            candidates=len(services),
        ) as span:
            stage = None
            if self.cache is not None:
                # Everything but the pool the weight-free stage reads; the
                # names keep the request's order, as its normaliser, points
                # and rows do.
                context = (tuple(relevant), self.config.seed)
                fingerprint = SelectionCache.fingerprint(services)
                stage = self.cache.lookup(activity_name, fingerprint, context)
            cached = stage is not None
            if cached:
                stats.cache_hits += 1
            else:
                stage = self._weight_free_stage(
                    activity_name, services, relevant, stats
                )
                if self.cache is not None:
                    self.cache.store(activity_name, fingerprint, stage, context)
                    stats.cache_misses += 1
            selection = self._weighted_stage(
                activity_name, services, stage, weights, stats
            )
            span.set(
                levels=len(selection.levels),
                kept=len(selection.services),
                pruned=len(selection.reserve),
                clustering_iterations=selection.clustering_iterations,
                cached=cached,
            )
        return selection

    def _weight_free_stage(
        self,
        activity_name: str,
        services: Sequence[ServiceDescription],
        relevant: Mapping[str, QoSProperty],
        stats: SelectionStatistics,
    ) -> Tuple:
        """The part of the local phase the weights never enter: restrict
        and normalise the candidates' QoS, build the pool's table, prune
        the Pareto-dominated candidates, cluster the kept ones and take
        their rows.

        Returns ``(kept, pruned, normalizer, bounds, clustering, rows)``:
        the kept and the pruned ``(pool position, normalised point)``
        pairs in pool order, the local normaliser, the whole pool's
        ``(low, high)`` rows, the kept points' k-means result and
        :attr:`LocalSelection.rows`.  It names no service, so the cache
        can serve it to any pool with the same fingerprint, and each
        request maps the positions onto its own pool.  Nothing downstream
        mutates it.
        """
        vectors = [s.advertised_qos.restrict(relevant) for s in services]
        normalizer = Normalizer.from_vectors(vectors, relevant)
        # One table for the bounds, the skyline and the kept rows.
        names = tuple(relevant)
        table, low, high = PoolTable.build(activity_name, services, names)

        with self.obs.span("qassa.prune", candidates=len(vectors)) as span:
            keep, path = self._non_dominated_indexes(vectors, names, table)
            span.set(kept=len(keep), path=path)
        kept_indexes = set(keep)
        points = [normalizer.normalise_vector(v) for v in vectors]
        kept = tuple((i, points[i]) for i in keep)
        pruned = tuple(
            (i, points[i]) for i in range(len(services))
            if i not in kept_indexes
        )
        clustering = kmeans(
            [point for _, point in kept],
            LEVELS_PER_ACTIVITY,
            sorted(relevant),
            seed=self.config.seed,
        )
        stats.clustering_iterations += clustering.iterations
        requested = min(LEVELS_PER_ACTIVITY, len(kept))
        if len(clustering.clusters) < requested and self.obs.enabled:
            self.obs.counter("qassa_levels_collapsed_total").inc()
        rows = tuple(None if None in table[i] else table[i] for i in keep)
        return kept, pruned, normalizer, (low, high), clustering, rows

    @staticmethod
    def _weighted_stage(
        activity_name: str,
        services: Sequence[ServiceDescription],
        stage: Tuple,
        weights: Mapping[str, float],
        stats: SelectionStatistics,
    ) -> LocalSelection:
        """The part of the local phase the weights drive: SAW utilities of
        every candidate, the reserve order and the ranking of the cached
        clusters into QoS levels, over ``services``, the request's pool."""
        kept, pruned, normalizer, bounds, clustering, rows = stage
        scored = [
            (point_utility(point, weights), services[i]) for i, point in pruned
        ]
        scored.sort(key=lambda pair: -pair[0])
        utilities = [point_utility(point, weights) for _, point in kept]
        stats.utility_evaluations += len(utilities)
        return LocalSelection(
            activity_name=activity_name,
            services=[services[i] for i, _ in kept],
            utilities=utilities,
            levels=rank_levels(clustering.clusters, utilities, weights),
            normalizer=normalizer,
            clustering_iterations=clustering.iterations,
            reserve=[service for _, service in scored],
            bounds=bounds,
            rows=rows,
        )

    @staticmethod
    def _non_dominated_indexes(
        vectors: Sequence[QoSVector],
        names: Sequence[str],
        table: Sequence[Tuple[Optional[float], ...]],
    ) -> Tuple[List[int], str]:
        """Indexes of the Pareto-non-dominated vectors, in pool order, and
        the path that found them: ``"skyline"`` or ``"pairwise"``.

        ``table`` holds each vector's values over ``names`` (None where it
        lacks one).  When every vector carries every name, each name under
        one direction, and no value is NaN, dominance is transitive, so a
        sort-filter skyline (Chomicki et al., ICDE 2003) finds the front:
        orient the rows so higher is better, visit them best-first in
        lexicographic order (a dominator always comes before what it
        dominates) and keep a row unless a row kept before it dominates
        it.  Any other pool takes the O(n²) pairwise check of
        :meth:`QoSVector.dominates`, which compares only the properties two
        vectors share and is not transitive across mixed property sets.
        """
        if all(x is not None and x == x for row in table for x in row):
            directions = [{v.property(n).direction for v in vectors} for n in names]
            if all(len(d) == 1 for d in directions):
                negative = [d.pop() is Direction.NEGATIVE for d in directions]
                oriented = [
                    tuple([-x if neg else x for neg, x in zip(negative, row)])
                    for row in table
                ]
                front: List[Tuple[float, ...]] = []
                keep: List[int] = []
                for i in sorted(
                    range(len(oriented)), key=oriented.__getitem__, reverse=True
                ):
                    row = oriented[i]
                    for better in front:
                        # Equal rows never dominate each other.
                        if all(map(ge, better, row)) and better != row:
                            break
                    else:
                        front.append(row)
                        keep.append(i)
                return sorted(keep), "skyline"
        keep = [
            i for i, v in enumerate(vectors)
            if not any(
                j != i and vectors[j].dominates(v) for j in range(len(vectors))
            )
        ]
        return keep or list(range(len(vectors))), "pairwise"

    # ------------------------------------------------------------------
    # global phase helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _refine_utility(
        score: _AssignmentScorer,
        refine_order: Sequence[Sequence[int]],
        indexes: Tuple[int, ...],
        scored: Tuple[Row, float, bool],
    ) -> Tuple[Tuple[int, ...], Tuple[Row, float, bool]]:
        """Coordinate-ascent polish of a feasible assignment (one sweep).

        Local SAW utility (which picked the level representatives) and
        *composition* utility (min-max over aggregated bounds) can disagree,
        especially on small candidate sets.  For each activity, the top
        :data:`REFINE_CANDIDATES` kept services (across all levels,
        best-local-utility first) are tried in place; a swap is kept when it
        improves composition utility without breaking feasibility.  That is
        up to n · REFINE_CANDIDATES scored assignments per feasible state,
        most of a selection's work; neighbouring states' sweeps try many
        of the same assignments, which ``score`` aggregates only once.
        """
        for pos, (pool, ordered) in enumerate(zip(score.pools, refine_order)):
            current_best = scored[1]
            for idx in ordered:
                if pool[idx] == pool[indexes[pos]]:
                    continue
                trial = indexes[:pos] + (idx,) + indexes[pos + 1:]
                trial_scored = score(trial)
                if trial_scored[2] and trial_scored[1] > current_best:
                    indexes, scored = trial, trial_scored
                    current_best = trial_scored[1]
        return indexes, scored

    def _repair(
        self,
        request: UserRequest,
        names: Sequence[str],
        state: Tuple[int, ...],
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
        score: _AssignmentScorer,
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[Row, float, bool]]]:
        """Try to make a level combination feasible by swapping members.

        Within the state's chosen clusters, repeatedly rebind the activity
        whose swap most improves the most-violated constraint.  Bounded by
        :data:`REPAIR_PASSES` full sweeps.
        """
        levels = [
            locals_[name].levels[rank] for name, rank in zip(names, state)
        ]
        chosen = [level.representative for level in levels]

        for _ in range(REPAIR_PASSES):
            scored = score(tuple(chosen))
            if scored[2]:
                return tuple(chosen), scored

            violations = request.violations(
                score.aggregation.vector(scored[0])
            )
            if not violations:
                return None
            # Most violated constraint (largest negative slack magnitude).
            worst_desc = min(violations, key=lambda k: violations[k])
            prop_name = worst_desc.split()[0]
            if prop_name not in relevant:
                return None
            prop = relevant[prop_name]

            improved = False
            for pos, name in enumerate(names):
                sel = locals_[name]
                current = sel.services[chosen[pos]].advertised_qos.get(prop_name)
                best_idx = chosen[pos]
                best_value = current
                for idx in levels[pos].member_indexes:
                    value = sel.services[idx].advertised_qos.get(prop_name)
                    if value is None:
                        continue
                    if best_value is None or prop.better(value, best_value):
                        best_value, best_idx = value, idx
                if best_idx != chosen[pos]:
                    chosen[pos] = best_idx
                    improved = True
            if not improved:
                return None

        scored = score(tuple(chosen))
        return (tuple(chosen), scored) if scored[2] else None

    # ------------------------------------------------------------------
    def _make_plan_object(
        self,
        request: UserRequest,
        names: Sequence[str],
        state: Tuple[int, ...],
        locals_: Mapping[str, LocalSelection],
        assignment: Mapping[str, ServiceDescription],
        aggregated: QoSVector,
        utility: float,
        feasible: bool,
    ) -> CompositionPlan:
        selections: Dict[str, SelectedActivity] = {}
        quota = 1 + self.config.alternates_kept
        for name, rank in zip(names, state):
            sel = locals_[name]
            services = sel.services
            chosen = sel.levels[rank]
            ranked = [assignment[name]]
            # Alternates come from the chosen level first, then from the
            # remaining levels in rank order, so each activity retains
            # several services for dynamic binding / substitution (§I.5)
            # even when its winning cluster is small.  Pareto-pruned
            # candidates back-fill the quota last: strictly worse than
            # their dominators, but a dominated substitute beats no
            # substitute when providers churn.
            for service in chain(
                map(services.__getitem__, chosen.member_indexes),
                (services[i] for level in sel.levels if level is not chosen
                 for i in level.member_indexes),
                sel.reserve,
            ):
                if len(ranked) >= quota:
                    break
                if service not in ranked:
                    ranked.append(service)
            selections[name] = SelectedActivity(
                name, ranked, normalizer=sel.normalizer
            )
        return CompositionPlan(
            task=request.task,
            request=request,
            selections=selections,
            aggregated_qos=aggregated,
            utility=utility,
            feasible=feasible,
            approach=self.approach,
        )


class _AssignmentScorer:
    """Scores the assignments of one global phase, each distinct one once.

    An assignment is an index tuple: one position per activity, in
    ``names`` (the task's activity) order, into that activity's
    :attr:`LocalSelection.services`.  The first call for a tuple folds its
    :attr:`LocalSelection.rows`, scores the aggregate row with
    :func:`~repro.composition.utility.row_utility` and checks it with
    :meth:`UserRequest.satisfied_by`, as
    :func:`~repro.composition.selection.evaluate_assignment` does; later
    calls return the same ``(aggregate row, utility, feasible)``.  Every call counts in ``stats.utility_evaluations``;
    :attr:`aggregations` counts the tuples aggregated.  The key is the
    index tuple, not the services: services compare by id, and a
    republished service keeps its id under a different QoS.  One instance
    lives for one :meth:`QASSA.global_phase` call.
    """

    def __init__(
        self,
        request: UserRequest,
        names: Sequence[str],
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
        approach: AggregationApproach,
        stats: SelectionStatistics,
    ) -> None:
        self.request = request
        self.names = names
        self.pools = [locals_[name].services for name in names]
        self.rows = [locals_[name].rows for name in names]
        self.aggregation = CompiledAggregation(
            request.task.root, relevant, approach
        )
        self.normalizer = make_global_normalizer(self.aggregation, {
            name: locals_[name].bounds for name in names
        })
        self.terms = self.normalizer.terms(
            request.normalised_weights(relevant), tuple(relevant)
        )
        self.stats = stats
        self.scored: Dict[Tuple[int, ...], Tuple[Row, float, bool]] = {}

    def __call__(self, indexes: Tuple[int, ...]) -> Tuple[Row, float, bool]:
        self.stats.utility_evaluations += 1
        scored = self.scored.get(indexes)
        if scored is not None:
            return scored
        rows = [pool[i] for pool, i in zip(self.rows, indexes)]
        if None in rows:
            # A service lacks a relevant value: raise the AggregationError
            # its QoS vector raises.
            self.aggregation.rows({
                n: s.advertised_qos for n, s in self.assignment(indexes).items()
            })
        values = self.aggregation(rows)
        scored = self.scored[indexes] = (
            values,
            row_utility(values, self.terms),
            self.request.satisfied_by(
                dict(zip(self.aggregation.properties, values))
            ),
        )
        return scored

    def assignment(
        self, indexes: Tuple[int, ...]
    ) -> Dict[str, ServiceDescription]:
        """The services an index tuple binds, in ``names`` order."""
        return {
            name: pool[index]
            for name, pool, index in zip(self.names, self.pools, indexes)
        }

    @property
    def aggregations(self) -> int:
        """Distinct assignments aggregated so far."""
        return len(self.scored)
