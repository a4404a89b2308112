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
assignments, so one global phase aggregates each distinct assignment once.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SelectionError
from repro.qos.properties import QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.composition.aggregation import AggregationApproach, aggregation_bounds
from repro.composition.clustering import QoSLevel, kmeans, rank_levels
from repro.composition.request import UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    SelectedActivity,
    SelectionStatistics,
    evaluate_assignment,
    relevant_properties,
)
from repro.composition.selection_cache import SelectionCache
from repro.composition.utility import Normalizer, point_utility
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

    ``services``, ``points``, ``normalizer``, ``clustering_iterations`` and
    ``extremes`` come from the weight-free stage (shared by every request
    over the same pool and properties); ``utilities``, ``levels`` and the
    ``reserve`` order come from the request's weights.  Every instance has
    lists of its own, so nothing a caller does to one reaches the cache.
    """

    activity_name: str
    services: List[ServiceDescription]
    points: List[Dict[str, float]]
    utilities: List[float]
    levels: List[QoSLevel]
    normalizer: Normalizer
    clustering_iterations: int
    reserve: List[ServiceDescription] = field(default_factory=list)
    #: Per-property ``(best, worst)`` advertised values over the *full*
    #: candidate set (pruned ones included) — lets the global normaliser be
    #: rebuilt from cached local selections without rescanning candidates.
    extremes: Dict[str, Tuple[float, float]] = field(default_factory=dict)


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
        extremes, Pareto pruning, k-means clusters) is reused across
        ``select()`` and ``local_selections()`` calls whenever the
        activity's candidate pool and the relevant properties are
        unchanged — a new weight profile only re-ranks the cached
        clusters, and churn and fault events recompute only the activities
        they actually touched.  Chosen compositions are identical with and
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
        returns.
        """
        with self.obs.span("qassa.global", k=k) as span:
            names = candidates.activity_names()
            score = _AssignmentScorer(
                request, names, locals_, relevant,
                self._build_global_normalizer(request.task, locals_, relevant),
                self.approach, stats,
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
            aggregated, utility, feasible = score(indexes)
            if not feasible:
                repaired = self._repair(
                    request, names, state, locals_, relevant, score
                )
                if repaired is not None:
                    indexes, aggregated, utility = repaired
                    feasible = True
            if feasible:
                indexes, aggregated, utility = self._refine_utility(
                    names, locals_, indexes, aggregated, utility, score
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
                            aggregated, utility, feasible=True,
                        )
                    )
                    if len(plans) >= k:
                        return plans, best_infeasible
            elif best_infeasible is None or utility > best_infeasible.utility:
                best_infeasible = self._make_plan_object(
                    request, names, state, locals_, score.assignment(indexes),
                    aggregated, utility, feasible=False,
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
        self, request: UserRequest, candidates: CandidateSets
    ) -> Dict[str, LocalSelection]:
        """Run only the local phase (used by the distributed variant, where
        each device computes its own activities' levels).  It consults the
        cache like :meth:`select` does."""
        relevant = relevant_properties(self.properties, request)
        weights = request.normalised_weights(relevant)
        return self._local_selections(
            candidates, relevant, weights, SelectionStatistics()
        )

    # ------------------------------------------------------------------
    # local phase
    # ------------------------------------------------------------------
    def _local_selections(
        self,
        candidates: CandidateSets,
        relevant: Mapping[str, QoSProperty],
        weights: Mapping[str, float],
        stats: SelectionStatistics,
    ) -> Dict[str, LocalSelection]:
        """Local phase for every activity, consulting the cache when wired."""
        if self.cache is not None:
            self.cache.begin(self._context_key(relevant))
        locals_ = {
            name: self._local_phase(name, services, relevant, weights, stats)
            for name, services in candidates.items()
        }
        if self.cache is not None and self.obs.enabled:
            self.obs.counter("selection_cache_hits_total").inc(stats.cache_hits)
            self.obs.counter("selection_cache_misses_total").inc(stats.cache_misses)
        return locals_

    def _context_key(self, relevant: Mapping[str, QoSProperty]) -> Tuple:
        """Everything, beyond the candidate pools, the weight-free stage
        depends on.  The relevant names keep the request's order, which the
        cached normaliser and points carry.  Cached entries from a
        different context are unusable."""
        return (tuple(relevant), self.config.seed)

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
                fingerprint = SelectionCache.fingerprint(services)
                stage = self.cache.lookup(activity_name, fingerprint)
            cached = stage is not None
            if cached:
                stats.cache_hits += 1
            else:
                stage = self._weight_free_stage(
                    activity_name, services, relevant, stats
                )
                if self.cache is not None:
                    self.cache.store(activity_name, fingerprint, stage)
                    stats.cache_misses += 1
            selection = self._weighted_stage(activity_name, stage, weights, stats)
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
        and normalise the candidates' QoS, record the per-property
        extremes, prune the Pareto-dominated candidates and cluster the
        kept ones.

        Returns ``(kept, pruned, normalizer, extremes, clustering)``: the
        kept and the pruned ``(service, normalised point)`` pairs in pool
        order, the local normaliser, the per-property ``(best, worst)``
        values over the whole pool and the kept points' k-means result.
        The cache shares it between requests, so nothing downstream
        mutates it.
        """
        vectors = [s.advertised_qos.restrict(relevant) for s in services]
        normalizer = Normalizer.from_vectors(vectors, relevant)
        extremes: Dict[str, Tuple[float, float]] = {}
        for pname, prop in relevant.items():
            values = [v[pname] for v in vectors if pname in v]
            if not values:
                raise SelectionError(
                    f"no candidate of activity {activity_name!r} advertises "
                    f"{pname!r}"
                )
            extremes[pname] = (
                prop.direction.best(values),
                prop.direction.worst(values),
            )

        keep = self._non_dominated_indexes(vectors)
        kept_indexes = set(keep)
        points = [normalizer.normalise_vector(v) for v in vectors]
        kept = tuple((services[i], points[i]) for i in keep)
        pruned = tuple(
            (services[i], points[i])
            for i in range(len(services))
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
        return kept, pruned, normalizer, extremes, clustering

    @staticmethod
    def _weighted_stage(
        activity_name: str,
        stage: Tuple,
        weights: Mapping[str, float],
        stats: SelectionStatistics,
    ) -> LocalSelection:
        """The part of the local phase the weights drive: SAW utilities of
        every candidate, the reserve order and the ranking of the cached
        clusters into QoS levels."""
        kept, pruned, normalizer, extremes, clustering = stage
        scored = [
            (point_utility(point, weights), service) for service, point in pruned
        ]
        scored.sort(key=lambda pair: -pair[0])
        utilities = [point_utility(point, weights) for _, point in kept]
        stats.utility_evaluations += len(utilities)
        return LocalSelection(
            activity_name=activity_name,
            services=[service for service, _ in kept],
            points=[dict(point) for _, point in kept],
            utilities=utilities,
            levels=rank_levels(clustering.clusters, utilities, weights),
            normalizer=normalizer,
            clustering_iterations=clustering.iterations,
            reserve=[service for _, service in scored],
            extremes=dict(extremes),
        )

    def _build_global_normalizer(
        self,
        task,
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
    ) -> Normalizer:
        """Global normaliser from the per-activity extremes the local phase
        recorded — equivalent to
        :func:`~repro.composition.selection.make_global_normalizer` but
        reusable from cached local selections without rescanning candidates.
        """
        spans: Dict[str, Tuple[float, float]] = {}
        for pname, prop in relevant.items():
            per_activity = {
                name: sel.extremes[pname] for name, sel in locals_.items()
            }
            best, worst = aggregation_bounds(task, prop, per_activity, self.approach)
            spans[pname] = (min(best, worst), max(best, worst))
        return Normalizer(dict(relevant), spans)

    @staticmethod
    def _non_dominated_indexes(vectors: Sequence[QoSVector]) -> List[int]:
        """Indexes of Pareto-non-dominated vectors (O(n²), n is small)."""
        keep: List[int] = []
        for i, v in enumerate(vectors):
            if not any(
                j != i and vectors[j].dominates(v) for j in range(len(vectors))
            ):
                keep.append(i)
        return keep or list(range(len(vectors)))

    # ------------------------------------------------------------------
    # global phase helpers
    # ------------------------------------------------------------------
    def _refine_utility(
        self,
        names: Sequence[str],
        locals_: Mapping[str, LocalSelection],
        indexes: Tuple[int, ...],
        aggregated: QoSVector,
        utility: float,
        score: _AssignmentScorer,
    ) -> Tuple[Tuple[int, ...], QoSVector, float]:
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
        best = (indexes, aggregated, utility)
        for pos, name in enumerate(names):
            sel = locals_[name]
            ordered = sorted(
                range(len(sel.services)), key=lambda i: -sel.utilities[i]
            )[:REFINE_CANDIDATES]
            current_best = best[2]
            for idx in ordered:
                if sel.services[idx] == sel.services[best[0][pos]]:
                    continue
                trial = best[0][:pos] + (idx,) + best[0][pos + 1:]
                trial_aggregated, trial_utility, trial_feasible = score(trial)
                if trial_feasible and trial_utility > current_best:
                    best = (trial, trial_aggregated, trial_utility)
                    current_best = trial_utility
        return best

    def _repair(
        self,
        request: UserRequest,
        names: Sequence[str],
        state: Tuple[int, ...],
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
        score: _AssignmentScorer,
    ) -> Optional[Tuple[Tuple[int, ...], QoSVector, float]]:
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
            aggregated, utility, feasible = score(tuple(chosen))
            if feasible:
                return tuple(chosen), aggregated, utility

            violations = request.violations(aggregated)
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

        aggregated, utility, feasible = score(tuple(chosen))
        if feasible:
            return tuple(chosen), aggregated, utility
        return None

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
        for name, rank in zip(names, state):
            sel = locals_[name]
            primary = assignment[name]
            ranked = [primary]
            # Alternates come from the chosen level first, then from the
            # remaining levels in rank order, so each activity retains
            # several services for dynamic binding / substitution (§I.5)
            # even when its winning cluster is small.
            level_order = [sel.levels[rank]] + [
                lv for lv in sel.levels if lv.rank != rank
            ]
            quota = 1 + self.config.alternates_kept
            for level in level_order:
                for idx in level.member_indexes:
                    if len(ranked) >= quota:
                        break
                    service = sel.services[idx]
                    if service != primary and service not in ranked:
                        ranked.append(service)
                if len(ranked) >= quota:
                    break
            # Pareto-pruned candidates back-fill the quota: strictly worse
            # than their dominators, but a dominated substitute beats no
            # substitute when providers churn.
            for service in sel.reserve:
                if len(ranked) >= quota:
                    break
                if service != primary and service not in ranked:
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
    ``names`` order, into that activity's :attr:`LocalSelection.services`.
    The first call for a tuple runs
    :func:`~repro.composition.selection.evaluate_assignment`; later calls
    return the same ``(aggregated, utility, feasible)``.  Every call
    counts in ``stats.utility_evaluations``; :attr:`aggregations` counts
    the tuples actually aggregated.  The key is the index tuple, not the
    services: services compare by id, and a republished service keeps its
    id under a different QoS.  One instance lives for one
    :meth:`QASSA.global_phase` call, so requests share nothing.
    """

    def __init__(
        self,
        request: UserRequest,
        names: Sequence[str],
        locals_: Mapping[str, LocalSelection],
        relevant: Mapping[str, QoSProperty],
        normalizer: Normalizer,
        approach: AggregationApproach,
        stats: SelectionStatistics,
    ) -> None:
        self.request = request
        self.names = names
        self.pools = [locals_[name].services for name in names]
        self.relevant = relevant
        self.normalizer = normalizer
        self.approach = approach
        self.stats = stats
        self.scored: Dict[Tuple[int, ...], Tuple[QoSVector, float, bool]] = {}

    def __call__(
        self, indexes: Tuple[int, ...]
    ) -> Tuple[QoSVector, float, bool]:
        self.stats.utility_evaluations += 1
        scored = self.scored.get(indexes)
        if scored is None:
            scored = self.scored[indexes] = evaluate_assignment(
                self.request.task, self.request, self.assignment(indexes),
                self.relevant, self.normalizer, self.approach,
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
