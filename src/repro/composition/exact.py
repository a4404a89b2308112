"""Exact branch-and-bound selection — the scalable optimality oracle.

:class:`ExhaustiveSelection` proves optimality by enumerating the full
assignment space, which explodes combinatorially and hard-fails past its
``limit`` — so the paper's >90 %-of-optimum claim (§VI.3.2) was only
verifiable at toy sizes.  :class:`ExactSelection` computes the *same*
optimum by branch and bound over the binary service-per-activity decision
model:

* **Search tree** — activities are fixed one at a time (in the task's
  activity order, matching the enumeration order of
  :class:`ExhaustiveSelection`); each tree node is a partial assignment.
* **Admissible pruning** — for every partial assignment, per-property
  *aggregation bounds* are computed by aggregating the fixed services'
  values together with each free activity's per-candidate extremes over
  the pattern tree.  All of Table IV.1's operators (sum, product of
  non-negative values, min, max, mean, the loop/conditional resolutions)
  are monotone non-decreasing in every activity value, so plugging
  per-activity minima/maxima yields true lower/upper bounds on any
  completion's aggregate.  A node is pruned when

  - some global constraint is unsatisfiable even at its favourable bound
    (optimistic aggregate already violates the constraint), or
  - the utility upper bound (weights × best-achievable normalised values,
    summed in the same order as :func:`composition_utility`) cannot beat
    the incumbent.

* **Variable fixing** — before the search, candidates that are Pareto-
  dominated within their activity on all relevant properties are dropped
  (the dominator yields a plan that is no worse and earlier in enumeration
  order), and candidates that cannot appear in *any* feasible assignment
  (their single-candidate bound already violates a constraint) are removed
  iteratively until a fixpoint.
* **Deterministic node ordering** — candidates are explored in a fixed
  utility-guided order with index tie-breaks, and the incumbent update
  reproduces :class:`ExhaustiveSelection`'s tie-break exactly (first
  maximum in product-enumeration order), so runs are replay-stable and
  plans are byte-identical to the enumeration wherever both run.

The result: the same plan as exhaustive enumeration on every tractable
instance while exploring orders of magnitude fewer nodes, and exact optima
(hence true optimality gaps) at sizes where enumeration is impossible.
See ``docs/OPTIMALITY.md`` for the formulation and the gap methodology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SelectionError
from repro.qos.properties import AggregationKind, Direction, QoSProperty
from repro.services.description import ServiceDescription
from repro.composition.aggregation import (
    AggregationApproach,
    aggregate_values,
)
from repro.composition.request import UserRequest
from repro.composition.baselines import _BaseSelector
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    SelectionStatistics,
    evaluate_assignment,
    make_global_normalizer,
    relevant_properties,
)


@dataclass
class _Candidate:
    """One candidate service with its raw values over the relevant set."""

    index: int                       # position in the original candidate list
    service: ServiceDescription
    values: Dict[str, float]         # property name -> advertised value


class ExactSelection(_BaseSelector):
    """Exact optimum by branch and bound — the scalable oracle.

    Shares the baseline ``select(request, candidates)`` interface and the
    exact semantics of :class:`ExhaustiveSelection` (same optimum, same
    tie-break, same infeasibility proof, same ``best_effort`` fallback),
    but prunes the assignment space with admissible per-property
    aggregation bounds instead of enumerating it.

    ``max_nodes`` guards against adversarial instances where the bounds
    are too loose to prune (mirrors the enumeration's ``limit``): the
    search raises :class:`SelectionError` rather than running unbounded.

    Every candidate must advertise every relevant property (the same
    precondition under which :class:`ExhaustiveSelection` completes
    without an aggregation error); violations raise a clear
    :class:`SelectionError` up front instead of failing mid-search.
    """

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        max_nodes: int = 2_000_000,
    ) -> None:
        super().__init__(properties, approach)
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
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
        weights = request.normalised_weights(relevant)
        names = candidates.activity_names()

        pools = self._build_pools(names, candidates, relevant)
        kept = self._dominance_fixing(pools, relevant, request, stats)

        search = _Search(
            task=request.task,
            request=request,
            names=names,
            relevant=relevant,
            normalizer=normalizer,
            weights=weights,
            approach=self.approach,
            stats=stats,
            max_nodes=self.max_nodes,
        )

        feasible_pools = self._constraint_fixing(kept, request, search, stats)
        best = None
        if feasible_pools is not None:
            best = search.run(feasible_pools, enforce_constraints=True)
        if best is not None:
            utility, assignment, aggregated = best
            stats.elapsed_seconds = time.perf_counter() - started
            return self._plan(
                request, assignment, candidates, aggregated, utility, True,
                stats, alternates,
            )
        if best_effort:
            # No feasible assignment exists; find the highest-utility one
            # overall, exactly as ExhaustiveSelection's best_any fallback.
            best_any = search.run(kept, enforce_constraints=False)
            if best_any is not None:
                utility, assignment, aggregated = best_any
                stats.elapsed_seconds = time.perf_counter() - started
                return self._plan(
                    request, assignment, candidates, aggregated, utility,
                    False, stats, alternates,
                )
        stats.elapsed_seconds = time.perf_counter() - started
        raise SelectionError(
            "no feasible composition exists (branch-and-bound proof)"
        )

    # ------------------------------------------------------------------
    # variable fixing
    # ------------------------------------------------------------------
    def _build_pools(
        self,
        names: Sequence[str],
        candidates: CandidateSets,
        relevant: Mapping[str, QoSProperty],
    ) -> Dict[str, List[_Candidate]]:
        pools: Dict[str, List[_Candidate]] = {}
        for name in names:
            pool: List[_Candidate] = []
            for index, service in enumerate(candidates[name]):
                values: Dict[str, float] = {}
                for pname, prop in relevant.items():
                    value = service.advertised_qos.get(pname)
                    if value is None:
                        raise SelectionError(
                            f"candidate {service.service_id!r} of activity "
                            f"{name!r} does not advertise the relevant "
                            f"property {pname!r}"
                        )
                    if value < 0 and (
                        prop.aggregation is AggregationKind.MULTIPLICATIVE
                    ):
                        # Bound admissibility relies on the product/power
                        # operators being monotone, which needs >= 0 values.
                        raise SelectionError(
                            f"candidate {service.service_id!r} advertises a "
                            f"negative value for multiplicative property "
                            f"{pname!r}; bounds would be inadmissible"
                        )
                    values[pname] = value
                pool.append(_Candidate(index, service, values))
            pools[name] = pool
        return pools

    def _dominance_fixing(
        self,
        pools: Mapping[str, List[_Candidate]],
        relevant: Mapping[str, QoSProperty],
        request: UserRequest,
        stats: SelectionStatistics,
    ) -> Dict[str, List[_Candidate]]:
        """Drop candidates weakly dominated by an earlier candidate.

        Candidate ``j`` is removable when some candidate ``i`` with a
        *smaller original index* is at least as good on every relevant
        property (direction-aware).  Any assignment using ``j`` then maps
        to one using ``i`` with utility no lower, feasibility no worse and
        an earlier position in enumeration order, so the optimum
        ExhaustiveSelection would report never contains ``j`` — including
        under its first-maximum tie-break.

        Properties carrying a constraint *against* their natural direction
        (a floor on response time, say) are excluded from the "at least as
        good" test and must match exactly: improving such a property can
        break feasibility, so dominance is only claimed on equal values.
        """
        natural: Dict[str, bool] = {name: True for name in relevant}
        for constraint in request.constraints:
            prop = relevant.get(constraint.property_name)
            if prop is None:
                continue
            expected = "<=" if prop.direction is Direction.NEGATIVE else ">="
            if constraint.operator != expected:
                natural[constraint.property_name] = False

        kept: Dict[str, List[_Candidate]] = {}
        dropped_total = 0
        for name, pool in pools.items():
            survivors: List[_Candidate] = []
            for cand in pool:
                dominated = False
                for earlier in survivors:
                    if self._weakly_dominates(
                        earlier, cand, relevant, natural
                    ):
                        dominated = True
                        break
                if dominated:
                    dropped_total += 1
                else:
                    survivors.append(cand)
            kept[name] = survivors
        stats.extra["fixed_dominated"] = float(dropped_total)
        return kept

    @staticmethod
    def _weakly_dominates(
        a: _Candidate,
        b: _Candidate,
        relevant: Mapping[str, QoSProperty],
        natural: Mapping[str, bool],
    ) -> bool:
        """``a`` at least as good as ``b`` on every relevant property."""
        for pname, prop in relevant.items():
            va, vb = a.values[pname], b.values[pname]
            if va == vb:
                continue
            if not natural[pname]:
                return False
            if prop.better(vb, va):
                return False
        return True

    def _constraint_fixing(
        self,
        kept: Mapping[str, List[_Candidate]],
        request: UserRequest,
        search: "_Search",
        stats: SelectionStatistics,
    ) -> Optional[Dict[str, List[_Candidate]]]:
        """Remove candidates that cannot appear in any feasible assignment.

        For each candidate, aggregate its values together with every other
        activity's favourable extreme; if some constraint is violated even
        then, no completion containing the candidate is feasible.  Removing
        candidates tightens the extremes, so the filter iterates to a
        fixpoint.  Returns ``None`` when an activity runs empty — a proof
        that no feasible assignment exists at all.
        """
        if not request.constraints:
            return {name: list(pool) for name, pool in kept.items()}
        pools = {name: list(pool) for name, pool in kept.items()}
        removed_total = 0
        changed = True
        while changed:
            changed = False
            extremes = search.pool_extremes(pools)
            for name, pool in pools.items():
                if not pool:
                    return None
                survivors = [
                    cand for cand in pool
                    if search.candidate_feasible(name, cand, extremes)
                ]
                if len(survivors) != len(pool):
                    removed_total += len(pool) - len(survivors)
                    pools[name] = survivors
                    changed = True
            if any(not pool for pool in pools.values()):
                stats.extra["fixed_infeasible"] = float(removed_total)
                return None
        stats.extra["fixed_infeasible"] = float(removed_total)
        return pools


class _Search:
    """One depth-first branch-and-bound pass over the candidate pools."""

    def __init__(
        self,
        task,
        request: UserRequest,
        names: Sequence[str],
        relevant: Mapping[str, QoSProperty],
        normalizer,
        weights: Mapping[str, float],
        approach: AggregationApproach,
        stats: SelectionStatistics,
        max_nodes: int,
    ) -> None:
        self.task = task
        self.request = request
        self.names = list(names)
        self.relevant = dict(relevant)
        self.normalizer = normalizer
        self.weights = dict(weights)
        self.approach = approach
        self.stats = stats
        self.max_nodes = max_nodes

    # -- bounds --------------------------------------------------------
    def pool_extremes(
        self, pools: Mapping[str, List[_Candidate]]
    ) -> Dict[str, Dict[str, Tuple[float, float]]]:
        """activity -> property -> (min, max) raw value over the pool."""
        extremes: Dict[str, Dict[str, Tuple[float, float]]] = {}
        for name, pool in pools.items():
            per_prop: Dict[str, Tuple[float, float]] = {}
            for pname in self.relevant:
                values = [cand.values[pname] for cand in pool]
                if values:
                    per_prop[pname] = (min(values), max(values))
            extremes[name] = per_prop
        return extremes

    def _aggregate_extreme(
        self,
        pname: str,
        fixed: Mapping[str, float],
        extremes: Mapping[str, Mapping[str, Tuple[float, float]]],
        hi: bool,
    ) -> float:
        """Lower (``hi=False``) or upper bound on the aggregated value.

        Every aggregation operator is monotone non-decreasing in each
        activity value, so the bound plugs each free activity's raw
        min (or max) into the pattern tree.
        """
        side = 1 if hi else 0
        activity_values = dict(fixed)
        for name in self.names:
            if name not in activity_values:
                activity_values[name] = extremes[name][pname][side]
        prop = self.relevant[pname]
        return aggregate_values(
            prop, self.task.root, activity_values, self.approach
        )

    def constraints_satisfiable(
        self,
        fixed: Mapping[str, Dict[str, float]],
        extremes: Mapping[str, Mapping[str, Tuple[float, float]]],
    ) -> bool:
        """Whether some completion can still satisfy every constraint."""
        fixed_per_prop: Dict[str, Dict[str, float]] = {}
        for pname in self.relevant:
            fixed_per_prop[pname] = {
                name: values[pname] for name, values in fixed.items()
            }
        for constraint in self.request.constraints:
            pname = constraint.property_name
            if pname not in self.relevant:
                # A constraint on a property outside the relevant set never
                # occurs via UserRequest.relevant_properties; be safe.
                continue
            favourable = self._aggregate_extreme(
                pname, fixed_per_prop[pname], extremes,
                hi=(constraint.operator == ">="),
            )
            if not constraint.satisfied_by(favourable):
                return False
        return True

    def candidate_feasible(
        self,
        name: str,
        cand: _Candidate,
        extremes: Mapping[str, Mapping[str, Tuple[float, float]]],
    ) -> bool:
        return self.constraints_satisfiable({name: cand.values}, extremes)

    def utility_bound(
        self,
        fixed: Mapping[str, Dict[str, float]],
        extremes: Mapping[str, Mapping[str, Tuple[float, float]]],
    ) -> float:
        """Upper bound on any completion's composition utility.

        Summed in ``weights`` iteration order with the same per-term
        operations as :func:`composition_utility`, so float monotonicity
        guarantees ``bound >= utility(completion)`` bit-for-bit.
        """
        total = 0.0
        for pname, weight in self.weights.items():
            prop = self.relevant[pname]
            fixed_values = {
                name: values[pname] for name, values in fixed.items()
            }
            best_agg = self._aggregate_extreme(
                pname, fixed_values, extremes,
                hi=(prop.direction is Direction.POSITIVE),
            )
            total += weight * self.normalizer.normalise(pname, best_agg)
        return total

    # -- the search ----------------------------------------------------
    def run(
        self,
        pools: Mapping[str, List[_Candidate]],
        enforce_constraints: bool,
    ) -> Optional[Tuple[float, Dict[str, ServiceDescription], object]]:
        """DFS with pruning; returns (utility, assignment, aggregated).

        Reproduces ExhaustiveSelection's tie-break: among equal-utility
        optima the one earliest in product-enumeration order wins.  The
        incumbent therefore tracks the original index tuple, and a node
        whose bound *ties* the incumbent is only pruned when even its
        lexicographically smallest completion cannot precede the
        incumbent.
        """
        for pool in pools.values():
            if not pool:
                return None
        extremes = self.pool_extremes(pools)
        # Deterministic exploration order: utility-guided (a candidate's
        # solo SAW score against the global normaliser), index tie-break.
        ordered: Dict[str, List[_Candidate]] = {}
        for name, pool in pools.items():
            ordered[name] = sorted(
                pool,
                key=lambda cand: (-self._solo_score(cand), cand.index),
            )
        min_index: Dict[str, int] = {
            name: min(cand.index for cand in pool)
            for name, pool in pools.items()
        }

        best_utility: Optional[float] = None
        best_key: Optional[Tuple[int, ...]] = None
        best_payload: Optional[
            Tuple[float, Dict[str, ServiceDescription], object]
        ] = None
        nodes = 0
        names = self.names
        depth_count = len(names)

        fixed_values: Dict[str, Dict[str, float]] = {}
        fixed_services: Dict[str, ServiceDescription] = {}
        prefix_indexes: List[int] = []

        def min_completion_key(depth: int) -> Tuple[int, ...]:
            return tuple(
                prefix_indexes + [min_index[name] for name in names[depth:]]
            )

        def recurse(depth: int) -> None:
            nonlocal nodes, best_utility, best_key, best_payload
            nodes += 1
            if nodes > self.max_nodes:
                raise SelectionError(
                    f"branch-and-bound node budget exceeded "
                    f"({self.max_nodes} nodes)"
                )
            if depth == depth_count:
                assignment = dict(fixed_services)
                aggregated, utility, feasible = evaluate_assignment(
                    self.task, self.request, assignment, self.relevant,
                    self.normalizer, self.approach,
                )
                self.stats.combinations_explored += 1
                self.stats.utility_evaluations += 1
                if enforce_constraints and not feasible:
                    return
                key = tuple(prefix_indexes)
                if (
                    best_utility is None
                    or utility > best_utility
                    or (utility == best_utility and key < best_key)
                ):
                    best_utility = utility
                    best_key = key
                    best_payload = (utility, assignment, aggregated)
                return
            if enforce_constraints and not self.constraints_satisfiable(
                fixed_values, extremes
            ):
                self.stats.extra["pruned_infeasible"] = (
                    self.stats.extra.get("pruned_infeasible", 0.0) + 1.0
                )
                return
            if best_utility is not None:
                bound = self.utility_bound(fixed_values, extremes)
                if bound < best_utility or (
                    bound == best_utility
                    and min_completion_key(depth) >= best_key
                ):
                    self.stats.extra["pruned_bound"] = (
                        self.stats.extra.get("pruned_bound", 0.0) + 1.0
                    )
                    return
            name = names[depth]
            for cand in ordered[name]:
                fixed_values[name] = cand.values
                fixed_services[name] = cand.service
                prefix_indexes.append(cand.index)
                recurse(depth + 1)
                prefix_indexes.pop()
                del fixed_values[name]
                del fixed_services[name]

        recurse(0)
        self.stats.extra["nodes_expanded"] = (
            self.stats.extra.get("nodes_expanded", 0.0) + float(nodes)
        )
        return best_payload

    def _solo_score(self, cand: _Candidate) -> float:
        """Static ordering heuristic: the candidate's own weighted score
        against the global normaliser (higher first finds strong
        incumbents early; purely an ordering choice, never affects the
        returned optimum)."""
        total = 0.0
        for pname, weight in self.weights.items():
            total += weight * self.normalizer.normalise(
                pname, cand.values[pname]
            )
        return total
