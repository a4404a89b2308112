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
  - the utility upper bound (the best-achievable aggregate row, scored by
    :func:`~repro.composition.utility.row_utility` as every composition
    is) cannot beat the incumbent.

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

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SelectionError
from repro.qos.properties import AggregationKind, Direction, QoSProperty
from repro.services.description import ServiceDescription
from repro.composition.aggregation import (
    AggregationApproach,
    CompiledAggregation,
    Row,
)
from repro.composition.request import UserRequest
from repro.composition.baselines import _BaseSelector, _Found, _Scored
from repro.composition.selection import (
    CandidateSets,
    SelectionStatistics,
    evaluate_assignment,
    global_scoring,
    pool_bounds,
)
from repro.composition.utility import row_utility


@dataclass
class _Candidate:
    """One candidate service with its raw values over the relevant set."""

    index: int                       # position in the original candidate list
    service: ServiceDescription
    row: Row                         # advertised values, relevant order


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

    _infeasible = "no feasible composition exists (branch-and-bound proof)"

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        max_nodes: int = 2_000_000,
    ) -> None:
        super().__init__(properties, approach)
        self.max_nodes = max_nodes

    def _search(
        self, request: UserRequest, candidates: CandidateSets,
        stats: SelectionStatistics, best_effort: bool,
    ) -> _Found:
        weights, aggregation, normalizer = global_scoring(
            self.properties, request, candidates, self.approach
        )
        relevant = aggregation.properties
        names = candidates.activity_names()

        pools = self._build_pools(names, candidates, relevant)
        kept = self._dominance_fixing(pools, relevant, request, stats)

        search = _Search(
            request=request,
            names=names,
            aggregation=aggregation,
            normalizer=normalizer,
            weights=weights,
            stats=stats,
            max_nodes=self.max_nodes,
        )

        feasible_pools = self._constraint_fixing(kept, request, search, stats)
        best = best_any = None
        if feasible_pools is not None:
            best = search.run(feasible_pools, enforce_constraints=True)
        if best is None and best_effort:
            # No feasible assignment exists; find the highest-utility one
            # overall, exactly as ExhaustiveSelection's best_any fallback.
            best_any = search.run(kept, enforce_constraints=False)
        return best, best_any

    # ------------------------------------------------------------------
    # variable fixing
    # ------------------------------------------------------------------
    def _build_pools(
        self,
        names: Sequence[str],
        candidates: CandidateSets,
        relevant: Mapping[str, QoSProperty],
    ) -> Dict[str, List[_Candidate]]:
        tables = candidates.tables(tuple(relevant))
        pools: Dict[str, List[_Candidate]] = {}
        for name in names:
            pool: List[_Candidate] = []
            for index, service in enumerate(candidates[name]):
                row = tables[name].rows[index]
                for (pname, prop), value in zip(relevant.items(), row):
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
                pool.append(_Candidate(index, service, row))
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
        checks = list(zip(relevant.values(), natural.values()))

        kept: Dict[str, List[_Candidate]] = {}
        dropped_total = 0
        for name, pool in pools.items():
            survivors: List[_Candidate] = []
            for cand in pool:
                dominated = False
                for earlier in survivors:
                    if self._weakly_dominates(earlier, cand, checks):
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
        checks: Sequence[Tuple[QoSProperty, bool]],
    ) -> bool:
        """``a`` at least as good as ``b`` on every relevant property
        (``checks``: each property and whether its direction is natural)."""
        for (prop, natural), va, vb in zip(checks, a.row, b.row):
            if va == vb:
                continue
            if not natural:
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
                    if search.satisfiable(
                        search.aggregation.bounds(extremes, {name: cand.row})
                    )
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
        request: UserRequest,
        names: Sequence[str],
        aggregation: CompiledAggregation,
        normalizer,
        weights: Mapping[str, float],
        stats: SelectionStatistics,
        max_nodes: int,
    ) -> None:
        self.request = request
        self.names = list(names)
        self.aggregation = aggregation
        self.relevant = aggregation.properties
        self.position = {name: i for i, name in enumerate(self.relevant)}
        self.normalizer = normalizer
        self.weights = dict(weights)
        self.terms = normalizer.terms(weights, tuple(self.relevant))
        self.stats = stats
        self.max_nodes = max_nodes

    # -- bounds --------------------------------------------------------
    def pool_extremes(
        self, pools: Mapping[str, List[_Candidate]]
    ) -> Dict[str, Tuple[Row, Row]]:
        """activity -> ``(low, high)`` rows over what is left of its pool."""
        return {
            name: pool_bounds(name, [cand.row for cand in pool], self.relevant)
            for name, pool in pools.items()
        }

    def satisfiable(self, bounds: Tuple[Row, Row]) -> bool:
        """Whether some completion within ``bounds`` can still satisfy
        every constraint."""
        low, high = bounds
        for constraint in self.request.constraints:
            # A constraint on a property outside the relevant set never
            # occurs via UserRequest.relevant_properties; be safe.
            pos = self.position.get(constraint.property_name)
            favourable = high if constraint.operator == ">=" else low
            if pos is not None and not constraint.satisfied_by(favourable[pos]):
                return False
        return True

    def utility_bound(self, bounds: Tuple[Row, Row]) -> float:
        """Upper bound on the composition utility of any completion within
        ``bounds``: each property's favourable bound, scored by
        :func:`row_utility` as a completion's aggregate row is, so float
        monotonicity guarantees ``bound >= utility(completion)``
        bit-for-bit."""
        low, high = bounds
        return row_utility([
            hi if prop.direction is Direction.POSITIVE else lo
            for prop, lo, hi in zip(self.relevant.values(), low, high)
        ], self.terms)

    # -- the search ----------------------------------------------------
    def run(
        self,
        pools: Mapping[str, List[_Candidate]],
        enforce_constraints: bool,
    ) -> Optional[_Scored]:
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
        # solo SAW score against the global normaliser: higher first finds
        # strong incumbents early, never changes the optimum), index
        # tie-break.
        ordered: Dict[str, List[_Candidate]] = {}
        for name, pool in pools.items():
            ordered[name] = sorted(
                pool,
                key=lambda cand: (-row_utility(cand.row, self.terms), cand.index),
            )
        min_index: Dict[str, int] = {
            name: min(cand.index for cand in pool)
            for name, pool in pools.items()
        }

        best_utility: Optional[float] = None
        best_key: Optional[Tuple[int, ...]] = None
        best_payload: Optional[_Scored] = None
        nodes = 0
        names = self.names
        depth_count = len(names)

        fixed_rows: Dict[str, Row] = {}
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
                    self.aggregation, self.request, assignment,
                    self.normalizer, self.weights,
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
            if enforce_constraints or best_utility is not None:
                bounds = self.aggregation.bounds(extremes, fixed_rows)
            if enforce_constraints and not self.satisfiable(bounds):
                self.stats.extra["pruned_infeasible"] = (
                    self.stats.extra.get("pruned_infeasible", 0.0) + 1.0
                )
                return
            if best_utility is not None:
                bound = self.utility_bound(bounds)
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
                fixed_rows[name] = cand.row
                fixed_services[name] = cand.service
                prefix_indexes.append(cand.index)
                recurse(depth + 1)
                prefix_indexes.pop()
                del fixed_rows[name]
                del fixed_services[name]

        recurse(0)
        self.stats.extra["nodes_expanded"] = (
            self.stats.extra.get("nodes_expanded", 0.0) + float(nodes)
        )
        return best_payload
