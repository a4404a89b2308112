"""Shared types for QoS-aware selection algorithms.

Every selector (QASSA, the baselines, the distributed variant) consumes a
:class:`CandidateSets` — the per-activity candidate services discovery
produced — plus the :class:`~repro.composition.request.UserRequest`, and
produces a :class:`CompositionPlan`: one primary service per activity,
ranked alternates for dynamic binding/substitution, the aggregated QoS and
its utility, and run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import NoCandidateError, SelectionError
from repro.qos.properties import QoSProperty
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.composition.aggregation import (
    AggregationApproach,
    CompiledAggregation,
    Row,
    aggregate_composition,
)
from repro.composition.request import UserRequest
from repro.composition.task import Task
from repro.composition.utility import Normalizer, composition_utility


@runtime_checkable
class Selector(Protocol):
    """The uniform contract every selection algorithm satisfies.

    A selector turns ``(request, candidates)`` into a
    :class:`CompositionPlan`.  ``best_effort`` asks for the best
    *infeasible* plan instead of a :class:`~repro.errors.SelectionError`
    when no explored composition meets the global constraints;
    ``alternates`` asks each activity to retain that many ranked
    substitute services beyond its primary (dynamic binding /
    substitution support).  :class:`~repro.composition.qassa.QASSA`
    configures alternates through
    :attr:`~repro.composition.qassa.QassaConfig.alternates_kept` rather
    than per call, which a structural protocol accommodates — callers
    that need the knob per call use the exact/baseline selectors.
    """

    def select(
        self,
        request: UserRequest,
        candidates: "CandidateSets",
        best_effort: bool = False,
        alternates: int = 0,
    ) -> "CompositionPlan":
        """Select a composition fulfilling (or best-effort failing) the
        request."""
        ...


class CandidateSets:
    """Per-activity candidate services for one task.

    Keys are activity *names* (not capabilities — two activities may share a
    capability yet draw from differently filtered candidate pools).
    """

    def __init__(
        self,
        task: Task,
        candidates: Mapping[str, Sequence[ServiceDescription]],
    ) -> None:
        self.task = task
        self._sets: Dict[str, List[ServiceDescription]] = {}
        for activity in task.activities:
            services = list(candidates.get(activity.name, ()))
            if not services:
                raise NoCandidateError(activity.name)
            self._sets[activity.name] = services
        self._tables: Dict[Tuple[str, ...], Dict[str, PoolTable]] = {}

    def __getitem__(self, activity_name: str) -> List[ServiceDescription]:
        return self._sets[activity_name]

    def __iter__(self):
        return iter(self._sets)

    def items(self):
        return self._sets.items()

    def activity_names(self) -> List[str]:
        return list(self._sets)

    def sizes(self) -> Dict[str, int]:
        return {name: len(services) for name, services in self._sets.items()}

    def search_space(self) -> int:
        """Number of distinct full assignments (product of set sizes)."""
        total = 1
        for services in self._sets.values():
            total *= len(services)
        return total

    def tables(self, names: Tuple[str, ...]) -> Dict[str, "PoolTable"]:
        """Each activity's :class:`PoolTable` over ``names``, built once."""
        if names not in self._tables:
            self._tables[names] = {
                name: PoolTable.build(name, services, names)
                for name, services in self._sets.items()
            }
        return self._tables[names]


class PoolTable(NamedTuple):
    """One pool's values over a tuple of properties: ``rows`` holds each
    service's values in pool order (None where one is missing), ``low``
    and ``high`` each column's min and max."""

    rows: Tuple[Tuple[Optional[float], ...], ...]
    low: Row
    high: Row

    @classmethod
    def build(
        cls, activity_name: str, services: Sequence[ServiceDescription],
        names: Sequence[str],
    ) -> "PoolTable":
        """The table of ``activity_name``'s pool ``services``."""
        rows = tuple([
            tuple([s.advertised_qos.get(n) for n in names]) for s in services
        ])
        return cls(rows, *pool_bounds(activity_name, rows, names))


def pool_bounds(
    activity_name: str, rows: Sequence[Sequence], names: Sequence[str]
) -> Tuple[Row, Row]:
    """The ``(low, high)`` rows of a pool's ``rows`` over ``names``: each
    column's min and max, None skipped.  A column with no value raises
    :class:`~repro.errors.SelectionError`."""
    columns = [
        [row[i] for row in rows if row[i] is not None]
        for i in range(len(names))
    ]
    for name, values in zip(names, columns):
        if not values:
            raise SelectionError(
                f"no candidate of activity {activity_name!r} advertises "
                f"{name!r}"
            )
    return tuple(map(min, columns)), tuple(map(max, columns))


@dataclass
class SelectedActivity:
    """The selection outcome for one activity: a ranked service list.

    ``services[0]`` is the primary binding; the tail provides the alternates
    QASSA deliberately keeps for dynamic binding and substitution (§I.5).
    ``normalizer`` is the activity's local-phase normaliser when the
    selector has one (QASSA does): substitution scores fresh candidates
    with it, so they rank on the same scale as the selected services.
    """

    activity_name: str
    services: List[ServiceDescription]
    normalizer: Optional[Normalizer] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.services:
            raise SelectionError(
                f"selected activity {self.activity_name!r} has no service"
            )

    @property
    def primary(self) -> ServiceDescription:
        return self.services[0]

    @property
    def alternates(self) -> List[ServiceDescription]:
        return self.services[1:]


@dataclass
class SelectionStatistics:
    """Instrumentation of one selection run (feeds the Ch. VI figures)."""

    elapsed_seconds: float = 0.0
    utility_evaluations: int = 0
    combinations_explored: int = 0
    clustering_iterations: int = 0
    search_space: int = 0
    #: Incremental re-selection instrumentation (zero when no cache is wired):
    #: per-activity local-phase results served from / missed in the
    #: :class:`~repro.composition.selection_cache.SelectionCache`; each miss
    #: recomputes that activity's local phase.
    cache_hits: int = 0
    cache_misses: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class CompositionPlan:
    """A concrete service composition fulfilling (or failing) a request."""

    task: Task
    request: UserRequest
    selections: Dict[str, SelectedActivity]
    aggregated_qos: QoSVector
    utility: float
    feasible: bool
    approach: AggregationApproach
    statistics: SelectionStatistics = field(default_factory=SelectionStatistics)

    def binding(self) -> Dict[str, ServiceDescription]:
        """activity name -> primary service."""
        return {name: sel.primary for name, sel in self.selections.items()}

    def service_ids(self) -> Dict[str, str]:
        return {name: sel.primary.service_id for name, sel in self.selections.items()}

    def alternates_for(self, activity_name: str) -> List[ServiceDescription]:
        return self.selections[activity_name].alternates

    def rebind(self, activity_name: str, service: ServiceDescription,
               properties: Mapping[str, QoSProperty]) -> "CompositionPlan":
        """A new plan with one activity bound to a different service.

        Aggregated QoS and feasibility are recomputed; utility is left for
        the caller to refresh (it needs a normaliser).
        """
        selections = dict(self.selections)
        current = selections[activity_name]
        others = [s for s in current.services if s != service]
        selections[activity_name] = SelectedActivity(activity_name, [service] + others)
        aggregated = aggregate_composition(
            self.task,
            {name: sel.primary.advertised_qos for name, sel in selections.items()},
            dict(properties),
            self.approach,
        )
        return CompositionPlan(
            task=self.task,
            request=self.request,
            selections=selections,
            aggregated_qos=aggregated,
            utility=self.utility,
            feasible=self.request.satisfied_by(aggregated),
            approach=self.approach,
            statistics=self.statistics,
        )

    def clone(self) -> "CompositionPlan":
        """An independent copy that execution-time adaptation can mutate.

        Substitution rewrites ``selections[...].services`` and the plan's
        aggregated QoS in place, so a plan served from a cache (the
        runtime's request coalescing) must be cloned per execution.  The
        immutable leaves (task, request, services, statistics) are shared.
        """
        return CompositionPlan(
            task=self.task,
            request=self.request,
            selections={
                name: SelectedActivity(
                    sel.activity_name, list(sel.services), sel.normalizer
                )
                for name, sel in self.selections.items()
            },
            aggregated_qos=self.aggregated_qos,
            utility=self.utility,
            feasible=self.feasible,
            approach=self.approach,
            statistics=self.statistics,
        )


def relevant_properties(
    properties: Mapping[str, QoSProperty], request: UserRequest
) -> Dict[str, QoSProperty]:
    """The properties a selector reasons over for ``request``.

    The request's ``relevant_properties`` in its order, or every one of
    ``properties`` when it names none.  Raises
    :class:`~repro.errors.SelectionError` for a name ``properties`` lacks.
    """
    names = request.relevant_properties or tuple(properties)
    missing = [n for n in names if n not in properties]
    if missing:
        raise SelectionError(
            f"request refers to properties unknown to the selector: {missing}"
        )
    return {n: properties[n] for n in names}


def make_global_normalizer(
    aggregation: CompiledAggregation,
    pools: Mapping[str, Tuple[Row, Row]],
) -> Normalizer:
    """A normaliser over *aggregated* QoS, from each activity's pool
    ``(low, high)`` rows (:class:`PoolTable`'s, or QASSA's local phase's).

    Spans are the lowest and highest achievable aggregates under
    ``aggregation``; any concrete composition's aggregated QoS falls
    inside them, so utilities are comparable across selection algorithms
    (the optimality metric of §VI.3.2 depends on this).
    """
    low, high = aggregation.bounds(pools)
    return Normalizer(aggregation.properties, {
        name: (min(lo, hi), max(lo, hi))
        for name, lo, hi in zip(aggregation.properties, low, high)
    })


def global_scoring(
    properties: Mapping[str, QoSProperty],
    request: UserRequest,
    candidates: CandidateSets,
    approach: AggregationApproach,
) -> Tuple[Dict[str, float], CompiledAggregation, Normalizer]:
    """What :func:`evaluate_assignment` needs to score ``request``'s
    assignments over ``candidates``: the weights, the aggregation compiled
    over the relevant properties and the global normaliser built from
    :meth:`CandidateSets.tables`."""
    relevant = relevant_properties(properties, request)
    weights = request.normalised_weights(relevant)
    aggregation = CompiledAggregation(request.task.root, relevant, approach)
    normalizer = make_global_normalizer(aggregation, {
        name: (table.low, table.high)
        for name, table in candidates.tables(tuple(relevant)).items()
    })
    return weights, aggregation, normalizer


def evaluate_assignment(
    aggregation: CompiledAggregation,
    request: UserRequest,
    assignment: Mapping[str, ServiceDescription],
    normalizer: Normalizer,
    weights: Mapping[str, float],
) -> Tuple[QoSVector, float, bool]:
    """Aggregate + score one full activity->service assignment under
    ``aggregation`` (the request's task and relevant properties) and
    ``weights`` (``request.normalised_weights(properties)``)."""
    aggregated = aggregation.aggregate(
        {name: service.advertised_qos for name, service in assignment.items()}
    )
    utility = composition_utility(aggregated, normalizer, weights)
    return aggregated, utility, request.satisfied_by(aggregated)
