"""QoS aggregation over composition patterns (Table IV.1, §IV.2.3).

Given per-activity QoS values, aggregation computes the QoS of the whole
composition.  The formula depends on two things:

1. the property's :class:`~repro.qos.properties.AggregationKind` (additive,
   multiplicative, min, max, average), and
2. the pattern (sequence, parallel, conditional, loop).

For run-time-*unknown* patterns (conditional branches, loop iteration
counts) the paper distinguishes three **aggregation approaches**
(§VI.3.2.1, Figs. VI.7-8):

* **pessimistic** — assume the worst branch / the maximum iteration count:
  the aggregate is a guaranteed bound;
* **optimistic** — assume the best branch / a single iteration;
* **mean-value** — expectation under branch probabilities / the expected
  iteration count.

Reference formulas (sequence of k values v_1..v_k):

==============  ==========  ============  ==========  ==========
kind            sequence    parallel      conditional  loop (n iter)
==============  ==========  ============  ==========  ==========
additive-time   Σ v_i       max v_i       choose       n·v
additive-cost   Σ v_i       Σ v_i         choose       n·v
multiplicative  Π v_i       Π v_i         choose       v^n
min             min v_i     min v_i       choose       v
max             max v_i     max v_i       choose       v
average         mean v_i    mean v_i      choose       v
==============  ==========  ============  ==========  ==========

"additive-time" vs "additive-cost": durations overlap under a parallel
pattern (the composition waits for the slowest branch) whereas resources
(money, energy) are consumed by *every* branch.  The distinction is made on
the property's unit dimension.

Every aggregation runs through :class:`CompiledAggregation`, a fold over
per-activity value rows generated once per pattern tree, property tuple
and approach (:func:`_compile`, memoised); the functions below, the
selectors, substitution and plan rebinding all share those folds.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, Dict, List, Mapping, Sequence as Seq, Tuple

from repro.errors import AggregationError
from repro.qos.properties import AggregationKind, QoSProperty
from repro.qos.values import QoSVector
from repro.composition.task import (
    Conditional,
    Leaf,
    Loop,
    Node,
    Parallel,
    Sequence,
    Task,
)

#: One activity's values, in a :class:`CompiledAggregation`'s property order.
Row = Tuple[float, ...]


class AggregationApproach(enum.Enum):
    """How run-time-unknown patterns are resolved (§VI.3.2.1)."""

    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"
    MEAN = "mean"


def _mean(values: Seq[float]) -> float:
    return sum(values) / len(values)


def _formula(prop: QoSProperty, parallel: bool) -> Callable:
    """``prop``'s sequence (or parallel) formula: only additive time
    differs under a parallel, whose branches' durations overlap."""
    kind = prop.aggregation
    if kind is AggregationKind.ADDITIVE:
        return max if parallel and prop.unit.dimension == "time" else sum
    if kind is AggregationKind.MULTIPLICATIVE:
        return math.prod
    if kind is AggregationKind.MIN:
        return min
    if kind is AggregationKind.MAX:
        return max
    if kind is AggregationKind.AVERAGE:
        return _mean
    raise AggregationError(f"unknown aggregation kind: {kind!r}")


def _conditional(
    prop: QoSProperty,
    branch_values: Seq[float],
    probabilities: Seq[float],
    approach: AggregationApproach,
) -> float:
    if approach is AggregationApproach.PESSIMISTIC:
        return prop.direction.worst(branch_values)
    if approach is AggregationApproach.OPTIMISTIC:
        return prop.direction.best(branch_values)
    if len(probabilities) != len(branch_values):
        raise AggregationError(
            f"conditional mean-value aggregation of {prop.name!r} got "
            f"{len(branch_values)} branch values but "
            f"{len(probabilities)} probabilities"
        )
    total = sum(probabilities)
    if abs(total - 1.0) > 1e-6:
        raise AggregationError(
            f"conditional branch probabilities sum to {total:g}, expected 1 "
            f"(mean-value aggregation of {prop.name!r})"
        )
    return sum(p * v for p, v in zip(probabilities, branch_values))


def _loop(
    prop: QoSProperty,
    body: Seq[float],
    max_iterations: int,
    mean_iterations: float,
    approach: AggregationApproach,
) -> float:
    (body_value,) = body  # the loop's one child
    kind = prop.aggregation
    if kind is AggregationKind.ADDITIVE:
        def at(n: float) -> float:
            return n * body_value
    elif kind is AggregationKind.MULTIPLICATIVE:
        def at(n: float) -> float:
            return body_value ** n
    else:
        # MIN / MAX / AVERAGE over n copies of the same value is the value.
        return body_value
    if approach is AggregationApproach.MEAN:
        return at(mean_iterations)
    # Which iteration count is the worst/best case depends on the
    # property's direction, not the pattern: n·v grows with n, so for a
    # *positive* additive property (a reward accrued per pass) the
    # pessimistic bound is a single iteration, not max_iterations — and
    # symmetrically for multiplicative values above/below 1.  Both
    # formulas are monotone in n, so the extremes sit at the endpoints.
    extremes = (at(1.0), at(float(max_iterations)))
    if approach is AggregationApproach.PESSIMISTIC:
        return prop.direction.worst(extremes)
    return prop.direction.best(extremes)


def _formulas(
    node: Node,
    props: Seq[QoSProperty],
    approach: AggregationApproach,
) -> List[Callable[[Tuple[float, ...]], float]]:
    """A composite ``node``'s formula for each property: each takes the
    tuple of the node's children's values, in child order.

    Iteration counts and probabilities are bound as floats: trees that
    differ only in writing one as ``2`` or ``2.0`` are equal, so they
    share one fold, and must aggregate alike."""
    if isinstance(node, Loop):
        return [
            functools.partial(
                _loop, prop, max_iterations=node.max_iterations,
                mean_iterations=float(node.mean_iterations()),
                approach=approach,
            )
            for prop in props
        ]
    if isinstance(node, (Sequence, Parallel)):
        return [_formula(prop, isinstance(node, Parallel)) for prop in props]
    if isinstance(node, Conditional):
        probabilities = tuple(map(float, node.branch_probabilities()))
        return [
            functools.partial(
                _conditional, prop,
                probabilities=probabilities, approach=approach,
            )
            for prop in props
        ]
    raise AggregationError(f"unknown pattern node: {type(node).__name__}")


#: Generated folds :func:`_compile` keeps, least recently used dropped
#: first.  Selectors, substitution and plan rebinding meet the same few
#: task trees again and again; a stream of distinct trees (the fuzz
#: sweeps) keeps at most this many, about 7 KB each for a four-activity,
#: four-property tree.
FOLD_MEMO_SIZE = 256


@functools.lru_cache(maxsize=FOLD_MEMO_SIZE)
def _compile(
    node: Node,
    props: Tuple[QoSProperty, ...],
    approach: AggregationApproach,
) -> Callable[[Seq[Row]], Row]:
    """``node``'s fold, generated once per (tree, property tuple, approach):
    a function from the rows (one per activity, in document order) to the
    aggregate row.

    Row ``i`` is unpacked into ``r<i>``.  Each composite node's column is
    one statement, ``v<k> = f<m>((child values...))``, which calls the
    node's formula (:func:`_formulas`) on the tuple of its children's
    values in child order, as aggregating that property alone does, so
    every float is the same.  Statements rather than one nested expression
    keep deep trees within the parser's nesting limit.  The source holds
    only these generated names and integer indexes; the formulas reach it
    through the namespace it runs in.
    """
    activities = node.activities()
    positions = {activity.name: i for i, activity in enumerate(activities)}
    namespace: Dict[str, Callable] = {}
    lines = [
        "def fold(rows):",
        "    " + "".join(f"r{i}, " for i in range(len(activities))) + "= rows",
    ]

    def emit(node: Node) -> List[str]:
        """Append ``node``'s statements; return its column expressions."""
        if isinstance(node, Leaf):
            row = f"r{positions[node.activity.name]}"
            return [f"{row}[{j}]" for j in range(len(props))]
        formulas = _formulas(node, props, approach)
        children = [emit(child) for child in node.children()]
        columns = []
        for j, formula in enumerate(formulas):
            name = f"f{len(namespace)}"
            namespace[name] = formula
            column = f"v{len(lines)}"
            values = "".join(f"{child[j]}, " for child in children)
            lines.append(f"    {column} = {name}(({values}))")
            columns.append(column)
        return columns

    root = emit(node)
    lines.append("    return (" + "".join(f"{c}, " for c in root) + ")")
    exec(compile("\n".join(lines), "<aggregation fold>", "exec"), namespace)
    return namespace["fold"]


class CompiledAggregation:
    """Table IV.1 over one pattern tree, compiled for a tuple of
    properties and an approach: called with one :data:`Row` per activity
    (in :attr:`activities` order), it returns the aggregate row.  Each node
    applies ``sum``, ``math.prod``, ``min`` or ``max`` to the same values in
    the same order as aggregating one property alone, so the floats are
    identical on every Python version.  Equal trees share one generated
    fold (:func:`_compile`), so building one is cheap after the first.
    """

    def __init__(
        self,
        node: Node,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
    ) -> None:
        self.properties: Dict[str, QoSProperty] = dict(properties)
        self.activities: Tuple[str, ...] = tuple(
            activity.name for activity in node.activities()
        )
        self._fold = _compile(node, tuple(self.properties.values()), approach)

    def __call__(self, rows: Seq[Row]) -> Row:
        """The aggregate row of one row per activity."""
        return self._fold(rows)

    def rows(self, values: Mapping[str, Mapping[str, float]]) -> List[Row]:
        """One row per activity from ``values`` (activity -> property ->
        value, e.g. a :class:`QoSVector`); :class:`AggregationError` names
        the first missing value, by property then activity order."""
        names = tuple(self.properties)
        try:
            return [
                tuple([values[activity][name] for name in names])
                for activity in self.activities
            ]
        except KeyError:
            for name, prop in self.properties.items():
                for activity in self.activities:
                    if name not in values.get(activity, ()):
                        raise AggregationError(
                            f"no value of {prop.name!r} for activity "
                            f"{activity!r}"
                        ) from None
            raise

    def vector(self, row: Row) -> QoSVector:
        """An aggregate row as a QoS vector."""
        return QoSVector(dict(zip(self.properties, row)), self.properties)

    def aggregate(self, assignments: Mapping[str, QoSVector]) -> QoSVector:
        """The aggregate of each activity's service's QoS vector."""
        return self.vector(self(self.rows(assignments)))

    def bounds(
        self,
        pools: Mapping[str, Tuple[Row, Row]],
        fixed: Mapping[str, Row] = {},
    ) -> Tuple[Row, Row]:
        """The lowest and highest aggregate rows from each activity's
        ``(low, high)`` pool rows, or its ``fixed`` row: every formula
        folds each column on its own and is monotone in each value."""
        return tuple(
            self._fold([
                fixed[name] if name in fixed else pools[name][side]
                for name in self.activities
            ])
            for side in (0, 1)
        )


def aggregate_values(
    prop: QoSProperty,
    node: Node,
    activity_values: Mapping[str, float],
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
) -> float:
    """Aggregate one property over a pattern tree.

    ``activity_values`` maps activity names to that property's value for the
    service bound to the activity.  Raises :class:`AggregationError` when a
    value is missing.
    """
    aggregation = CompiledAggregation(node, {prop.name: prop}, approach)
    return aggregation(aggregation.rows({
        activity: {prop.name: value} for activity, value in activity_values.items()
    }))[0]


def aggregate_composition(
    task: Task,
    assignments: Mapping[str, QoSVector],
    properties: Mapping[str, QoSProperty],
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
) -> QoSVector:
    """Aggregate a full QoS vector for a composition.

    ``assignments`` maps each activity name to the QoS vector of its bound
    service (advertised or observed); the result is the composition's
    ``QoS_Cv`` vector over ``properties``.
    """
    return CompiledAggregation(task.root, properties, approach).aggregate(
        assignments
    )


def aggregation_bounds(
    task: Task,
    prop: QoSProperty,
    per_activity_extremes: Mapping[str, tuple],
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
) -> tuple:
    """(best, worst) achievable aggregate for one property, from each
    activity's ``(best, worst)`` raw values (``per_activity_extremes``)."""
    aggregation = CompiledAggregation(task.root, {prop.name: prop}, approach)
    best, worst = aggregation.bounds({
        a: ((b,), (w,)) for a, (b, w) in per_activity_extremes.items()
    })
    return best[0], worst[0]
