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
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Mapping, Sequence as Seq

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


class AggregationApproach(enum.Enum):
    """How run-time-unknown patterns are resolved (§VI.3.2.1)."""

    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"
    MEAN = "mean"


def _is_time_like(prop: QoSProperty) -> bool:
    return prop.unit.dimension == "time"


def _sequence(kind: AggregationKind, values: Seq[float]) -> float:
    if kind is AggregationKind.ADDITIVE:
        return sum(values)
    if kind is AggregationKind.MULTIPLICATIVE:
        return math.prod(values)
    if kind is AggregationKind.MIN:
        return min(values)
    if kind is AggregationKind.MAX:
        return max(values)
    if kind is AggregationKind.AVERAGE:
        return sum(values) / len(values)
    raise AggregationError(f"unknown aggregation kind: {kind!r}")


def _parallel(prop: QoSProperty, values: Seq[float]) -> float:
    kind = prop.aggregation
    if kind is AggregationKind.ADDITIVE:
        return max(values) if _is_time_like(prop) else sum(values)
    # All remaining kinds behave as in a sequence: availability of an
    # AND-join still multiplies, throughput is still the bottleneck...
    return _sequence(kind, values)


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
    body_value: float,
    max_iterations: int,
    mean_iterations: float,
    approach: AggregationApproach,
) -> float:
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
    if isinstance(node, Leaf):
        name = node.activity.name
        try:
            return activity_values[name]
        except KeyError:
            raise AggregationError(
                f"no value of {prop.name!r} for activity {name!r}"
            ) from None
    if isinstance(node, Sequence):
        values = [
            aggregate_values(prop, child, activity_values, approach)
            for child in node.members
        ]
        return _sequence(prop.aggregation, values)
    if isinstance(node, Parallel):
        values = [
            aggregate_values(prop, child, activity_values, approach)
            for child in node.branches
        ]
        return _parallel(prop, values)
    if isinstance(node, Conditional):
        values = [
            aggregate_values(prop, child, activity_values, approach)
            for child in node.branches
        ]
        return _conditional(prop, values, node.branch_probabilities(), approach)
    if isinstance(node, Loop):
        body = aggregate_values(prop, node.body, activity_values, approach)
        return _loop(prop, body, node.max_iterations, node.mean_iterations(), approach)
    raise AggregationError(f"unknown pattern node: {type(node).__name__}")


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
    values: Dict[str, float] = {}
    for name, prop in properties.items():
        activity_values = {
            activity: vector[name]
            for activity, vector in assignments.items()
            if name in vector
        }
        values[name] = aggregate_values(prop, task.root, activity_values, approach)
    return QoSVector(values, dict(properties))


def aggregation_bounds(
    task: Task,
    prop: QoSProperty,
    per_activity_extremes: Mapping[str, tuple],
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
) -> tuple:
    """(best, worst) achievable aggregate for one property.

    ``per_activity_extremes`` maps activity names to ``(best, worst)`` raw
    values over that activity's candidate set.  The bounds feed utility
    normalisation of aggregated QoS and the feasibility pre-check of QASSA's
    global phase.
    """
    best = aggregate_values(
        prop,
        task.root,
        {a: extremes[0] for a, extremes in per_activity_extremes.items()},
        approach,
    )
    worst = aggregate_values(
        prop,
        task.root,
        {a: extremes[1] for a, extremes in per_activity_extremes.items()},
        approach,
    )
    return best, worst
