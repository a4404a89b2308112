"""User requests: task + global QoS constraints + preference weights (§IV.2).

The user request ``R = (T, U, W)`` bundles:

* ``T`` — the required :class:`~repro.composition.task.Task`;
* ``U`` — global QoS constraints, bounds over the QoS of the *whole*
  composition (this is what makes selection NP-hard);
* ``W`` — preference weights over QoS properties, normalised to sum to 1,
  driving the SAW utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.errors import QoSModelError
from repro.qos.properties import Direction, QoSProperty
from repro.qos.values import QoSVector
from repro.services.discovery import QoSConstraint
from repro.composition.task import Task


class GlobalConstraint(QoSConstraint):
    """A bound on the aggregated QoS of the whole composition.

    Same shape as a local constraint; kept as a distinct type so signatures
    document which scope they operate at (§IV.4.2 of the survey chapter).
    """

    @classmethod
    def at_most(cls, property_name: str, bound: float) -> "GlobalConstraint":
        return cls(property_name, "<=", bound)

    @classmethod
    def at_least(cls, property_name: str, bound: float) -> "GlobalConstraint":
        return cls(property_name, ">=", bound)

    @classmethod
    def natural(cls, prop: QoSProperty, bound: float) -> "GlobalConstraint":
        """A constraint in the property's natural direction: an upper bound
        for negative properties (response time), a lower bound for positive
        ones (availability)."""
        op = "<=" if prop.direction is Direction.NEGATIVE else ">="
        return cls(prop.name, op, bound)


def decompose_constraint(
    constraint: QoSConstraint, prop: QoSProperty, activity_count: int
) -> QoSConstraint:
    """Split a global constraint into an equal-share per-service bound.

    Additive budgets (response time, cost) divide evenly; multiplicative
    floors (availability, reliability) take the n-th root (each of n factors
    must reach ``bound^(1/n)`` for the product to reach the bound); min/max
    bounds apply to every member unchanged (a composition can never beat its
    worst member on those).  Used to derive monitoring watch bounds and
    per-service SLAs from a user's global requirements.
    """
    from repro.qos.properties import AggregationKind

    count = max(activity_count, 1)
    if prop.aggregation is AggregationKind.ADDITIVE:
        return QoSConstraint(
            constraint.property_name, constraint.operator,
            constraint.bound / count,
        )
    if prop.aggregation is AggregationKind.MULTIPLICATIVE and constraint.bound > 0:
        return QoSConstraint(
            constraint.property_name, constraint.operator,
            constraint.bound ** (1.0 / count),
        )
    return QoSConstraint(
        constraint.property_name, constraint.operator, constraint.bound
    )


@dataclass(frozen=True)
class UserRequest:
    """The full request the middleware receives from the user's device."""

    task: Task
    constraints: Tuple[GlobalConstraint, ...] = ()
    weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights.values()):
            raise QoSModelError("preference weights must be non-negative")
        object.__setattr__(self, "weights", dict(self.weights))

    @property
    def constrained_properties(self) -> Tuple[str, ...]:
        """Property names under a global constraint, in declaration order."""
        seen = []
        for c in self.constraints:
            if c.property_name not in seen:
                seen.append(c.property_name)
        return tuple(seen)

    @property
    def relevant_properties(self) -> Tuple[str, ...]:
        """Properties the request cares about: weighted or constrained."""
        names = list(self.constrained_properties)
        for name in self.weights:
            if name not in names:
                names.append(name)
        return tuple(names)

    def normalised_weights(self, properties: Iterable[str]) -> Dict[str, float]:
        """Weights over ``properties``, filled uniformly and scaled to sum 1.

        Properties the user did not weight receive the mean declared weight
        (or 1.0 when no weights were declared at all), so every relevant
        dimension contributes to utility.
        """
        names = list(properties)
        if not names:
            raise QoSModelError("cannot normalise weights over no properties")
        declared = [self.weights[n] for n in names if n in self.weights]
        default = (sum(declared) / len(declared)) if declared else 1.0
        raw = {n: self.weights.get(n, default) for n in names}
        total = sum(raw.values())
        if total <= 0:
            return {n: 1.0 / len(names) for n in names}
        return {n: v / total for n, v in raw.items()}

    def satisfied_by(self, aggregated: Mapping[str, float]) -> bool:
        """Whether an aggregated composition QoS (a :class:`QoSVector` or a
        name -> value mapping) meets every constraint."""
        for c in self.constraints:
            value = aggregated.get(c.property_name)
            if value is None or not c.satisfied_by(value):
                return False
        return True

    def violations(self, aggregated: QoSVector) -> Dict[str, float]:
        """Map of violated constraint -> (negative) slack, for diagnostics."""
        result: Dict[str, float] = {}
        for c in self.constraints:
            value = aggregated.get(c.property_name)
            if value is None:
                result[str(c)] = float("-inf")
            elif not c.satisfied_by(value):
                result[str(c)] = c.slack(value)
        return result
