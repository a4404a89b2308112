"""QoS property definitions.

A :class:`QoSProperty` ties together the pieces the rest of the middleware
needs to reason about one quality dimension:

* a concept URI anchoring the property in the QoS ontologies,
* a *direction* (whether larger values are better or worse for the user),
* the *aggregation kind* determining how values compose over patterns
  (Table IV.1 of the paper: additive, multiplicative, min/max...),
* a measurement unit and a plausible value range (used by workload
  generators and utility normalisation).

The module also declares the standard property set used throughout the
paper's evaluation: response time, cost, availability, reliability,
throughput, reputation, security level and energy consumption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import QoSModelError
from repro.qos import units as u
from repro.qos.units import Unit


class Direction(enum.Enum):
    """Whether a QoS property is to be minimised or maximised.

    ``NEGATIVE`` properties (response time, cost...) hurt the user as they
    grow; ``POSITIVE`` properties (availability, throughput...) help.
    """

    NEGATIVE = "negative"   # lower is better
    POSITIVE = "positive"   # higher is better

    def better(self, a: float, b: float) -> bool:
        """True when value ``a`` is strictly better than ``b``."""
        return a < b if self is Direction.NEGATIVE else a > b

    def best(self, values) -> float:
        """The best value of an iterable under this direction."""
        return min(values) if self is Direction.NEGATIVE else max(values)

    def worst(self, values) -> float:
        """The worst value of an iterable under this direction."""
        return max(values) if self is Direction.NEGATIVE else min(values)


class AggregationKind(enum.Enum):
    """How a property composes along a *sequence* of services (Table IV.1).

    The full per-pattern formulas live in
    :mod:`repro.composition.aggregation`; the kind recorded here picks the
    formula family.
    """

    ADDITIVE = "additive"             # e.g. response time, cost, energy
    MULTIPLICATIVE = "multiplicative"  # e.g. availability, reliability
    MIN = "min"                        # e.g. throughput (bottleneck)
    MAX = "max"                        # e.g. worst-case security exposure
    AVERAGE = "average"                # e.g. reputation


@dataclass(frozen=True)
class QoSProperty:
    """One quality dimension of services/infrastructure.

    ``value_range`` bounds plausible raw values; it is used for SAW utility
    normalisation fallback and by the synthetic workload generator, not for
    validation of observed values (run-time QoS may exceed it).
    """

    name: str
    uri: str
    direction: Direction
    aggregation: AggregationKind
    unit: Unit
    value_range: Tuple[float, float] = (0.0, 1.0)
    description: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.value_range
        if not lo < hi:
            raise QoSModelError(
                f"property {self.name!r}: empty value range {self.value_range}"
            )

    def better(self, a: float, b: float) -> bool:
        return self.direction.better(a, b)

    def __str__(self) -> str:
        return self.name


RESPONSE_TIME = QoSProperty(
    name="response_time",
    uri="sqos:ResponseTime",
    direction=Direction.NEGATIVE,
    aggregation=AggregationKind.ADDITIVE,
    unit=u.MILLISECONDS,
    value_range=(5.0, 2000.0),
    description="Elapsed time between service invocation and response.",
)

COST = QoSProperty(
    name="cost",
    uri="sqos:Cost",
    direction=Direction.NEGATIVE,
    aggregation=AggregationKind.ADDITIVE,
    unit=u.EURO,
    value_range=(0.0, 100.0),
    description="Monetary price charged for one service execution.",
)

AVAILABILITY = QoSProperty(
    name="availability",
    uri="sqos:Availability",
    direction=Direction.POSITIVE,
    aggregation=AggregationKind.MULTIPLICATIVE,
    unit=u.RATIO,
    value_range=(0.5, 1.0),
    description="Probability that the service is up and reachable.",
)

RELIABILITY = QoSProperty(
    name="reliability",
    uri="sqos:Reliability",
    direction=Direction.POSITIVE,
    aggregation=AggregationKind.MULTIPLICATIVE,
    unit=u.RATIO,
    value_range=(0.5, 1.0),
    description="Probability that an invocation completes correctly.",
)

THROUGHPUT = QoSProperty(
    name="throughput",
    uri="sqos:Throughput",
    direction=Direction.POSITIVE,
    aggregation=AggregationKind.MIN,
    unit=u.REQUESTS_PER_SECOND,
    value_range=(1.0, 500.0),
    description="Sustained request rate the service can absorb.",
)

REPUTATION = QoSProperty(
    name="reputation",
    uri="sqos:Reputation",
    direction=Direction.POSITIVE,
    aggregation=AggregationKind.AVERAGE,
    unit=u.SCORE,
    value_range=(0.0, 5.0),
    description="Average user rating of the service provider.",
)

SECURITY_LEVEL = QoSProperty(
    name="security_level",
    uri="sqos:SecurityLevel",
    direction=Direction.POSITIVE,
    aggregation=AggregationKind.MIN,
    unit=u.SCORE,
    value_range=(0.0, 5.0),
    description="Ordinal strength of the security mechanisms applied.",
)

ENERGY = QoSProperty(
    name="energy",
    uri="iqos:EnergyConsumption",
    direction=Direction.NEGATIVE,
    aggregation=AggregationKind.ADDITIVE,
    unit=u.JOULE,
    value_range=(0.1, 50.0),
    description="Device energy drawn by one service execution.",
)

#: The standard property set used by the paper's evaluation workloads.
STANDARD_PROPERTIES: Dict[str, QoSProperty] = {
    p.name: p
    for p in (
        RESPONSE_TIME,
        COST,
        AVAILABILITY,
        RELIABILITY,
        THROUGHPUT,
        REPUTATION,
        SECURITY_LEVEL,
        ENERGY,
    )
}


def property_by_name(name: str) -> QoSProperty:
    """Look a standard property up by name; raises for unknown names."""
    try:
        return STANDARD_PROPERTIES[name]
    except KeyError:
        raise QoSModelError(f"unknown standard QoS property: {name!r}") from None
