"""SAW utility computation (§IV.2.1, the ``f_{s_{i,k}}`` and ``F_{C_v}``
functions).

QASSA and the baselines all score services and compositions with the Simple
Additive Weighting (SAW) technique:

1. each property value is min-max normalised against the population's
   extremes, oriented so 1 is always *good* (direction-aware);
2. normalised dimensions are combined with the user's preference weights.

Two normaliser scopes exist:

* a **local** normaliser per activity, built from that activity's candidate
  set — scores individual services (local selection phase);
* a **global** normaliser, built from the aggregation bounds of the whole
  task — scores aggregated composition QoS (global phase, optimality
  measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import QoSModelError
from repro.qos.properties import Direction, QoSProperty
from repro.qos.values import QoSVector


@dataclass(frozen=True)
class _Span:
    low: float
    high: float

    @property
    def width(self) -> float:
        return self.high - self.low


class Normalizer:
    """Direction-aware min-max normalisation over a property population."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        spans: Mapping[str, Tuple[float, float]],
    ) -> None:
        self._properties = dict(properties)
        self._spans: Dict[str, _Span] = {}
        for name, (low, high) in spans.items():
            if high < low:
                raise QoSModelError(
                    f"normaliser span for {name!r} is inverted: ({low}, {high})"
                )
            self._spans[name] = _Span(low, high)

    @classmethod
    def from_vectors(
        cls,
        vectors: Iterable[QoSVector],
        properties: Mapping[str, QoSProperty],
    ) -> "Normalizer":
        """Build spans from an observed population (candidate set)."""
        lows: Dict[str, float] = {}
        highs: Dict[str, float] = {}
        for vector in vectors:
            for name in properties:
                if name not in vector:
                    continue
                value = vector[name]
                lows[name] = min(lows.get(name, value), value)
                highs[name] = max(highs.get(name, value), value)
        spans = {
            name: (lows.get(name, properties[name].value_range[0]),
                   highs.get(name, properties[name].value_range[1]))
            for name in properties
        }
        return cls(properties, spans)

    @property
    def properties(self) -> Tuple[str, ...]:
        """Names of the properties this normaliser spans, in build order."""
        return tuple(self._spans)

    def span(self, name: str) -> Tuple[float, float]:
        s = self._spans[name]
        return (s.low, s.high)

    def scales(self) -> Dict[str, float]:
        """Per-property spans (max - min), for Euclidean distances."""
        return {name: s.width for name, s in self._spans.items()}

    def normalise(self, name: str, value: float) -> float:
        """Map a raw value to [0, 1] with 1 = best.

        Values outside the span are clipped; a degenerate span (all
        candidates equal) normalises to 1.0 since no candidate is worse than
        another on that dimension.
        """
        span = self._spans.get(name)
        prop = self._properties.get(name)
        if span is None or prop is None:
            raise QoSModelError(f"no normalisation span for property {name!r}")
        if span.width <= 0:
            return 1.0
        if prop.direction is Direction.NEGATIVE:
            score = (span.high - value) / span.width
        else:
            score = (value - span.low) / span.width
        return min(max(score, 0.0), 1.0)

    def normalise_vector(self, vector: QoSVector) -> Dict[str, float]:
        return {
            name: self.normalise(name, vector[name])
            for name in self._spans
            if name in vector
        }


def service_utility(
    vector: QoSVector,
    normalizer: Normalizer,
    weights: Mapping[str, float],
) -> float:
    """SAW utility ``f_s`` of one service's QoS vector in [0, 1].

    Properties missing from the vector score 0 (a service that does not
    advertise a property the user cares about gives no guarantee).
    """
    total = 0.0
    for name, weight in weights.items():
        value = vector.get(name)
        if value is None:
            continue
        total += weight * normalizer.normalise(name, value)
    return total


def point_utility(point: Mapping[str, float], weights: Mapping[str, float]) -> float:
    """SAW utility of a point :meth:`Normalizer.normalise_vector` returned.

    The same terms, summed in the same order, as :func:`service_utility`
    over the vector the point came from (when every weighted property has
    a span), so a cache of normalised points can be scored under any
    weights without normalising again.
    """
    total = 0.0
    for name, weight in weights.items():
        score = point.get(name)
        if score is None:
            continue
        total += weight * score
    return total


def composition_utility(
    aggregated: QoSVector,
    normalizer: Normalizer,
    weights: Mapping[str, float],
) -> float:
    """SAW utility ``F_Cv`` of an aggregated composition QoS vector.

    Identical mechanics to :func:`service_utility`; kept separate so call
    sites document whether they score a service or a composition, and so the
    two can diverge (e.g. penalty terms) without touching callers.
    """
    return service_utility(aggregated, normalizer, weights)
