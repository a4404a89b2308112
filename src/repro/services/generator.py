"""Synthetic service populations (evaluation workload substrate).

The paper's experiments (Ch. VI §3.1) run against generated service sets:
each abstract activity gets N candidate services whose QoS values are drawn
from either a uniform law over the property's range or — for the
constraint-tightness experiments of Fig. VI.9-11 — the normal law
``N(m, sigma)``.  This module reproduces that generator with deterministic
seeding so every benchmark run is repeatable.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.qos.properties import QoSProperty, STANDARD_PROPERTIES
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription


class QoSDistribution(enum.Enum):
    """Law used to draw a property's value for one synthetic service."""

    UNIFORM = "uniform"
    NORMAL = "normal"


@dataclass(frozen=True)
class NormalLaw:
    """Parameters of the normal law for one property (Fig. VI.9)."""

    mean: float
    stddev: float


class ServiceGenerator:
    """Deterministic generator of synthetic service populations.

    Parameters
    ----------
    properties:
        The QoS property set every generated service advertises.
    distribution:
        Value law; UNIFORM draws over each property's ``value_range``,
        NORMAL draws from per-property :class:`NormalLaw` parameters
        (defaulting to mid-range mean, sixth-of-range stddev, clipped to the
        range so availability never exceeds 1).
    seed:
        RNG seed; identical seeds give identical populations.
    """

    #: Properties treated as the *price paid* for quality when generating
    #: tradeoff-structured populations.
    PRICE_LIKE = frozenset({"cost", "energy"})

    def __init__(
        self,
        properties: Optional[Mapping[str, QoSProperty]] = None,
        distribution: QoSDistribution = QoSDistribution.UNIFORM,
        normal_laws: Optional[Mapping[str, NormalLaw]] = None,
        seed: int = 0,
        tradeoff: float = 0.0,
    ) -> None:
        if not 0.0 <= tradeoff <= 1.0:
            raise ValueError("tradeoff must lie in [0, 1]")
        self.properties: Dict[str, QoSProperty] = dict(
            properties if properties is not None else STANDARD_PROPERTIES
        )
        self.distribution = distribution
        self.tradeoff = tradeoff
        self._rng = random.Random(seed)
        self._laws: Dict[str, NormalLaw] = {}
        for name, prop in self.properties.items():
            if normal_laws and name in normal_laws:
                self._laws[name] = normal_laws[name]
            else:
                lo, hi = prop.value_range
                self._laws[name] = NormalLaw(
                    mean=(lo + hi) / 2.0, stddev=(hi - lo) / 6.0
                )

    # ------------------------------------------------------------------
    def law(self, property_name: str) -> NormalLaw:
        """The normal-law parameters (m, sigma) used for one property."""
        return self._laws[property_name]

    def draw_value(self, prop: QoSProperty) -> float:
        """Draw one value for one property under the configured law."""
        lo, hi = prop.value_range
        if self.distribution is QoSDistribution.UNIFORM:
            return self._rng.uniform(lo, hi)
        law = self._laws[prop.name]
        value = self._rng.gauss(law.mean, law.stddev)
        return min(max(value, lo), hi)

    def draw_vector(self) -> QoSVector:
        """Draw one full QoS vector over the configured property set.

        With ``tradeoff`` > 0, a latent service *grade* g in [0, 1] couples
        the dimensions: quality properties improve with g while price-like
        properties (cost, energy) worsen — the "you get what you pay for"
        structure real markets exhibit, which keeps most candidates on the
        Pareto front.  Each value is a mix of the grade-anchored point and
        the independent law, weighted by the tradeoff strength.
        """
        if self.tradeoff <= 0.0:
            return QoSVector(
                {name: self.draw_value(prop)
                 for name, prop in self.properties.items()},
                self.properties,
            )
        grade = self._rng.random()
        values: Dict[str, float] = {}
        for name, prop in self.properties.items():
            lo, hi = prop.value_range
            quality_fraction = (
                1.0 - grade if name in self.PRICE_LIKE else grade
            )
            from repro.qos.properties import Direction

            if prop.direction is Direction.NEGATIVE:
                anchored = hi - quality_fraction * (hi - lo)
            else:
                anchored = lo + quality_fraction * (hi - lo)
            independent = self.draw_value(prop)
            values[name] = (
                self.tradeoff * anchored + (1.0 - self.tradeoff) * independent
            )
        return QoSVector(values, self.properties)

    # ------------------------------------------------------------------
    def service(
        self,
        capability: str,
        name: Optional[str] = None,
        provider: str = "synthetic",
        host_device: Optional[str] = None,
    ) -> ServiceDescription:
        """Generate one service advertising the given capability."""
        qos = self.draw_vector()
        return ServiceDescription(
            name=name or f"{capability.split(':')[-1]}-{self._rng.randrange(1 << 30):x}",
            capability=capability,
            advertised_qos=qos,
            provider=provider,
            host_device=host_device,
        )

    def candidates(
        self, capability: str, count: int, provider: str = "synthetic"
    ) -> List[ServiceDescription]:
        """Generate ``count`` functionally equivalent candidate services."""
        return [
            self.service(capability, name=f"{capability.split(':')[-1]}-{i:04d}",
                         provider=provider)
            for i in range(count)
        ]

    def population(
        self,
        capabilities: Sequence[str],
        services_per_capability: int,
    ) -> Dict[str, List[ServiceDescription]]:
        """Candidate sets for a whole task: one list per abstract activity.

        This is the exact workload shape of the Ch. VI experiments
        (``n`` activities × ``N`` services per activity).
        """
        return {
            capability: self.candidates(capability, services_per_capability)
            for capability in capabilities
        }

    def sample_values(self, property_name: str, count: int) -> List[float]:
        """Raw value samples for one property (used to plot Fig. VI.9)."""
        prop = self.properties[property_name]
        return [self.draw_value(prop) for _ in range(count)]
