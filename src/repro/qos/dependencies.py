"""Cross-layer QoS estimation (Chapter III's end-to-end dependencies).

The Infrastructure QoS ontology records *which* service-level properties
depend on *which* infrastructure properties (``sqos:ResponseTime dependsOn
iqos:NetworkLatency`` ...).  This module makes those facts operational: a
:class:`CrossLayerEstimator` reads the current infrastructure state of the
hosting device and link from a
:class:`~repro.env.environment.PervasiveEnvironment` and corrects a
service's *advertised* QoS into an *expected effective* QoS:

* ``response_time`` — stretched by the device's CPU slowdown and increased
  by the link's expected transfer time;
* ``availability`` — scaled by host liveness and (low-battery) risk;
* ``reliability`` — scaled by the link's loss rate;
* ``throughput`` — capped by the link bandwidth.

:class:`InfrastructureAwareDiscovery` plugs the estimator into QoS-aware
discovery, so candidates are filtered and ranked on what the environment
can actually deliver right now — advertised claims alone systematically
overestimate QoS on degraded links (the gap that otherwise only surfaces as
run-time adaptation triggers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.services.discovery import (
    DiscoveryMatch,
    DiscoveryQuery,
    QoSAwareDiscovery,
)
from repro.env.environment import PervasiveEnvironment

#: Average request payload assumed when estimating transfer time, in bytes.
DEFAULT_PAYLOAD_BYTES = 4096

#: Battery level under which availability is discounted (the device may die
#: before the composition completes).
LOW_BATTERY_THRESHOLD = 0.2


@dataclass(frozen=True)
class EstimationBreakdown:
    """Why an estimate differs from the advertisement (for diagnostics)."""

    device_slowdown: float = 1.0
    link_transfer_ms: float = 0.0
    liveness_factor: float = 1.0
    loss_factor: float = 1.0
    bandwidth_cap: Optional[float] = None


class CrossLayerEstimator:
    """Estimates effective service QoS from infrastructure state."""

    def __init__(
        self,
        environment: PervasiveEnvironment,
        payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    ) -> None:
        self.environment = environment
        self.payload_bytes = payload_bytes

    # ------------------------------------------------------------------
    def breakdown(self, service: ServiceDescription) -> EstimationBreakdown:
        """The infrastructure factors currently applying to one service."""
        device = self.environment.hosting_device(service.service_id)
        link = None
        if device is not None and self.environment.network.has_link(
            device.device_id
        ):
            link = self.environment.network.link(device.device_id)

        slowdown = device.slowdown() if device is not None else 1.0
        transfer_ms = (
            link.transfer_seconds(self.payload_bytes) * 1000.0
            if link is not None
            else 0.0
        )
        liveness = 1.0
        if device is not None:
            if not device.alive:
                liveness = 0.0
            elif device.battery_level < LOW_BATTERY_THRESHOLD:
                liveness = device.battery_level / LOW_BATTERY_THRESHOLD
        loss_factor = 1.0 - link.loss_rate.value if link is not None else 1.0
        bandwidth_cap = None
        if link is not None:
            # Requests the link can carry per second at the assumed payload.
            bandwidth_cap = link.bandwidth.value / max(self.payload_bytes, 1)
        return EstimationBreakdown(
            device_slowdown=slowdown,
            link_transfer_ms=transfer_ms,
            liveness_factor=liveness,
            loss_factor=loss_factor,
            bandwidth_cap=bandwidth_cap,
        )

    def estimate(self, service: ServiceDescription) -> QoSVector:
        """Expected effective QoS of the service, right now."""
        advertised = service.advertised_qos
        factors = self.breakdown(service)
        values: Dict[str, float] = {}
        for name in advertised:
            value = advertised[name]
            if name == "response_time":
                value = value * factors.device_slowdown + factors.link_transfer_ms
            elif name == "availability":
                value *= factors.liveness_factor
            elif name == "reliability":
                value *= factors.loss_factor
            elif name == "throughput" and factors.bandwidth_cap is not None:
                value = min(value, factors.bandwidth_cap)
            values[name] = value
        return QoSVector(values, advertised.properties())

    def estimated_service(
        self, service: ServiceDescription
    ) -> ServiceDescription:
        """A copy of the service advertising its *estimated* QoS.

        Selection algorithms consume advertised vectors; feeding them
        estimate-adjusted copies makes the whole pipeline
        infrastructure-aware without touching the algorithms.
        """
        return service.with_qos(self.estimate(service))


class InfrastructureAwareDiscovery:
    """QoS-aware discovery that filters/ranks on *estimated* QoS.

    Wraps a plain :class:`QoSAwareDiscovery`: functional (semantic)
    matching is unchanged; the QoS admissibility check and the returned
    service descriptions use cross-layer estimates.
    """

    def __init__(
        self,
        discovery: QoSAwareDiscovery,
        estimator: CrossLayerEstimator,
    ) -> None:
        self.discovery = discovery
        self.estimator = estimator

    def discover(self, query: DiscoveryQuery) -> List[DiscoveryMatch]:
        # Run functional matching without local QoS constraints, then apply
        # the constraints against estimates.
        functional_query = DiscoveryQuery(
            capability=query.capability,
            inputs=query.inputs,
            outputs=query.outputs,
            local_constraints=(),
            minimum_degree=query.minimum_degree,
        )
        matches: List[DiscoveryMatch] = []
        for match in self.discovery.discover(functional_query):
            estimated = self.estimator.estimated_service(match.service)
            admissible = all(
                (value := estimated.advertised_qos.get(c.property_name))
                is not None and c.satisfied_by(value)
                for c in query.local_constraints
            )
            if admissible:
                matches.append(DiscoveryMatch(estimated, match.degree))
        return matches

    def candidates(self, query: DiscoveryQuery) -> List[ServiceDescription]:
        return [m.service for m in self.discover(query)]
