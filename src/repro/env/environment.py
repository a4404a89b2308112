"""The pervasive environment: devices + network + registry + churn.

:class:`PervasiveEnvironment` is the world the middleware operates in.  It
owns the service registry, hosts services on devices, steps the wireless
fluctuation processes and the churn model on the simulated clock, and —
crucially — provides the :meth:`invoke` implementation the execution engine
uses: the QoS *observed* for an invocation is the advertised QoS distorted
by the current infrastructure state (device slowdown, link latency and
loss), which is exactly how end-to-end QoS fluctuation arises in the
paper's model (Ch. III's cross-layer dependencies, §V.1's adaptation
motivation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import EnvironmentError_
from repro.observability import core as observability_core
from repro.qos.values import QoSVector
from repro.resilience.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RUNTIME_KINDS,
)
from repro.services.description import ServiceDescription
from repro.services.registry import ServiceRegistry
from repro.execution.clock import SimulatedClock
from repro.env.device import Device, DeviceClass
from repro.env.network import WirelessLink, WirelessNetwork


@dataclass(frozen=True)
class EnvironmentConfig:
    """Churn and distortion knobs.

    ``churn_leave_rate`` / ``churn_join_rate`` are per-step probabilities
    that a random provider device leaves/rejoins; ``qos_noise`` scales the
    multiplicative noise on observed QoS values.
    """

    churn_leave_rate: float = 0.0
    churn_join_rate: float = 0.0
    qos_noise: float = 0.05
    step_seconds: float = 1.0


class PervasiveEnvironment:
    """A simulated dynamic service environment."""

    def __init__(
        self,
        config: EnvironmentConfig = EnvironmentConfig(),
        seed: int = 0,
        clock: Optional[SimulatedClock] = None,
        faults: Optional[FaultSchedule] = None,
        observability=None,
    ) -> None:
        self.config = config
        self.clock = clock if clock is not None else SimulatedClock()
        self.registry = ServiceRegistry()
        self.network = WirelessNetwork(seed=seed + 1)
        self._devices: Dict[str, Device] = {}
        self._hosting: Dict[str, str] = {}       # service_id -> device_id
        self._parked: Dict[str, ServiceDescription] = {}  # withdrawn by churn
        self._rng = random.Random(seed)
        self.obs = observability_core.resolve(observability)
        self._pending_faults: List[FaultEvent] = []   # sorted, not yet due
        self._active_windows: List[FaultEvent] = []
        if faults is not None:
            self.schedule_faults(faults)

    def attach_observability(self, observability) -> None:
        """Point the environment's counters at a live registry."""
        self.obs = observability_core.resolve(observability)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_device(
        self,
        device_id: str,
        device_class: DeviceClass = DeviceClass.SMARTPHONE,
        link: Optional[WirelessLink] = None,
    ) -> Device:
        if device_id in self._devices:
            raise EnvironmentError_(f"device {device_id!r} already present")
        device = Device(device_id, device_class)
        self._devices[device_id] = device
        self.network.attach(device_id, link)
        return device

    def device(self, device_id: str) -> Device:
        try:
            return self._devices[device_id]
        except KeyError:
            raise EnvironmentError_(f"unknown device {device_id!r}") from None

    def devices(self) -> List[Device]:
        return list(self._devices.values())

    def host(self, service: ServiceDescription, device_id: str) -> ServiceDescription:
        """Publish a service as hosted by one of the environment's devices."""
        device = self.device(device_id)
        service.host_device = device.device_id
        self.registry.publish(service)
        self._hosting[service.service_id] = device_id
        return service

    def host_on_new_device(
        self,
        service: ServiceDescription,
        device_class: DeviceClass = DeviceClass.SMARTPHONE,
    ) -> ServiceDescription:
        device_id = f"dev-{service.service_id}"
        self.add_device(device_id, device_class)
        return self.host(service, device_id)

    def hosting_device(self, service_id: str) -> Optional[Device]:
        device_id = self._hosting.get(service_id)
        return self._devices.get(device_id) if device_id else None

    # ------------------------------------------------------------------
    # liveness and invocation
    # ------------------------------------------------------------------
    def is_alive(self, service: ServiceDescription) -> bool:
        if service.service_id not in self.registry:
            return False
        device = self.hosting_device(service.service_id)
        return device is None or device.alive

    def invoke(
        self, service: ServiceDescription, timestamp: float
    ) -> Optional[QoSVector]:
        """The :data:`~repro.execution.engine.Invoker` of this environment.

        Returns observed QoS, or None when the invocation fails (service
        gone, device dead or partitioned, packet loss, a flaky-fault
        window, or the availability lottery).
        """
        # Fault events due by this invocation's timestamp take effect even
        # mid-composition: the engine advances the shared clock between
        # invocations without stepping the environment.
        self._apply_due_faults(timestamp)
        if not self.is_alive(service):
            return None

        device = self.hosting_device(service.service_id)
        if device is not None and self._partitioned(device.device_id, timestamp):
            return None
        link = (
            self.network.link(device.device_id)
            if device is not None and self.network.has_link(device.device_id)
            else None
        )

        advertised = service.advertised_qos
        # An absent availability advertisement means "assume available";
        # an advertised 0.0 means *never* available and must stay 0.0.
        availability = advertised.get("availability")
        if availability is None:
            availability = 1.0
        if self._rng.random() > availability:
            return None
        flaky = self._flaky_probability(service.service_id, timestamp)
        if flaky > 0.0 and self._rng.random() < flaky:
            return None
        if link is not None and self._rng.random() < link.loss_rate.value:
            return None

        spike = self._latency_factor(
            service.service_id,
            device.device_id if device is not None else None,
            timestamp,
        )
        observed: Dict[str, float] = {}
        for name in advertised:
            value = advertised[name]
            noise = 1.0 + self._rng.gauss(0.0, self.config.qos_noise)
            value *= max(noise, 0.0)
            if name == "response_time":
                if device is not None:
                    value *= device.slowdown()
                if link is not None:
                    value += link.transfer_seconds(4096) * 1000.0  # ms
                value *= spike
            observed[name] = value
        if device is not None:
            response_ms = observed.get("response_time", 50.0)
            device.drain(response_ms / 1000.0, active_fraction=1.0)
        return QoSVector(observed, advertised.properties())

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def step(self, steps: int = 1) -> None:
        """Advance the environment: links fluctuate, batteries drain,
        churn happens, and due fault-schedule events replay."""
        for _ in range(steps):
            self.network.step()
            for device in self._devices.values():
                device.drain(self.config.step_seconds, active_fraction=0.05)
            self._churn()
            self.clock.advance(self.config.step_seconds)
            self._apply_due_faults(self.clock.now())

    def _churn(self) -> None:
        if self.config.churn_leave_rate > 0 and self.registry.services():
            if self._rng.random() < self.config.churn_leave_rate:
                victim = self._rng.choice(self.registry.services())
                self.registry.withdraw(victim.service_id)
                self._parked[victim.service_id] = victim
        if self.config.churn_join_rate > 0 and self._parked:
            if self._rng.random() < self.config.churn_join_rate:
                service_id = self._rng.choice(list(self._parked))
                self.registry.publish(self._parked.pop(service_id))

    def degrade_link(self, device_id: str, fraction: float = 0.5) -> None:
        """Inject a mobility event: the device's connectivity drops."""
        self.network.link(device_id).degrade(fraction)

    def kill_service(self, service_id: str) -> None:
        """Make one provider vanish outright (failure injection).

        Kills *only* the service: co-hosted services and the hosting device
        stay up.  Use :meth:`kill_device` for the device-crash case.
        """
        if service_id in self.registry:
            self.registry.withdraw(service_id)
        # A parked (churn-withdrawn) service that is killed must not rejoin.
        self._parked.pop(service_id, None)

    def kill_device(self, device_id: str) -> None:
        """Crash a device — every service it hosts dies with it."""
        if device_id in self._devices:
            self._devices[device_id].online = False

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def schedule_faults(self, schedule: FaultSchedule) -> None:
        """Queue a fault schedule for deterministic replay.

        Composable: scheduling again merges the new events with whatever
        is still pending (already-applied events are never re-applied).
        """
        self._pending_faults = sorted(
            self._pending_faults + list(schedule), key=lambda e: e.at
        )

    @property
    def pending_faults(self) -> List[FaultEvent]:
        return list(self._pending_faults)

    def active_fault_windows(self, now: Optional[float] = None) -> List[FaultEvent]:
        now = self.clock.now() if now is None else now
        return [e for e in self._active_windows if e.active(now)]

    def _apply_due_faults(self, now: float) -> None:
        while self._pending_faults and self._pending_faults[0].at <= now:
            event = self._pending_faults.pop(0)
            if event.kind in RUNTIME_KINDS:
                # Runtime fault domains belong to the runtime's ChaosPolicy,
                # not the environment — skip them so a mixed schedule can be
                # handed to both layers safely.
                self.obs.counter(
                    "faults_runtime_skipped_total", kind=event.kind.value
                ).inc()
                continue
            self.obs.counter(
                "faults_injected_total", kind=event.kind.value
            ).inc()
            if event.kind is FaultKind.KILL_SERVICE:
                self.kill_service(event.target)
            elif event.kind is FaultKind.KILL_DEVICE:
                self.kill_device(event.target)
            elif event.kind is FaultKind.DEGRADE_LINK:
                if self.network.has_link(event.target):
                    self.network.link(event.target).degrade(event.fraction)
            else:  # window kinds are consulted per invocation
                self._active_windows.append(event)
        if self._active_windows:
            self._active_windows = [
                e for e in self._active_windows if e.until > now
            ]

    def _partitioned(self, device_id: str, now: float) -> bool:
        return any(
            e.kind is FaultKind.PARTITION
            and e.target == device_id
            and e.active(now)
            for e in self._active_windows
        )

    def _flaky_probability(self, service_id: str, now: float) -> float:
        probability = 0.0
        for e in self._active_windows:
            if (
                e.kind is FaultKind.FLAKY_WINDOW
                and e.target == service_id
                and e.active(now)
            ):
                probability = max(probability, e.fail_probability)
        return probability

    def _latency_factor(
        self, service_id: str, device_id: Optional[str], now: float
    ) -> float:
        factor = 1.0
        for e in self._active_windows:
            if (
                e.kind is FaultKind.LATENCY_SPIKE
                and e.target in (service_id, device_id)
                and e.active(now)
            ):
                factor *= e.factor
        return factor
