"""Devices of a pervasive environment.

Pervasive computing's third key feature (§I.1) is the reliance on
resource-constrained devices.  A :class:`Device` models the resources that
matter for end-to-end QoS: CPU capacity (slows hosted services down when
loaded), memory, and battery (drains with activity; a dead device takes its
services with it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import EnvironmentError_


class DeviceClass(enum.Enum):
    """Coarse device profiles with characteristic resource envelopes."""

    SERVER = "server"            # fixed infrastructure (hospital platform)
    LAPTOP = "laptop"
    SMARTPHONE = "smartphone"
    SENSOR = "sensor"            # severely constrained


#: (cpu_factor, memory_mb, battery_wh, idle_drain_w, active_drain_w)
_PROFILES = {
    DeviceClass.SERVER: (4.0, 16384, float("inf"), 0.0, 0.0),
    DeviceClass.LAPTOP: (2.0, 8192, 60.0, 2.0, 8.0),
    DeviceClass.SMARTPHONE: (1.0, 2048, 12.0, 0.2, 1.5),
    DeviceClass.SENSOR: (0.25, 64, 2.0, 0.02, 0.3),
}


@dataclass
class Device:
    """One networked device hosting zero or more services."""

    device_id: str
    device_class: DeviceClass = DeviceClass.SMARTPHONE
    cpu_factor: float = field(init=False)
    memory_mb: float = field(init=False)
    battery_wh: float = field(init=False)
    battery_remaining_wh: float = field(init=False)
    cpu_load: float = 0.0            # [0, 1]
    online: bool = True

    def __post_init__(self) -> None:
        cpu, memory, battery, self._idle_drain, self._active_drain = _PROFILES[
            self.device_class
        ]
        self.cpu_factor = cpu
        self.memory_mb = memory
        self.battery_wh = battery
        self.battery_remaining_wh = battery

    # ------------------------------------------------------------------
    @property
    def battery_level(self) -> float:
        """Remaining battery in [0, 1]; mains-powered devices report 1."""
        if self.battery_wh == float("inf"):
            return 1.0
        if self.battery_wh <= 0:
            return 0.0
        return max(0.0, min(1.0, self.battery_remaining_wh / self.battery_wh))

    @property
    def alive(self) -> bool:
        return self.online and self.battery_level > 0.0

    def slowdown(self) -> float:
        """Multiplier applied to hosted services' execution time.

        A loaded or slow device stretches response times: base 1/cpu_factor,
        amplified up to 3x as cpu_load approaches saturation.
        """
        load_penalty = 1.0 + 2.0 * min(max(self.cpu_load, 0.0), 1.0)
        return load_penalty / self.cpu_factor

    def drain(self, seconds: float, active_fraction: float = 0.0) -> None:
        """Consume battery over a simulated period."""
        if seconds < 0:
            raise EnvironmentError_(f"cannot drain for {seconds} s")
        if self.battery_wh == float("inf"):
            return
        watts = (
            self._idle_drain * (1.0 - active_fraction)
            + self._active_drain * active_fraction
        )
        self.battery_remaining_wh = max(
            0.0, self.battery_remaining_wh - watts * seconds / 3600.0
        )
        if self.battery_remaining_wh == 0.0:
            self.online = False

    def recharge(self) -> None:
        self.battery_remaining_wh = self.battery_wh
        self.online = True

    def __repr__(self) -> str:
        return (
            f"Device({self.device_id!r}, {self.device_class.value}, "
            f"battery={self.battery_level:.0%}, "
            f"{'up' if self.alive else 'down'})"
        )
