"""Energy and battery-life accounting.

Tracks transmission energy per device and converts it into the
battery-life numbers the paper's motivation cites: collisions that force
retransmissions multiply the transmit energy, which dominates the budget
of a duty-cycled device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .device import Device

__all__ = ["EnergyLedger"]


@dataclass
class EnergyLedger:
    """Cumulative per-device energy bookkeeping.

    Attributes:
        tx_energy_j: Transmit energy spent, per device id.
        tx_time_s: Airtime spent transmitting, per device id.
        elapsed_s: Wall-clock simulated time.
    """

    tx_energy_j: dict[int, float] = field(default_factory=dict)
    tx_time_s: dict[int, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def record_tx(self, device: Device, airtime_s: float) -> None:
        """Charge one transmission to a device's battery."""
        if airtime_s < 0:
            raise ConfigurationError("airtime_s must be >= 0")
        energy = device.energy.tx_energy(airtime_s)
        self.tx_energy_j[device.device_id] = (
            self.tx_energy_j.get(device.device_id, 0.0) + energy
        )
        self.tx_time_s[device.device_id] = (
            self.tx_time_s.get(device.device_id, 0.0) + airtime_s
        )

    def advance(self, seconds: float) -> None:
        """Advance simulated time (for sleep-power accounting)."""
        if seconds < 0:
            raise ConfigurationError("seconds must be >= 0")
        self.elapsed_s += seconds
