"""Backhaul link model (the gateway's home cable/Ethernet uplink).

A simple FIFO serialization model: shipments queue behind each other at
the configured rate and arrive after a fixed propagation latency. The
model answers the paper's Sec. 6 question quantitatively: raw-stream
shipping needs tens of Mbit/s forever, detect-and-ship needs bursts
proportional to channel occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CapacityError, ConfigurationError
from ..telemetry import NULL, Telemetry

__all__ = ["Shipment", "BackhaulLink"]


@dataclass(frozen=True)
class Shipment:
    """One completed transfer over the link."""

    submitted_at: float
    n_bits: int
    started_at: float
    arrived_at: float

    @property
    def delay(self) -> float:
        """Total submit-to-arrival delay in seconds."""
        return self.arrived_at - self.submitted_at


@dataclass
class BackhaulLink:
    """Rate-limited FIFO uplink.

    Attributes:
        rate_bps: Serialization rate in bit/s.
        latency_s: One-way propagation latency.
        max_queue_s: Refuse shipments once the queue backlog exceeds
            this many seconds of serialization (models a bounded buffer
            on the Raspberry Pi).
        telemetry: Metrics sink (the shared no-op by default).
    """

    rate_bps: float = 10e6
    latency_s: float = 20e-3
    max_queue_s: float = 30.0
    shipments: list[Shipment] = field(default_factory=list)
    telemetry: Telemetry = field(default=NULL, repr=False, compare=False)
    _busy_until: float = 0.0
    _last_submit: float = field(default=float("-inf"), repr=False)

    def __post_init__(self) -> None:
        # ``not (x > 0)``, not ``x <= 0``: every comparison with NaN is
        # false, and a NaN bound must fail the check, not pass it (a NaN
        # queue bound never refuses; a NaN rate or latency makes every
        # arrival time NaN). inf is a valid bound.
        if not self.rate_bps > 0:
            raise ConfigurationError("rate_bps must be positive")
        if not self.latency_s >= 0:
            raise ConfigurationError("latency_s must be >= 0")
        if not self.max_queue_s > 0:
            raise ConfigurationError("max_queue_s must be positive")

    def ship(self, n_bits: int, at_time: float) -> Shipment:
        """Submit ``n_bits`` at ``at_time``; returns the arrival record.

        Submissions must be non-decreasing in ``at_time`` (the link is a
        FIFO serialization model: a submission dated before one already
        accepted would have to rewrite history, and before this check it
        silently mis-accounted the backlog instead).

        Raises:
            CapacityError: when the queue backlog exceeds the bound.
            ConfigurationError: on negative ``n_bits`` or an ``at_time``
                earlier than an already-accepted submission.
        """
        if n_bits < 0:
            raise ConfigurationError("n_bits must be >= 0")
        if at_time < self._last_submit:
            raise ConfigurationError(
                f"non-monotonic submission: at_time {at_time:.6f}s is "
                f"before the last accepted submission "
                f"({self._last_submit:.6f}s)"
            )
        start = max(at_time, self._busy_until)
        backlog = start - at_time
        self.telemetry.gauge("backhaul.backlog_s", backlog)
        if backlog > self.max_queue_s:
            self.telemetry.count("backhaul.drops")
            raise CapacityError(
                f"backhaul backlog {backlog:.1f}s exceeds {self.max_queue_s:.1f}s"
            )
        done = start + n_bits / self.rate_bps
        self._busy_until = done
        self._last_submit = at_time
        shipment = Shipment(
            submitted_at=at_time,
            n_bits=n_bits,
            started_at=start,
            arrived_at=done + self.latency_s,
        )
        self.shipments.append(shipment)
        self.telemetry.count("backhaul.shipments")
        self.telemetry.count("backhaul.shipped_bits", n_bits)
        return shipment

    @property
    def total_bits(self) -> int:
        """All bits shipped so far."""
        return sum(s.n_bits for s in self.shipments)

    def utilization(self, over_seconds: float) -> float:
        """Average offered load as a fraction of the link rate."""
        if over_seconds <= 0:
            raise ConfigurationError("over_seconds must be positive")
        return self.total_bits / (self.rate_bps * over_seconds)
