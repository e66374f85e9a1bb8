"""Shared dataclasses used across the gateway, cloud and simulator layers.

These types carry data between subsystems and deliberately hold no logic
beyond trivial derived properties, so any layer can produce or consume them
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
import numpy.typing as npt

__all__ = [
    "PacketTruth",
    "DetectionEvent",
    "DetectorLike",
    "Segment",
    "DecodeResult",
    "SceneTruth",
]


@dataclass(frozen=True)
class PacketTruth:
    """Ground truth for one packet placed into a simulated I/Q scene.

    Attributes:
        packet_id: Unique id within the scene.
        technology: Registry name of the transmitting technology
            (e.g. ``"lora"``, ``"xbee"``, ``"zwave"``).
        start: First sample index of the packet in the scene stream.
        length: Number of samples the packet occupies.
        snr_db: In-band SNR at which the packet was injected.
        payload: The transmitted MAC payload bytes.
        device_id: Identifier of the transmitting device (0 if N/A).
    """

    packet_id: int
    technology: str
    start: int
    length: int
    snr_db: float
    payload: bytes
    device_id: int = 0

    @property
    def end(self) -> int:
        """One past the last sample index of the packet."""
        return self.start + self.length


@dataclass(frozen=True)
class DetectionEvent:
    """One detection produced by a gateway packet detector.

    Attributes:
        index: Sample index at which the detector fired.
        score: Detector-specific score (normalized correlation, power
            ratio, ...). Larger is more confident.
        detector: Name of the detector that produced the event.
        technology: Technology hint if the detector knows it
            (the universal preamble detector does not, by design).
    """

    index: int
    score: float
    detector: str
    technology: str | None = None


class DetectorLike(Protocol):
    """Structural type for packet detectors.

    Anything exposing ``detect(samples) -> list[DetectionEvent]`` (the
    energy, preamble-bank and universal detectors all do) satisfies it.
    """

    def detect(
        self, samples: npt.NDArray[np.complex128]
    ) -> list[DetectionEvent]: ...


@dataclass
class Segment:
    """A slice of I/Q samples extracted around a detection.

    This is what the gateway ships to the edge or the cloud.
    """

    start: int
    samples: npt.NDArray[np.complex128]
    sample_rate: float
    detections: list[DetectionEvent] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Number of complex samples in the segment."""
        return len(self.samples)

    @property
    def end(self) -> int:
        """One past the last sample index covered by the segment."""
        return self.start + self.length

    @property
    def duration(self) -> float:
        """Segment duration in seconds."""
        return self.length / self.sample_rate


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one transmission out of a segment.

    Attributes:
        technology: Registry name of the decoded technology.
        payload: Recovered payload bytes (``None`` when decoding failed).
        ok: True when a frame was recovered and its checksum passed.
        method: How the frame was recovered: ``"direct"`` (no collision),
            ``"sic"`` (successive interference cancellation) or
            ``"kill-frequency"`` / ``"kill-css"`` / ``"kill-codes"``.
        power_db: Estimated received power of this transmission, dBFS.
        start: Estimated start sample of the frame within the segment.
    """

    technology: str
    payload: bytes | None
    ok: bool
    method: str = "direct"
    power_db: float = float("nan")
    start: int = 0


@dataclass
class SceneTruth:
    """Ground truth bundle for a whole simulated scene."""

    sample_rate: float
    n_samples: int
    noise_power: float
    packets: list[PacketTruth] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Scene duration in seconds."""
        return self.n_samples / self.sample_rate

    def collisions(self) -> list[tuple[PacketTruth, PacketTruth]]:
        """All pairs of packets that overlap in time."""
        ordered = sorted(self.packets, key=lambda p: p.start)
        pairs: list[tuple[PacketTruth, PacketTruth]] = []
        for i, first in enumerate(ordered):
            for second in ordered[i + 1 :]:
                if second.start >= first.end:
                    break
                pairs.append((first, second))
        return pairs
