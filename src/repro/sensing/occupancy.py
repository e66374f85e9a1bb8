"""Occupancy / motion detection from heterogeneous channel snapshots.

The insight the paper sketches: a person moving through a room changes
the multipath profile, so the per-packet channel gains of *every* IoT
device in the room shift together. Individually the devices transmit
rarely and measure noisily, but pooling snapshots across technologies
gives a usable change-point signal.

:class:`OccupancyDetector` keeps a per-device baseline (median
amplitude) and flags windows where the pooled normalized deviation
exceeds a threshold — a deliberately simple, dependency-free detector
that the example script exercises end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .features import ChannelSnapshot

__all__ = ["OccupancyEvent", "OccupancyDetector"]

#: Snapshots per device required before its measurements contribute
#: (the baseline must be established first).
MIN_BASELINE = 4


@dataclass(frozen=True)
class OccupancyEvent:
    """One detected channel-change event."""

    start_s: float
    end_s: float
    score: float
    n_snapshots: int


@dataclass
class OccupancyDetector:
    """Pooled change detection over channel snapshots.

    Attributes:
        window_s: Analysis window length.
        threshold: Pooled |z|-score above which a window is flagged.

    A device's measurements contribute once it has
    :data:`MIN_BASELINE` snapshots.
    """

    window_s: float = 5.0
    threshold: float = 2.5
    _history: dict[int, list[float]] = field(default_factory=dict)

    def _deviation(self, snap: ChannelSnapshot) -> float | None:
        """Normalized amplitude deviation against the device baseline."""
        history = self._history.setdefault(snap.device_id, [])
        if len(history) < MIN_BASELINE:
            history.append(snap.amplitude)
            return None
        baseline = float(np.median(history))
        spread = float(np.median(np.abs(np.array(history) - baseline)))
        spread = max(spread, 0.02 * max(baseline, 1e-12))
        z = (snap.amplitude - baseline) / (1.4826 * spread)
        # Slowly absorb the new sample so the baseline tracks drift.
        history.append(snap.amplitude)
        if len(history) > 64:
            history.pop(0)
        return float(z)

    def detect(self, snapshots: list[ChannelSnapshot]) -> list[OccupancyEvent]:
        """Scan time-ordered snapshots for pooled channel changes.

        Raises:
            ConfigurationError: when snapshots are not time-ordered.
        """
        if any(
            b.time_s < a.time_s
            for a, b in zip(snapshots, snapshots[1:], strict=False)
        ):
            raise ConfigurationError("snapshots must be time-ordered")
        events: list[OccupancyEvent] = []
        window: list[tuple[float, float]] = []  # (time, |z|)
        for snap in snapshots:
            z = self._deviation(snap)
            if z is None:
                continue
            window.append((snap.time_s, abs(z)))
            window = [
                (t, v) for t, v in window if t >= snap.time_s - self.window_s
            ]
            if len(window) < 3:
                continue
            score = float(np.mean([v for _, v in window]))
            if score >= self.threshold:
                start = window[0][0]
                if events and events[-1].end_s >= start - self.window_s:
                    last = events[-1]
                    events[-1] = OccupancyEvent(
                        start_s=last.start_s,
                        end_s=snap.time_s,
                        score=max(last.score, score),
                        n_snapshots=last.n_snapshots + 1,
                    )
                else:
                    events.append(
                        OccupancyEvent(
                            start_s=start,
                            end_s=snap.time_s,
                            score=score,
                            n_snapshots=len(window),
                        )
                    )
        return events
