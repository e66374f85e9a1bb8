"""Frequency-hopping front ends (paper Sec. 6, "Multi-Technology
Programmable Gateway").

The paper's gateways capture a few MHz, but the unlicensed 868/900 MHz
space is far wider. One of the design-space options Sec. 6 sketches is
"frequency hopping with a few frontends that dynamically learns the
schedule". This module implements that option:

* :class:`ChannelPlan` — the sub-channels of a wide band;
* :class:`HoppingFrontend` — a tuner model that extracts one channel's
  complex baseband out of a wideband capture (mix, filter, decimate);
* :class:`HopScheduler` — an exponential-weights learner over channel
  activity: channels that yielded detections get visited more;
* :func:`run_hopping_campaign` — dwell-by-dwell simulation comparing a
  scheduler against round-robin scanning on the same wideband scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsp.filters import fft_bandpass, frequency_shift
from ..errors import ConfigurationError
from ..types import DetectorLike

__all__ = [
    "ChannelPlan",
    "HoppingFrontend",
    "HopScheduler",
    "DwellResult",
    "run_hopping_campaign",
]

#: :class:`HopScheduler`'s multiplicative weight update per detection.
LEARNING_RATE = 1.6
#: :class:`HopScheduler`'s weight decay on an empty dwell.
DECAY = 0.85


@dataclass(frozen=True)
class ChannelPlan:
    """Sub-channel layout of a wide capture.

    Attributes:
        wide_fs: Sample rate of the wideband capture.
        channel_bw: Bandwidth (= output sample rate) of one channel.
        centers_hz: Channel centre offsets relative to the capture
            centre (must fit inside ±wide_fs/2).
    """

    wide_fs: float
    channel_bw: float
    centers_hz: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.channel_bw <= 0 or self.wide_fs <= 0:
            raise ConfigurationError("rates must be positive")
        ratio = self.wide_fs / self.channel_bw
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(
                "wide_fs must be an integer multiple of channel_bw"
            )
        for c in self.centers_hz:
            if abs(c) + self.channel_bw / 2 > self.wide_fs / 2 + 1e-9:
                raise ConfigurationError(f"channel at {c} Hz exceeds the band")

    @property
    def n_channels(self) -> int:
        """Number of sub-channels."""
        return len(self.centers_hz)

    @property
    def decimation(self) -> int:
        """Integer decimation from the wide rate to one channel."""
        return int(round(self.wide_fs / self.channel_bw))

    @classmethod
    def uniform(
        cls, wide_fs: float, channel_bw: float, n_channels: int
    ) -> ChannelPlan:
        """Evenly spaced, non-overlapping channels centred in the band."""
        if n_channels < 1:
            raise ConfigurationError("n_channels must be >= 1")
        span = n_channels * channel_bw
        if span > wide_fs:
            raise ConfigurationError("channels do not fit in the band")
        first = -span / 2 + channel_bw / 2
        centers = tuple(first + i * channel_bw for i in range(n_channels))
        return cls(wide_fs=wide_fs, channel_bw=channel_bw, centers_hz=centers)


class HoppingFrontend:
    """A single tuner that can dwell on one channel at a time."""

    def __init__(self, plan: ChannelPlan):
        self.plan = plan

    def tune(
        self, wide_samples: np.ndarray, channel: int, start: int, n_wide: int
    ) -> np.ndarray:
        """Extract ``n_wide`` wideband samples of one channel's baseband.

        Args:
            wide_samples: The wideband capture.
            channel: Channel index in the plan.
            start: First wideband sample of the dwell.
            n_wide: Dwell length in wideband samples.

        Returns:
            Channel baseband at ``plan.channel_bw`` complex samples/s.

        Raises:
            ConfigurationError: for an unknown channel index.
        """
        if not 0 <= channel < self.plan.n_channels:
            raise ConfigurationError(f"no channel {channel} in the plan")
        stop = min(start + n_wide, len(wide_samples))
        chunk = wide_samples[start:stop]
        if len(chunk) == 0:
            return np.zeros(0, dtype=complex)
        centre = self.plan.centers_hz[channel]
        mixed = frequency_shift(chunk, -centre, self.plan.wide_fs)
        filtered = fft_bandpass(
            mixed, self.plan.wide_fs,
            (-self.plan.channel_bw / 2, self.plan.channel_bw / 2),
        )
        return filtered[:: self.plan.decimation]


@dataclass
class HopScheduler:
    """Exponential-weights learner over channel activity.

    Channels accumulate weight when a dwell on them detects packets and
    decay otherwise; the next dwell picks a channel proportionally to
    weight, with an exploration floor so quiet channels are still
    revisited (the "dynamically learns the schedule" behaviour).

    A detection multiplies the visited channel's weight by
    :data:`LEARNING_RATE` (per detection, up to 4), and an empty dwell
    by :data:`DECAY`.

    Attributes:
        n_channels: Number of channels.
        explore: Probability mass spread uniformly across all channels.
    """

    n_channels: int
    explore: float = 0.2
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ConfigurationError("n_channels must be >= 1")
        if not 0 <= self.explore <= 1:
            raise ConfigurationError("explore must be in [0, 1]")
        if self.weights is None:
            self.weights = np.ones(self.n_channels)

    def probabilities(self) -> np.ndarray:
        """Current channel-selection distribution."""
        w = self.weights / self.weights.sum()
        uniform = np.full(self.n_channels, 1.0 / self.n_channels)
        return (1 - self.explore) * w + self.explore * uniform

    def pick(self, rng: np.random.Generator) -> int:
        """Draw the next dwell's channel."""
        return int(rng.choice(self.n_channels, p=self.probabilities()))

    def update(self, channel: int, detections: int) -> None:
        """Feed back the dwell outcome."""
        if detections > 0:
            self.weights[channel] *= LEARNING_RATE ** min(detections, 4)
        else:
            self.weights[channel] *= DECAY
        # Keep weights bounded for numerical hygiene.
        self.weights = np.clip(self.weights, 1e-6, 1e6)


@dataclass(frozen=True)
class DwellResult:
    """One dwell's outcome."""

    dwell_index: int
    channel: int
    detections: int


def run_hopping_campaign(
    wide_samples: np.ndarray,
    plan: ChannelPlan,
    detector: DetectorLike,
    dwell_wide_samples: int,
    rng: np.random.Generator,
    scheduler: HopScheduler | None = None,
) -> list[DwellResult]:
    """Sweep a wideband capture dwell by dwell with one tuner.

    Args:
        wide_samples: The wideband scene.
        plan: Channel layout.
        detector: Any object with ``detect(samples) -> list`` running at
            the channel rate (e.g. a
            :class:`~repro.gateway.universal.UniversalPreambleDetector`).
        dwell_wide_samples: Dwell length in wideband samples.
        rng: Random source for the scheduler.
        scheduler: ``None`` scans round-robin (the baseline); otherwise
            the scheduler picks each dwell's channel and learns from it.

    Returns:
        One :class:`DwellResult` per dwell.
    """
    if dwell_wide_samples < plan.decimation:
        raise ConfigurationError("dwell shorter than one channel sample")
    frontend = HoppingFrontend(plan)
    results: list[DwellResult] = []
    n_dwells = len(wide_samples) // dwell_wide_samples
    for i in range(n_dwells):
        if scheduler is None:
            channel = i % plan.n_channels
        else:
            channel = scheduler.pick(rng)
        baseband = frontend.tune(
            wide_samples, channel, i * dwell_wide_samples, dwell_wide_samples
        )
        events = detector.detect(baseband)
        results.append(
            DwellResult(dwell_index=i, channel=channel, detections=len(events))
        )
        if scheduler is not None:
            scheduler.update(channel, len(events))
    return results
