"""FFT channelizer: watch every sub-channel of a wide band at once.

The dual of :mod:`repro.gateway.hopping`: instead of one tuner that
dwells, a gateway with enough compute can split the whole wideband
capture into all of its sub-channels simultaneously (the "replicated
front-ends" option of Sec. 6, implemented in DSP instead of hardware).

Each channel is mixed to baseband, brick-wall filtered to its
bandwidth in the frequency domain and decimated to the channel rate.
"""

from __future__ import annotations

import numpy as np

from ..dsp.filters import fft_bandpass, frequency_shift
from .hopping import ChannelPlan

__all__ = ["Channelizer"]


class Channelizer:
    """Splits a wideband capture into all channels of a plan: an exact
    per-channel mix, brick-wall filter and decimation, O(n_channels ·
    N log N)."""

    def __init__(self, plan: ChannelPlan):
        self.plan = plan

    def split(self, wide: np.ndarray) -> dict[int, np.ndarray]:
        """All channel basebands, keyed by channel index."""
        return {
            c: self._one_channel(wide, c) for c in range(self.plan.n_channels)
        }

    def _one_channel(self, wide: np.ndarray, channel: int) -> np.ndarray:
        centre = self.plan.centers_hz[channel]
        mixed = frequency_shift(wide, -centre, self.plan.wide_fs)
        filtered = fft_bandpass(
            mixed,
            self.plan.wide_fs,
            (-self.plan.channel_bw / 2, self.plan.channel_bw / 2),
        )
        return filtered[:: self.plan.decimation]
