"""FFT channelizer: watch every sub-channel of a wide band at once.

The dual of :mod:`repro.gateway.hopping`: instead of one tuner that
dwells, a gateway with enough compute can split the whole wideband
capture into all of its sub-channels simultaneously (the "replicated
front-ends" option of Sec. 6, implemented in DSP instead of hardware).

Each channel is the hopping tuner's cut over the whole capture: mixed
to baseband, brick-wall filtered to its bandwidth in the frequency
domain and decimated to the channel rate.
"""

from __future__ import annotations

import numpy as np

from .hopping import ChannelPlan, HoppingFrontend

__all__ = ["Channelizer"]


class Channelizer:
    """Splits a wideband capture into all channels of a plan: an exact
    per-channel mix, brick-wall filter and decimation, O(n_channels ·
    N log N)."""

    def __init__(self, plan: ChannelPlan):
        self.plan = plan
        self._tuner = HoppingFrontend(plan)

    def split(self, wide: np.ndarray) -> dict[int, np.ndarray]:
        """All channel basebands, keyed by channel index."""
        return {
            c: self._tuner.tune(wide, c, 0, len(wide))
            for c in range(self.plan.n_channels)
        }
