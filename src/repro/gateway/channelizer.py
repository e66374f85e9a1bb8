"""FFT channelizer: watch every sub-channel of a wide band at once.

The dual of :mod:`repro.gateway.hopping`: instead of one tuner that
dwells, a gateway with enough compute can split the whole wideband
capture into all of its sub-channels simultaneously (the "replicated
front-ends" option of Sec. 6, implemented in DSP instead of hardware).

The implementation is a straightforward overlap-free critically-sampled
DFT filter bank: the capture is cut into blocks of ``n_channels``
samples, each block is DFT'd, and bin ``c`` across blocks is (after the
per-channel frequency alignment) the decimated baseband of channel
``c``. A windowed (weighted-overlap-add) prototype improves adjacent-
channel rejection over the rectangular bank.
"""

from __future__ import annotations

import numpy as np

from ..dsp.filters import fft_bandpass, frequency_shift
from ..errors import ConfigurationError
from .hopping import ChannelPlan

__all__ = ["Channelizer"]


class Channelizer:
    """Splits a wideband capture into all channels of a plan.

    Two quality modes:

    * ``mode="fft"`` — exact per-channel mix + brick-wall filter +
      decimate. O(n_channels · N log N); best fidelity, the default.
    * ``mode="bank"`` — critically-sampled DFT bank. One pass over the
      capture; faster for many channels, with the rectangular-window
      adjacent-channel leakage that implies.
    """

    def __init__(self, plan: ChannelPlan, mode: str = "fft"):
        if mode not in ("fft", "bank"):
            raise ConfigurationError(f"unknown channelizer mode {mode!r}")
        if mode == "bank":
            # The critically-sampled bank only extracts channels sitting
            # exactly on DFT bins (multiples of wide_fs / decimation).
            spacing = plan.wide_fs / plan.decimation
            for centre in plan.centers_hz:
                if abs(centre / spacing - round(centre / spacing)) > 1e-9:
                    raise ConfigurationError(
                        "bank mode needs on-bin channel centres "
                        f"(multiples of {spacing:g} Hz); got {centre:g}"
                    )
        self.plan = plan
        self.mode = mode

    def split(self, wide: np.ndarray) -> dict[int, np.ndarray]:
        """All channel basebands, keyed by channel index."""
        if self.mode == "fft":
            return {
                c: self._one_channel(wide, c)
                for c in range(self.plan.n_channels)
            }
        return self._bank(wide)

    def _one_channel(self, wide: np.ndarray, channel: int) -> np.ndarray:
        centre = self.plan.centers_hz[channel]
        mixed = frequency_shift(wide, -centre, self.plan.wide_fs)
        filtered = fft_bandpass(
            mixed,
            self.plan.wide_fs,
            (-self.plan.channel_bw / 2, self.plan.channel_bw / 2),
        )
        return filtered[:: self.plan.decimation]

    def _bank(self, wide: np.ndarray) -> dict[int, np.ndarray]:
        m = self.plan.decimation
        n_blocks = len(wide) // m
        if n_blocks == 0:
            return {c: np.zeros(0, complex) for c in range(self.plan.n_channels)}
        blocks = wide[: n_blocks * m].reshape(n_blocks, m)
        # DFT across each block: bin k holds the band centred at
        # k * wide_fs / m. fftshift-style mapping onto the plan's centres.
        spectra = np.fft.fft(blocks, axis=1) / m
        out: dict[int, np.ndarray] = {}
        bin_spacing = self.plan.wide_fs / m
        for c, centre in enumerate(self.plan.centers_hz):
            k = int(round(centre / bin_spacing)) % m
            # An on-bin unit tone comes out at unit amplitude; channels
            # whose centre is off-bin inherit the rectangular window's
            # scalloping (documented bank-mode trade-off).
            out[c] = spectra[:, k]
        return out
