"""Signal measurement: occupied bandwidth.

It backs the SNR definition documented in :mod:`repro.dsp.channel`:
packet SNR is measured inside the signal's own occupied bandwidth, not
across the full capture.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["occupied_bandwidth"]


def occupied_bandwidth(x: np.ndarray, sample_rate_hz: float, fraction: float = 0.99) -> float:
    """Bandwidth containing ``fraction`` of the total signal energy.

    Computed from the centred power spectrum: bins are sorted by energy
    and accumulated until ``fraction`` of the total is covered; the
    result is the bin count times the bin width. Robust to asymmetric
    spectra (e.g. an FSK tone pair).
    """
    if not 0 < fraction <= 1:
        raise ConfigurationError("fraction must be in (0, 1]")
    if len(x) == 0:
        return 0.0
    spectrum = np.abs(np.fft.fft(x)) ** 2
    total = spectrum.sum()
    if total <= 0:
        return 0.0
    order = np.argsort(spectrum)[::-1]
    cum = np.cumsum(spectrum[order])
    n_bins = int(np.searchsorted(cum, fraction * total) + 1)
    return n_bins * sample_rate_hz / len(x)
