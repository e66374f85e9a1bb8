"""Channel models: noise levels, SNR scaling and packet placement.

SNR convention
--------------
Throughout this package, the SNR of a packet is defined **in the signal's
own occupied bandwidth**:

    snr_db = 10 log10( P_signal / (N0 * B_signal) )

The scene composer works at the capture rate ``sample_rate_hz`` (1 MHz in the paper's
prototype), so the complex noise added across the full capture bandwidth
has power ``N0 * sample_rate_hz``. A signal of bandwidth ``B`` at in-band SNR ``s``
therefore has full-band "SNR" lower by ``10 log10(sample_rate_hz / B)`` — which is why
the paper's sub-noise (-30 dB) packets are invisible to an energy detector
but still carry enough correlation gain to be detected.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "signal_power",
    "noise_for_band_snr",
    "scale_to_snr",
    "add_at",
]


def signal_power(x: np.ndarray) -> float:
    """Mean power of a complex signal."""
    if len(x) == 0:
        return 0.0
    return float(np.mean(np.abs(x) ** 2))


def noise_for_band_snr(
    signal_pwr: float, snr_db: float, signal_bw: float, sample_rate_hz: float
) -> float:
    """Full-band noise power that yields ``snr_db`` inside ``signal_bw``.

    Returns the total complex-noise power to generate at sample rate
    ``sample_rate_hz`` so that the noise falling inside the signal's bandwidth is
    ``signal_pwr / 10**(snr_db/10)``.
    """
    if signal_bw <= 0 or sample_rate_hz <= 0 or signal_bw > sample_rate_hz:
        raise ConfigurationError("need 0 < signal_bw <= sample_rate_hz")
    in_band_noise = signal_pwr / (10 ** (snr_db / 10))
    return in_band_noise * sample_rate_hz / signal_bw


def scale_to_snr(
    x: np.ndarray, snr_db: float, noise_power: float, signal_bw: float, sample_rate_hz: float
) -> np.ndarray:
    """Scale ``x`` so its in-band SNR against ``noise_power`` is ``snr_db``.

    The dual of :func:`noise_for_band_snr`: given a fixed full-band noise
    power (the scene's common noise floor), compute the amplitude at which
    a packet must be injected to achieve a target in-band SNR.
    """
    if not 0 < signal_bw <= sample_rate_hz:
        raise ConfigurationError("need 0 < signal_bw <= sample_rate_hz")
    if not np.isfinite(snr_db):
        # A NaN/inf SNR would scale the packet to a NaN/inf waveform.
        raise ConfigurationError(f"snr_db must be finite, got {snr_db}")
    current = signal_power(x)
    if current <= 0:
        raise ConfigurationError("cannot scale a zero-power signal")
    in_band_noise = noise_power * signal_bw / sample_rate_hz
    target = in_band_noise * (10 ** (snr_db / 10))
    return x * np.sqrt(target / current)


def add_at(buffer: np.ndarray, offset: int, x: np.ndarray) -> None:
    """Add ``x`` into ``buffer`` starting at ``offset``, clipping overhang.

    Packets that start before 0 or run past the end of the buffer are
    truncated rather than rejected so scene composition can place traffic
    at the capture boundaries.
    """
    start = max(offset, 0)
    stop = min(offset + len(x), len(buffer))
    if stop <= start:
        return
    buffer[start:stop] += x[start - offset : stop - offset]
