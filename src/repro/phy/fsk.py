"""Continuous-phase (G)FSK modulation core.

Shared by the XBee (802.15.4-SUN style GFSK), Z-Wave (G.9959 BFSK) and BLE
modems. Modulation is proper CPM: the instantaneous frequency waveform
(±deviation, optionally Gaussian-shaped) is integrated into phase, so the
emitted signal has constant envelope exactly like the hardware radios.

Demodulation uses a quadrature discriminator followed by a bit-matched
moving average and mid-bit sampling; frame-level synchronization is done
by the caller (sample-domain preamble correlation).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import numpy.typing as npt
from scipy import signal as sp_signal

from ..contracts import iq_contract
from ..dsp.filters import design_lowpass_fir, gaussian_pulse
from ..dsp.fm import quadrature_demod
from ..errors import ConfigurationError
from ..utils.bits import as_bit_array

__all__ = [
    "fsk_modulate",
    "fsk_demodulate_bits",
    "fsk_frequency_track",
    "track_margin",
]


@lru_cache(maxsize=64)
def _channel_taps(n_taps: int, cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Cached (read-only) channel-select FIR design, as complex128.

    The design is deterministic in its arguments, and the FSK modems
    redesign the same filter for every demodulate call; caching it is
    bit-identical. The taps are complex because the filter convolves
    complex I/Q: real taps would send ``fftconvolve`` down a different
    FFT path and move the frequency track in its last bits.
    """
    taps = design_lowpass_fir(n_taps, cutoff_hz, sample_rate_hz).astype(
        np.complex128
    )
    taps.flags.writeable = False
    return taps


def fsk_modulate(
    bits: npt.ArrayLike,
    sps: int,
    deviation_hz: float,
    sample_rate_hz: float,
    bt: float | None = None,
) -> np.ndarray:
    """Modulate a bit array into constant-envelope (G)FSK I/Q.

    Args:
        bits: 0/1 array; bit 1 maps to ``+deviation_hz``.
        sps: Samples per bit.
        deviation_hz: Peak frequency deviation (half the tone spacing).
        sample_rate_hz: Output sample rate.
        bt: Gaussian bandwidth-time product (pulse of
            :data:`~repro.dsp.filters.GAUSSIAN_SPAN` bits); ``None``
            means plain rectangular 2-FSK (Z-Wave style).

    Returns:
        Unit-amplitude complex waveform of ``len(bits) * sps`` samples.
    """
    arr = as_bit_array(bits)
    if sps < 2:
        raise ConfigurationError("sps must be >= 2")
    if deviation_hz <= 0 or deviation_hz >= sample_rate_hz / 2:
        raise ConfigurationError("deviation must be in (0, sample_rate_hz/2)")
    nrz = 2.0 * arr.astype(float) - 1.0
    freq = np.repeat(nrz, sps)
    if bt is not None:
        pulse = gaussian_pulse(bt, sps)
        # 'same' keeps bit centers aligned with the unshaped waveform.
        freq = np.convolve(freq, pulse, mode="same")
    phase = 2 * np.pi * deviation_hz / sample_rate_hz * np.cumsum(freq)
    return np.exp(1j * phase)


@iq_contract("iq")
def fsk_frequency_track(
    iq: np.ndarray, sample_rate_hz: float, sps: int, bandwidth_hz: float | None = None
) -> np.ndarray:
    """Smoothed instantaneous-frequency track of an FSK signal in Hz.

    Applies an optional channel-select lowpass (essential when the
    capture is much wider than the signal: a discriminator's output SNR
    collapses once broadband noise enters it), then the quadrature
    discriminator and a bit-matched moving average (the optimal
    post-discriminator filter for rectangular FSK). The output is
    aligned so index ``n`` estimates the frequency at sample ``n`` of
    the input; length is ``len(iq)``.
    """
    if len(iq) < 2:
        return np.zeros(len(iq))
    iq = np.asarray(iq, dtype=np.complex128)
    if bandwidth_hz is not None and bandwidth_hz < sample_rate_hz * 0.9:
        cutoff = min(bandwidth_hz / 2, 0.45 * sample_rate_hz)
        taps = _channel_taps(129, float(cutoff), float(sample_rate_hz))
        # FFT convolution: the 129-tap channel filter is the single
        # biggest cost of an FSK demodulate on long segments.
        iq = sp_signal.fftconvolve(iq, taps, mode="same")
    inst = quadrature_demod(iq, gain=sample_rate_hz / (2 * np.pi))
    smooth = sp_signal.fftconvolve(inst, np.ones(sps) / sps, mode="same")
    # quadrature_demod output n sits between samples n and n+1; prepend
    # one element so indexing lines up with the input samples.
    return np.concatenate(([smooth[0]], smooth))


def track_margin(sps: int) -> int:
    """Samples a track's input needs past the last bit it is read at.

    The track at a bit centre sees input up to half the 129-tap channel
    filter plus half the ``sps``-sample smoother beyond it (~65 + sps/2
    samples); this margin covers that reach with room to spare. A slice
    ending this far past its last bit gives that bit the inputs a track
    of the whole segment would, up to FFT rounding. The FSK modems size
    their header and frame tracks with it.
    """
    return 2 * sps + 256


@iq_contract("iq")
def fsk_demodulate_bits(
    iq: np.ndarray,
    start: int,
    n_bits: int,
    sps: int,
    sample_rate_hz: float,
    threshold_hz: float = 0.0,
    bandwidth_hz: float | None = None,
    track: np.ndarray | None = None,
) -> np.ndarray:
    """Slice ``n_bits`` starting at sample ``start`` out of an FSK burst.

    Args:
        iq: Complex samples at the modem's native rate.
        start: Sample index of the first bit's leading edge.
        n_bits: Number of bits to recover.
        sps: Samples per bit.
        sample_rate_hz: Sample rate.
        threshold_hz: Decision threshold; non-zero to compensate a known
            carrier offset.
        bandwidth_hz: Channel-select filter width (the signal's occupied
            bandwidth); ``None`` skips the filter.
        track: Precomputed :func:`fsk_frequency_track` of ``iq`` (same
            length). The FSK modems read several fields out of one
            burst; passing the track once avoids recomputing the
            discriminator chain per read.

    Returns:
        uint8 bit array of length ``n_bits``.

    Raises:
        ConfigurationError: if the requested bits run past the segment.
    """
    needed = start + n_bits * sps
    if start < 0 or needed > len(iq):
        raise ConfigurationError("bit range exceeds the segment")
    if track is None:
        track = fsk_frequency_track(iq, sample_rate_hz, sps, bandwidth_hz)
    centers = start + np.arange(n_bits) * sps + sps // 2
    return (track[centers] > threshold_hz).astype(np.uint8)
