"""Filter design and application.

Everything here is deliberately simple, deterministic DSP: windowed-sinc
FIR design for channelization, a Gaussian pulse for GFSK shaping, a
half-sine pulse for O-QPSK, moving-average smoothing for energy detection,
FFT-domain masks (notch / bandpass) that the cloud kill filters, the
LoRa dechirp and the channelizers build on, and the blocked
least-squares subtraction that SIC and the DSSS kill filter remove a
reconstructed waveform with.

The two masks zero-pad their input to ``scipy.fft.next_fast_len`` and
mask the bins of that padded grid: a shipped segment's raw length can
carry a large prime factor, which drives the FFT onto its slow
large-prime path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from ..errors import ConfigurationError, checked_positive

__all__ = [
    "design_lowpass_fir",
    "fir_filter",
    "gaussian_pulse",
    "half_sine_pulse",
    "moving_average",
    "fft_notch",
    "fft_bandpass",
    "frequency_shift",
    "blocked_ls_subtract",
]

#: Length of the GFSK Gaussian shaping pulse, in symbols.
GAUSSIAN_SPAN = 4


def design_lowpass_fir(num_taps: int, cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Hamming-windowed-sinc linear-phase lowpass FIR.

    Args:
        num_taps: Filter length (odd lengths give integer group delay).
        cutoff_hz: One-sided cutoff frequency.
        sample_rate_hz: Sample rate.

    Raises:
        ConfigurationError: if the cutoff is not inside (0, sample_rate_hz/2).
    """
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ConfigurationError("cutoff must be inside (0, sample_rate_hz/2)")
    if num_taps < 3:
        raise ConfigurationError("num_taps must be >= 3")
    return sp_signal.firwin(num_taps, cutoff_hz, fs=sample_rate_hz, window="hamming")


def fir_filter(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Apply an FIR filter via FFT convolution (output length of ``x``)."""
    return sp_signal.fftconvolve(x, taps, mode="same")


def gaussian_pulse(bt: float, sps: int) -> np.ndarray:
    """Gaussian frequency-shaping pulse for GFSK, :data:`GAUSSIAN_SPAN`
    symbols long (``GAUSSIAN_SPAN * sps + 1`` taps).

    Args:
        bt: Bandwidth-time product (0.5 for BLE/802.15.4-FSK).
        sps: Samples per symbol.

    Returns:
        Pulse normalized so its sum is 1 (it shapes a +-1 NRZ frequency
        waveform; unit sum preserves the total phase advance per bit).
    """
    if bt <= 0:
        raise ConfigurationError("bt must be positive")
    if sps < 1:
        raise ConfigurationError("sps must be >= 1")
    t = np.arange(-GAUSSIAN_SPAN * sps / 2, GAUSSIAN_SPAN * sps / 2 + 1) / sps
    alpha = np.sqrt(np.log(2) / 2) / bt
    pulse = (np.sqrt(np.pi) / alpha) * np.exp(-((np.pi * t / alpha) ** 2))
    return pulse / pulse.sum()


def half_sine_pulse(sps: int) -> np.ndarray:
    """Half-sine chip pulse used by 802.15.4 O-QPSK."""
    if sps < 1:
        raise ConfigurationError("sps must be >= 1")
    return np.sin(np.pi * np.arange(sps) / sps) if sps > 1 else np.ones(1)


def moving_average(x: np.ndarray, n: int) -> np.ndarray:
    """Length-preserving moving average (same-mode convolution)."""
    if n < 1:
        raise ConfigurationError("window length must be >= 1")
    kernel = np.ones(n) / n
    return np.convolve(x, kernel, mode="same")


def _band_mask(n: int, sample_rate_hz: float, bands: list[tuple[float, float]]) -> np.ndarray:
    """Boolean FFT-bin mask that is True inside any of ``bands``.

    Bands are (low, high) in Hz and may be negative (complex baseband).
    """
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    mask = np.zeros(n, dtype=bool)
    for low, high in bands:
        if high < low:
            low, high = high, low
        mask |= (freqs >= low) & (freqs <= high)
    return mask


def _masked(
    x: np.ndarray,
    sample_rate_hz: float,
    bands: list[tuple[float, float]],
    zero_inside: bool,
) -> np.ndarray:
    """Zero the bins inside (or outside) ``bands`` on the fast-length grid.

    ``x`` is zero-padded to ``next_fast_len(len(x))``, masked on that
    grid and cut back to ``len(x)`` samples, so a notch and a bandpass
    of the same band still sum to ``x``.

    Raises:
        ConfigurationError: for a non-finite or non-positive sample rate
            or a non-finite band edge (either would silently mask
            nothing).
    """
    checked_positive("sample_rate_hz", sample_rate_hz)
    if not all(math.isfinite(edge) for band in bands for edge in band):
        raise ConfigurationError("band edges must be finite")
    n = len(x)
    nfft = sp_fft.next_fast_len(n)
    spectrum = sp_fft.fft(x, nfft)
    inside = _band_mask(nfft, sample_rate_hz, bands)
    spectrum[inside if zero_inside else ~inside] = 0
    return sp_fft.ifft(spectrum)[:n]


def fft_notch(
    x: np.ndarray, sample_rate_hz: float, bands: list[tuple[float, float]]
) -> np.ndarray:
    """Zero the FFT bins falling inside ``bands`` (brick-wall notch).

    This is the primitive behind KILL-FREQUENCY: FSK concentrates its
    energy at a handful of tones, so zeroing narrow bands around those
    tones removes the FSK signal while barely touching a co-channel
    spread-spectrum signal. The bins are those of ``x`` zero-padded to
    ``scipy.fft.next_fast_len(len(x))``; the result has ``len(x)``
    samples.

    Raises:
        ConfigurationError: for a non-finite or non-positive
            ``sample_rate_hz`` or a non-finite band edge.
    """
    return _masked(x, sample_rate_hz, bands, zero_inside=True)


def fft_bandpass(x: np.ndarray, sample_rate_hz: float, band: tuple[float, float]) -> np.ndarray:
    """Keep only the FFT bins inside ``band`` (brick-wall bandpass).

    Masks the same padded grid as :func:`fft_notch`, so
    ``fft_bandpass(x, fs, b) + fft_notch(x, fs, [b])`` is ``x`` up to
    rounding.

    Raises:
        ConfigurationError: for a non-finite or non-positive
            ``sample_rate_hz`` or a non-finite band edge.
    """
    return _masked(x, sample_rate_hz, [band], zero_inside=False)


def frequency_shift(x: np.ndarray, shift_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Mix ``x`` by ``exp(+j 2 pi shift_hz t)`` (moves energy up by shift)."""
    n = np.arange(len(x))
    return x * np.exp(2j * np.pi * shift_hz * n / sample_rate_hz)


def blocked_ls_subtract(
    ref: np.ndarray, region: np.ndarray, block: int
) -> np.ndarray:
    """Per-block least-squares subtraction of ``ref`` from ``region``.

    Each ``block``-sample block of ``region`` loses its projection onto
    the matching block of ``ref``: ``x - g r`` with ``g = <r, x> /
    <r, r>``, so slow phase drift between the two does not cap the
    cancellation depth. Full blocks reshape to a ``(n_blocks, block)``
    matrix whose per-row energies and cross-correlations come from two
    einsum contractions; the remainder block (if any) is fitted on its
    own. Blocks with zero reference energy are left unchanged (the
    subtraction never amplifies). ``region`` has ``ref``'s length;
    returns the residual region.
    """
    n = len(ref)
    out = region.copy()
    n_full = n // block
    if n_full:
        ref_mat = np.asarray(ref[: n_full * block], dtype=np.complex128).reshape(
            n_full, block
        )
        region_mat = np.asarray(
            region[: n_full * block], dtype=np.complex128
        ).reshape(n_full, block)
        energies = np.einsum("ij,ij->i", ref_mat.real, ref_mat.real) + np.einsum(
            "ij,ij->i", ref_mat.imag, ref_mat.imag
        )
        numerators = np.einsum("ij,ij->i", np.conj(ref_mat), region_mat)
        good = energies > 0
        gains = np.zeros(n_full, dtype=np.complex128)
        gains[good] = numerators[good] / energies[good]
        out[: n_full * block] = (region_mat - gains[:, None] * ref_mat).ravel()
    pos = n_full * block
    if pos < n:
        tail_ref = ref[pos:]
        tail = region[pos:]
        energy = float(np.sum(np.abs(tail_ref) ** 2))
        if energy > 0:
            gain = complex(np.sum(np.conj(tail_ref) * tail) / energy)
            out[pos:] = tail - gain * tail_ref
    return out
