"""Chirp-spread-spectrum symbol modem (the LoRa PHY core).

Symbols are cyclic shifts of a base upchirp (see :mod:`repro.dsp.chirp`).
Demodulation is the textbook dechirp-and-FFT: multiply by the conjugate
downchirp and the symbol value appears as the index of the strongest FFT
bin. At an oversampled rate the segment is first brick-wall filtered to
the chirp bandwidth and decimated back to one sample per chip.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..contracts import iq_contract
from ..dsp.chirp import base_downchirp, base_upchirp
from ..dsp.filters import fft_bandpass
from ..errors import ConfigurationError

__all__ = [
    "modulate_symbols",
    "demodulate_symbols",
    "dechirp",
    "symbol_count",
]


def symbol_count(sf: int) -> int:
    """Number of distinct symbol values (``2**sf``)."""
    if not 5 <= sf <= 12:
        raise ConfigurationError("sf must be in 5..12")
    return 1 << sf


def modulate_symbols(symbols: npt.ArrayLike, sf: int, oversample: int = 1) -> np.ndarray:
    """Concatenate the chirp waveforms of a symbol sequence."""
    arr = np.asarray(symbols, dtype=int).ravel()
    n = symbol_count(sf)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ConfigurationError(f"symbols must be in 0..{n - 1}")
    if arr.size == 0:
        return np.zeros(0, dtype=complex)
    # Every symbol waveform is a cyclic shift of the base upchirp, so
    # the whole frame is one fancy-index gather.
    base = base_upchirp(sf, oversample)
    idx = (np.arange(len(base))[None, :] + arr[:, None] * oversample) % len(base)
    return base[idx].ravel()


def _decimate_to_chip_rate(
    iq: np.ndarray, sf: int, oversample: int, bw: float
) -> np.ndarray:
    """Filter to the chirp bandwidth and take one sample per chip."""
    if oversample == 1:
        return iq
    fs = bw * oversample
    filtered = fft_bandpass(iq, fs, (-bw / 2, bw / 2))
    return filtered[::oversample]


@iq_contract("iq")
def dechirp(
    iq: np.ndarray, sf: int, oversample: int = 1, bw: float = 125e3, up: bool = True
) -> np.ndarray:
    """Multiply a critically-resampled segment by the conjugate chirp.

    Args:
        iq: Samples at ``bw * oversample``; length is truncated to a whole
            number of symbols.
        up: True to dechirp data/preamble upchirps (multiply by the
            downchirp); False to dechirp SFD downchirps.

    Returns:
        Chip-rate samples, one dechirped tone per ``2**sf`` chips.
    """
    chips = _decimate_to_chip_rate(iq, sf, oversample, bw)
    n = symbol_count(sf)
    n_sym = len(chips) // n
    chips = chips[: n_sym * n]
    ref = base_downchirp(sf) if up else base_upchirp(sf)
    return chips * np.tile(ref, n_sym)


@iq_contract("iq")
def demodulate_symbols(
    iq: np.ndarray,
    n_symbols: int,
    sf: int,
    oversample: int = 1,
    bw: float = 125e3,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``n_symbols`` chirp symbols starting at sample 0 of ``iq``.

    Returns:
        ``(symbols, magnitudes)``: the winning FFT bin per symbol and its
        magnitude (useful as a soft confidence for SIC ordering).

    Raises:
        ConfigurationError: if the segment is shorter than the symbols
            requested.
    """
    n = symbol_count(sf)
    needed = n_symbols * n * oversample
    if len(iq) < needed:
        raise ConfigurationError("segment shorter than the requested symbols")
    tones = dechirp(iq[:needed], sf, oversample, bw, up=True)
    frames = tones.reshape(n_symbols, n)
    spectra = np.abs(np.fft.fft(frames, axis=1))
    symbols = np.argmax(spectra, axis=1).astype(int)
    magnitudes = spectra[np.arange(n_symbols), symbols]
    return symbols, magnitudes
