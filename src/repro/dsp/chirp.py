"""Chirp generation for Chirp Spread Spectrum (LoRa).

A LoRa symbol with spreading factor ``SF`` occupies ``N = 2**SF`` chips
spread across the signal bandwidth ``BW``; at the critically-sampled rate
``sample_rate_hz == BW`` the base upchirp is

    b[n] = exp(j * pi * (n^2 / N - n)),   n = 0..N-1

whose instantaneous frequency sweeps linearly from ``-BW/2`` to ``+BW/2``.
Data symbol ``k`` is the base chirp cyclically shifted by ``k`` chips, which
after multiplication by the conjugate downchirp becomes a complex tone at
FFT bin ``k`` — the entire demodulator is one FFT.

All generators support integer oversampling so chirps can be embedded in a
wider capture (the paper's RTL-SDR samples 1 MHz around an 868 MHz LoRa
channel of 125 kHz, an oversampling factor of 8).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "base_upchirp",
    "base_downchirp",
    "lora_symbol",
]


def base_upchirp(sf: int, oversample: int = 1) -> np.ndarray:
    """Base (symbol 0) upchirp of ``2**sf * oversample`` complex samples."""
    if not 5 <= sf <= 12:
        raise ConfigurationError("sf must be in 5..12")
    if oversample < 1:
        raise ConfigurationError("oversample must be >= 1")
    n_chips = 1 << sf
    n = np.arange(n_chips * oversample) / oversample
    phase = np.pi * (n**2 / n_chips - n)
    return np.exp(1j * phase)


def base_downchirp(sf: int, oversample: int = 1) -> np.ndarray:
    """Conjugate of :func:`base_upchirp`; sweeps ``+BW/2 -> -BW/2``."""
    return np.conj(base_upchirp(sf, oversample))


def lora_symbol(symbol: int, sf: int, oversample: int = 1) -> np.ndarray:
    """Waveform of data symbol ``symbol`` (0..2**sf - 1).

    The symbol is the base upchirp cyclically advanced by ``symbol`` chips,
    so its instantaneous frequency starts at
    ``-BW/2 + symbol * BW / 2**sf`` and wraps once through the band edge.
    """
    n_chips = 1 << sf
    if not 0 <= symbol < n_chips:
        raise ConfigurationError(f"symbol must be in 0..{n_chips - 1}")
    base = base_upchirp(sf, oversample)
    return np.roll(base, -symbol * oversample)
