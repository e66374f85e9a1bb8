"""Phase-shift-keying core: BPSK and differential BPSK.

Used by the SigFox modem (D-BPSK at 100 bit/s) and available for the
WiFi-HaLow/Thread-style PSK entries of Table 1. Differential encoding
makes the demodulator immune to an unknown constant carrier phase, which
matters because the cloud decodes segments captured by a cheap
free-running RTL-SDR.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..contracts import iq_contract
from ..errors import ConfigurationError
from ..utils.bits import as_bit_array

__all__ = [
    "bpsk_modulate",
    "bpsk_demodulate_bits",
    "dbpsk_encode",
    "dbpsk_decode",
    "dbpsk_modulate",
    "dbpsk_demodulate_bits",
]


def bpsk_modulate(bits: npt.ArrayLike, sps: int) -> np.ndarray:
    """BPSK with edge-smoothed rectangular pulses.

    Bit 1 maps to +1, bit 0 to -1. From 8 samples per symbol up, a short
    raised transition at symbol edges bounds the occupied bandwidth,
    mimicking the ultra-narrow-band shaping SigFox uses.
    """
    arr = as_bit_array(bits)
    if sps < 2:
        raise ConfigurationError("sps must be >= 2")
    symbols = 2.0 * arr.astype(float) - 1.0
    wave = np.repeat(symbols, sps).astype(complex)
    if sps >= 8:
        ramp = max(2, sps // 8)
        kernel = np.ones(ramp) / ramp
        wave = np.convolve(wave, kernel, mode="same")
    return wave


@iq_contract("iq")
def bpsk_demodulate_bits(
    iq: np.ndarray, start: int, n_bits: int, sps: int
) -> np.ndarray:
    """Coherent BPSK slicer (assumes phase was corrected by the caller)."""
    needed = start + n_bits * sps
    if start < 0 or needed > len(iq):
        raise ConfigurationError("bit range exceeds the segment")
    symbols = iq[start:needed].reshape(n_bits, sps).mean(axis=1)
    return (symbols.real > 0).astype(np.uint8)


def dbpsk_encode(bits: npt.ArrayLike) -> np.ndarray:
    """Differential encoding: output flips when the input bit is 1.

    The first output symbol is the reference (equal to the first bit's
    transition from an implicit leading 0).
    """
    return np.bitwise_xor.accumulate(as_bit_array(bits))


def dbpsk_decode(symbol_bits: npt.ArrayLike) -> np.ndarray:
    """Inverse of :func:`dbpsk_encode` (first symbol referenced to 0)."""
    arr = as_bit_array(symbol_bits)
    prev = np.concatenate(([0], arr[:-1]))
    return (arr ^ prev).astype(np.uint8)


def dbpsk_modulate(bits: npt.ArrayLike, sps: int) -> np.ndarray:
    """Differentially-encoded BPSK waveform."""
    return bpsk_modulate(dbpsk_encode(bits), sps)


@iq_contract("iq")
def dbpsk_demodulate_bits(
    iq: np.ndarray, start: int, n_bits: int, sps: int
) -> np.ndarray:
    """Phase-blind D-BPSK demodulation via symbol-to-symbol correlation.

    Bit k is 1 when symbol k is anti-podal to symbol k-1; the symbol
    before ``start`` is used as the reference when available, otherwise
    an implicit +1 reference is assumed.
    """
    needed = start + n_bits * sps
    if start < 0 or needed > len(iq):
        raise ConfigurationError("bit range exceeds the segment")
    symbols = iq[start:needed].reshape(n_bits, sps).mean(axis=1)
    if start >= sps:
        ref = iq[start - sps : start].mean()
    else:
        # Implicit leading differential state 0, whose waveform level is
        # -1 (bit 0 maps to -1 in bpsk_modulate).
        ref = -1.0 + 0j
    prev = np.concatenate(([ref], symbols[:-1]))
    return (np.real(symbols * np.conj(prev)) < 0).astype(np.uint8)
