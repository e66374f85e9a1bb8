"""Direct-sequence spread spectrum core (802.15.4 O-QPSK style).

Each 4-bit data symbol is expanded to a 32-chip pseudo-noise sequence from
the 802.15.4 chip table; the 16 sequences are near-orthogonal cyclic
shifts (and conjugates) of one base sequence. This is the "orthogonal
codes" modulation class of the paper: KILL-CODES removes a DSSS signal by
projecting the received segment onto its code subspace and subtracting.

Chips are transmitted O-QPSK style: even chips on I, odd chips on Q with a
half-chip offset, each shaped by a half-sine pulse (MSK-equivalent).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..contracts import iq_contract
from ..dsp.filters import half_sine_pulse
from ..errors import ConfigurationError, DecodeError
from ..utils.bits import as_bit_array

__all__ = [
    "IEEE154_CHIPS",
    "spread_symbols",
    "chips_to_oqpsk",
    "oqpsk_to_chips",
    "despread_chips",
    "symbols_to_bits",
    "bits_to_symbols",
]

# IEEE 802.15.4-2015, table 73: 32-chip sequences for the 2.4 GHz O-QPSK
# PHY, chip c0 first.
_CHIP_STRINGS = [
    "11011001110000110101001000101110",
    "11101101100111000011010100100010",
    "00101110110110011100001101010010",
    "00100010111011011001110000110101",
    "01010010001011101101100111000011",
    "00110101001000101110110110011100",
    "11000011010100100010111011011001",
    "10011100001101010010001011101101",
    "10001100100101100000011101111011",
    "10111000110010010110000001110111",
    "01111011100011001001011000000111",
    "01110111101110001100100101100000",
    "00000111011110111000110010010110",
    "01100000011101111011100011001001",
    "10010110000001110111101110001100",
    "11001001011000000111011110111000",
]

IEEE154_CHIPS = np.array(
    [[int(c) for c in row] for row in _CHIP_STRINGS], dtype=np.uint8
)


def bits_to_symbols(bits: npt.ArrayLike) -> np.ndarray:
    """Group a bit array into 4-bit symbols, LSB-first per 802.15.4.

    Raises:
        ConfigurationError: if the bit count is not a multiple of 4.
    """
    arr = as_bit_array(bits)
    if arr.size % 4:
        raise ConfigurationError("bit count must be a multiple of 4")
    groups = arr.reshape(-1, 4)
    return (
        groups[:, 0] + 2 * groups[:, 1] + 4 * groups[:, 2] + 8 * groups[:, 3]
    ).astype(np.uint8)


def symbols_to_bits(symbols: npt.ArrayLike) -> np.ndarray:
    """Inverse of :func:`bits_to_symbols`."""
    arr = np.asarray(symbols, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 15:
        raise ConfigurationError("symbols must be in 0..15")
    shifts = np.arange(4, dtype=np.uint8)
    return ((arr[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def spread_symbols(symbols: npt.ArrayLike) -> np.ndarray:
    """Concatenate the chip sequences of a symbol array."""
    arr = np.asarray(symbols, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 15:
        raise ConfigurationError("symbols must be in 0..15")
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return IEEE154_CHIPS[arr].ravel()


def chips_to_oqpsk(chips: npt.ArrayLike, sps: int = 2) -> np.ndarray:
    """O-QPSK modulate a chip array with half-sine pulses.

    Even-index chips ride the I rail, odd-index chips the Q rail delayed
    by half a chip period. Output rate is ``sps`` samples per chip and
    the waveform is normalized to unit RMS over the chip span; the Q
    rail's half-chip tail is kept. Each rail's pulses are contiguous and
    non-overlapping, so placing them is one outer product per rail.
    """
    arr = as_bit_array(chips)
    if arr.size % 2:
        raise ConfigurationError("chip count must be even for O-QPSK")
    if sps < 2 or sps % 2:
        raise ConfigurationError("sps must be an even integer >= 2")
    levels = 2.0 * arr.astype(float) - 1.0
    pulse = half_sine_pulse(2 * sps)  # each rail symbol spans two chips
    span = arr.size * sps
    i_rail = np.zeros(span + sps)
    q_rail = np.zeros(span + sps)
    i_rail[:span] = (levels[0::2, None] * pulse).ravel()
    q_rail[sps:] = (levels[1::2, None] * pulse).ravel()
    wave = i_rail + 1j * q_rail
    rms = np.sqrt(np.mean(np.abs(wave[:span]) ** 2))
    return wave / max(float(rms), 1e-12)


@iq_contract("iq")
def oqpsk_to_chips(iq: np.ndarray, n_chips: int, sps: int = 2) -> np.ndarray:
    """Matched-filter chip decisions from an O-QPSK waveform.

    Assumes the waveform starts at chip 0 (frame sync done by the caller)
    and that any carrier phase was corrected. The I rail's pulse windows
    tile ``[0, n_pairs*2*sps)`` and the Q rail's the same span offset by
    ``sps``, so the per-pair matched filters are two ``(n_pairs,
    2*sps) @ pulse`` products; a decision is the correlation's sign.

    Raises:
        DecodeError: if ``iq`` ends before the last chip pair's Q window
            (a residual that ran out under the frame is a decode
            failure, not a caller bug).
    """
    if sps < 2 or sps % 2:
        raise ConfigurationError("sps must be an even integer >= 2")
    if n_chips % 2:
        raise ConfigurationError("n_chips must be even")
    pulse = half_sine_pulse(2 * sps)
    n_pairs = n_chips // 2
    span = n_pairs * 2 * sps
    # The last chip pair's Q window reaches furthest.
    if len(iq) < span + sps:
        raise DecodeError("segment too short for requested chips")
    iq = np.asarray(iq, dtype=np.complex128)
    i_corr = iq.real[:span].reshape(n_pairs, 2 * sps) @ pulse
    q_corr = iq.imag[sps : sps + span].reshape(n_pairs, 2 * sps) @ pulse
    chips = np.empty(n_chips, dtype=np.uint8)
    chips[0::2] = i_corr > 0
    chips[1::2] = q_corr > 0
    return chips


def despread_chips(chips: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Map hard chip decisions back to symbols by nearest chip sequence.

    Returns:
        ``(symbols, distances)`` where ``distances`` is the Hamming
        distance to the winning sequence per symbol (0..32) — a quality
        indicator the O-QPSK demodulator uses in place of a soft metric.

    Raises:
        ConfigurationError: if the chip count is not a multiple of 32.
    """
    arr = as_bit_array(chips)
    if arr.size % 32:
        raise ConfigurationError("chip count must be a multiple of 32")
    blocks = arr.reshape(-1, 32)
    # Hamming distance to each of the 16 sequences.
    dists = (blocks[:, None, :] != IEEE154_CHIPS[None, :, :]).sum(axis=2)
    symbols = np.argmin(dists, axis=1).astype(np.uint8)
    best = dists[np.arange(len(blocks)), symbols]
    return symbols, best
