"""LFSR data whitening.

Low-power PHYs whiten payloads so the on-air waveform has no long runs of
identical bits (which would break clock recovery and bias FSK
discriminators). Whitening is a XOR with a fixed pseudo-noise keystream, so
applying the same whitener twice is the identity — a property the test
suite checks with hypothesis.

Two generators are provided:

* :class:`Pn9Whitener` — the 802.15.4g / SUN-FSK PN9 sequence
  (x^9 + x^5 + 1, seed 0x1FF), also used by SigFox uplinks.
* :class:`LoraWhitener` — the 8-bit LFSR (x^8 + x^6 + x^5 + x^4 + 1) that
  matches the sequence used by open-source LoRa decoders.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError
from .bits import as_bit_array

__all__ = ["LfsrWhitener", "Pn9Whitener", "LoraWhitener"]


class LfsrWhitener:
    """Generic Fibonacci-LFSR whitener.

    The register is clocked once per output bit; the output bit is the
    register LSB and feedback is the XOR of the tapped positions.

    Args:
        taps: Tap positions (1-based exponents of the polynomial,
            excluding the constant term), e.g. ``(9, 5)`` for PN9.
        seed: Initial register contents (must be non-zero).
        width: Register width in bits; defaults to ``max(taps)``.
    """

    def __init__(self, taps: tuple[int, ...], seed: int, width: int | None = None):
        if not taps:
            raise ConfigurationError("at least one tap is required")
        self._taps = tuple(sorted(set(taps), reverse=True))
        self._width = width if width is not None else max(self._taps)
        if max(self._taps) > self._width:
            raise ConfigurationError("tap position exceeds register width")
        if seed <= 0 or seed >= (1 << self._width):
            raise ConfigurationError("seed must be a non-zero value fitting the register")
        self._seed = seed

    def keystream(self, n_bits: int) -> np.ndarray:
        """First ``n_bits`` whitening bits as a 0/1 uint8 array.

        Right-shift Fibonacci form: the output is the register LSB and
        the feedback for polynomial ``x^w + x^k + ... + 1`` is
        ``bit0 XOR bit_k XOR ...`` (the leading term is the output
        itself). With a primitive polynomial this yields the maximal
        period ``2^w - 1``, which the test suite verifies for all three
        whiteners.
        """
        reg = self._seed
        out = np.empty(n_bits, dtype=np.uint8)
        for i in range(n_bits):
            out[i] = reg & 1
            feedback = reg & 1
            for tap in self._taps:
                if tap != self._width:
                    feedback ^= (reg >> tap) & 1
            reg = (reg >> 1) | (feedback << (self._width - 1))
        return out

    def whiten_bits(self, bits: npt.ArrayLike) -> np.ndarray:
        """XOR ``bits`` with the keystream (involution)."""
        arr = as_bit_array(bits)
        return (arr ^ self.keystream(arr.size)).astype(np.uint8)

    def whiten_bytes(self, data: bytes) -> bytes:
        """Whiten a byte string (MSB-first bit order within each byte)."""
        bits = np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
        return np.packbits(self.whiten_bits(bits)).tobytes()


class Pn9Whitener(LfsrWhitener):
    """802.15.4g SUN-FSK PN9 whitener (x^9 + x^5 + 1, seed 0x1FF)."""

    def __init__(self) -> None:
        super().__init__(taps=(9, 5), seed=0x1FF)


class LoraWhitener(LfsrWhitener):
    """LoRa payload whitener (x^8 + x^6 + x^5 + x^4 + 1, seed 0xFF)."""

    def __init__(self) -> None:
        super().__init__(taps=(8, 6, 5, 4), seed=0xFF)
