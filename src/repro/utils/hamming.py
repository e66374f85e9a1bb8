"""Hamming forward error correction, LoRa style.

LoRa encodes each 4-bit nibble into a ``4 + CR`` bit codeword where
``CR`` (coding rate index) runs from 1 to 4:

========  ==========  ==============================================
CR index  Code        Capability
========  ==========  ==============================================
1         (5, 4)      single-error *detection* (even parity)
2         (6, 4)      single-error detection (two parity bits)
3         (7, 4)      single-error *correction* (classic Hamming)
4         (8, 4)      single-error correction + double detection
========  ==========  ==============================================

The (7,4) code uses the standard generator with parity equations

    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p3 = d2 ^ d3 ^ d4

and codeword layout ``[p1 p2 d1 p3 d2 d3 d4]`` so that the syndrome read
as a binary number directly indexes the corrupted position. The (8,4)
code appends an overall parity bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError
from .bits import as_bit_array

__all__ = ["HammingCodec", "DecodedNibble"]

_H74_POSITIONS = 7  # codeword length of the base code


@dataclass(frozen=True)
class DecodedNibble:
    """Result of decoding one codeword.

    Attributes:
        nibble: The recovered 4-bit value (0..15).
        corrected: True when a single-bit error was repaired.
        error: True when an uncorrectable/detected-only error remains.
    """

    nibble: int
    corrected: bool = False
    error: bool = False


class HammingCodec:
    """Encoder/decoder for the LoRa Hamming family.

    Args:
        cr: Coding-rate index, 1..4 (codeword length ``4 + cr``).

    Raises:
        ConfigurationError: if ``cr`` is outside 1..4.
    """

    def __init__(self, cr: int):
        if cr not in (1, 2, 3, 4):
            raise ConfigurationError("cr must be in 1..4")
        self.cr = cr

    @property
    def codeword_length(self) -> int:
        """Number of bits per codeword (``4 + cr``)."""
        return 4 + self.cr

    # -- single nibble ---------------------------------------------------

    def encode_nibble(self, nibble: int) -> np.ndarray:
        """Encode a 4-bit value into one codeword (uint8 bit array)."""
        if not 0 <= nibble <= 0x0F:
            raise ConfigurationError("nibble must be in 0..15")
        d1 = (nibble >> 3) & 1
        d2 = (nibble >> 2) & 1
        d3 = (nibble >> 1) & 1
        d4 = nibble & 1
        p1 = d1 ^ d2 ^ d4
        p2 = d1 ^ d3 ^ d4
        p3 = d2 ^ d3 ^ d4
        if self.cr == 1:
            parity = d1 ^ d2 ^ d3 ^ d4
            bits = [d1, d2, d3, d4, parity]
        elif self.cr == 2:
            bits = [d1, d2, d3, d4, p1, p2]
        elif self.cr == 3:
            bits = [p1, p2, d1, p3, d2, d3, d4]
        else:
            base = [p1, p2, d1, p3, d2, d3, d4]
            overall = 0
            for bit in base:
                overall ^= bit
            bits = base + [overall]
        return np.array(bits, dtype=np.uint8)

    def decode_codeword(self, codeword: npt.ArrayLike) -> DecodedNibble:
        """Decode one codeword, correcting when the code allows it."""
        bits = as_bit_array(codeword)
        if bits.size != self.codeword_length:
            raise ConfigurationError(
                f"codeword length {bits.size} != expected {self.codeword_length}"
            )
        if self.cr == 1:
            d = bits[:4]
            parity = int(np.bitwise_xor.reduce(bits))
            return DecodedNibble(self._nibble(d), error=bool(parity))
        if self.cr == 2:
            d = bits[:4]
            p1 = d[0] ^ d[1] ^ d[3]
            p2 = d[0] ^ d[2] ^ d[3]
            bad = bool(p1 != bits[4] or p2 != bits[5])
            return DecodedNibble(self._nibble(d), error=bad)
        if self.cr == 3:
            corrected, fixed = self._correct74(bits.copy())
            return DecodedNibble(self._extract74(corrected), corrected=fixed)
        # cr == 4: (8,4) SECDED
        base = bits[:7].copy()
        overall = int(np.bitwise_xor.reduce(bits))
        syndrome = self._syndrome74(base)
        if syndrome == 0 and overall == 0:
            return DecodedNibble(self._extract74(base))
        if overall == 1:
            # Odd weight error -> single error (possibly in the parity bit).
            if syndrome:
                base[syndrome - 1] ^= 1
            return DecodedNibble(self._extract74(base), corrected=True)
        # Even overall parity with non-zero syndrome: double error detected.
        return DecodedNibble(self._extract74(base), error=True)

    # -- bulk helpers ----------------------------------------------------

    def encode_nibbles(self, nibbles: npt.ArrayLike) -> np.ndarray:
        """Concatenate the codewords of a nibble sequence."""
        arr = np.asarray(nibbles, dtype=np.uint8).ravel()
        if arr.size == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate([self.encode_nibble(int(n)) for n in arr])

    def decode_bits(self, bits: npt.ArrayLike) -> tuple[np.ndarray, int, int]:
        """Decode a concatenation of codewords.

        Returns:
            ``(nibbles, n_corrected, n_errors)`` where ``nibbles`` is a
            uint8 array of recovered 4-bit values.

        Raises:
            ConfigurationError: if the bit count is not a multiple of the
                codeword length.
        """
        arr = as_bit_array(bits)
        if arr.size % self.codeword_length:
            raise ConfigurationError("bit count is not a multiple of the codeword length")
        nibbles = []
        corrected = 0
        errors = 0
        for row in arr.reshape(-1, self.codeword_length):
            result = self.decode_codeword(row)
            nibbles.append(result.nibble)
            corrected += int(result.corrected)
            errors += int(result.error)
        return np.array(nibbles, dtype=np.uint8), corrected, errors

    # -- internals -------------------------------------------------------

    @staticmethod
    def _nibble(d: np.ndarray) -> int:
        return (int(d[0]) << 3) | (int(d[1]) << 2) | (int(d[2]) << 1) | int(d[3])

    @staticmethod
    def _syndrome74(bits: np.ndarray) -> int:
        s1 = bits[0] ^ bits[2] ^ bits[4] ^ bits[6]
        s2 = bits[1] ^ bits[2] ^ bits[5] ^ bits[6]
        s3 = bits[3] ^ bits[4] ^ bits[5] ^ bits[6]
        return (int(s3) << 2) | (int(s2) << 1) | int(s1)

    @classmethod
    def _correct74(cls, bits: np.ndarray) -> tuple[np.ndarray, bool]:
        syndrome = cls._syndrome74(bits)
        if syndrome:
            bits[syndrome - 1] ^= 1
            return bits, True
        return bits, False

    @classmethod
    def _extract74(cls, bits: np.ndarray) -> int:
        d = np.array([bits[2], bits[4], bits[5], bits[6]], dtype=np.uint8)
        return cls._nibble(d)
