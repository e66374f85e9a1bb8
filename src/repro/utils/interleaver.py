"""LoRa's diagonal bit interleaver.

:class:`LoraDiagonalInterleaver` writes a block of ``4 + CR`` Hamming
codewords of ``SF`` bits each as a ``(4+CR) x SF`` matrix and reads it
out along shifted diagonals, producing ``SF`` on-air symbols of
``4 + CR`` bits. The diagonal shift means one corrupted chirp symbol
injects at most one bit error into each codeword, which matches the
single-error-correcting Hamming code.

The class exposes exact inverses; the property tests assert
``deinterleave(interleave(x)) == x`` for random blocks.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .bits import as_bit_array

__all__ = ["LoraDiagonalInterleaver"]


class LoraDiagonalInterleaver:
    """LoRa diagonal interleaver for spreading factor ``sf`` and CR ``cr``.

    Interleaves blocks of ``sf`` codewords x ``(4 + cr)`` bits into
    ``sf`` symbols of ``4 + cr`` bits each.
    """

    def __init__(self, sf: int, cr: int):
        if not 5 <= sf <= 12:
            raise ValueError("sf must be in 5..12")
        if cr not in (1, 2, 3, 4):
            raise ValueError("cr must be in 1..4")
        self.sf = sf
        self.cr = cr

    @property
    def codeword_length(self) -> int:
        """Bits per codeword (``4 + cr``)."""
        return 4 + self.cr

    @property
    def block_bits(self) -> int:
        """Bits per interleaver block (``sf * (4 + cr)``)."""
        return self.sf * self.codeword_length

    def interleave_block(self, codeword_bits: npt.ArrayLike) -> np.ndarray:
        """Interleave ``sf`` codewords into ``4 + cr`` symbol bit-rows.

        Args:
            codeword_bits: flat array of ``sf * (4 + cr)`` bits laid out
                codeword-major (codeword 0 bits first).

        Returns:
            Flat array of the same size laid out symbol-major: the first
            ``sf`` bits form on-air symbol 0 (MSB first), and so on.
        """
        arr = as_bit_array(codeword_bits)
        if arr.size != self.block_bits:
            raise ValueError(
                f"expected {self.block_bits} bits per block, got {arr.size}"
            )
        cw = arr.reshape(self.sf, self.codeword_length)
        symbols = np.empty((self.codeword_length, self.sf), dtype=np.uint8)
        for col in range(self.codeword_length):
            for row in range(self.sf):
                # Diagonal read: symbol `col`, bit `row` comes from
                # codeword ((row + col) mod sf), bit position `col`.
                symbols[col, row] = cw[(row + col) % self.sf, col]
        return symbols.ravel()

    def deinterleave_block(self, symbol_bits: npt.ArrayLike) -> np.ndarray:
        """Exact inverse of :meth:`interleave_block`."""
        arr = as_bit_array(symbol_bits)
        if arr.size != self.block_bits:
            raise ValueError(
                f"expected {self.block_bits} bits per block, got {arr.size}"
            )
        symbols = arr.reshape(self.codeword_length, self.sf)
        cw = np.empty((self.sf, self.codeword_length), dtype=np.uint8)
        for col in range(self.codeword_length):
            for row in range(self.sf):
                cw[(row + col) % self.sf, col] = symbols[col, row]
        return cw.ravel()

    def interleave(self, bits: npt.ArrayLike) -> np.ndarray:
        """Interleave any whole number of blocks."""
        arr = as_bit_array(bits)
        if arr.size % self.block_bits:
            raise ValueError("bit count is not a multiple of the block size")
        blocks = [self.interleave_block(b) for b in arr.reshape(-1, self.block_bits)]
        return np.concatenate(blocks) if blocks else arr

    def deinterleave(self, bits: npt.ArrayLike) -> np.ndarray:
        """Inverse of :meth:`interleave`."""
        arr = as_bit_array(bits)
        if arr.size % self.block_bits:
            raise ValueError("bit count is not a multiple of the block size")
        blocks = [self.deinterleave_block(b) for b in arr.reshape(-1, self.block_bits)]
        return np.concatenate(blocks) if blocks else arr
