"""Unit tests for repro.utils.interleaver."""

import numpy as np
import pytest

from repro.utils.interleaver import LoraDiagonalInterleaver


class TestLoraDiagonalInterleaver:
    def test_dimensions(self):
        il = LoraDiagonalInterleaver(7, 4)
        assert il.codeword_length == 8
        assert il.block_bits == 56

    def test_invalid_sf_rejected(self):
        with pytest.raises(ValueError):
            LoraDiagonalInterleaver(4, 4)

    def test_invalid_cr_rejected(self):
        with pytest.raises(ValueError):
            LoraDiagonalInterleaver(7, 0)

    def test_wrong_block_size_rejected(self):
        il = LoraDiagonalInterleaver(7, 4)
        with pytest.raises(ValueError):
            il.interleave_block([0] * 55)

    @pytest.mark.parametrize("sf,cr", [(7, 4), (7, 1), (9, 2), (12, 4), (5, 3)])
    def test_roundtrip(self, sf, cr):
        il = LoraDiagonalInterleaver(sf, cr)
        rng = np.random.default_rng(sf * 10 + cr)
        bits = rng.integers(0, 2, il.block_bits).astype(np.uint8)
        assert np.array_equal(il.deinterleave_block(il.interleave_block(bits)), bits)

    def test_multi_block_roundtrip(self):
        il = LoraDiagonalInterleaver(8, 3)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 3 * il.block_bits).astype(np.uint8)
        assert np.array_equal(il.deinterleave(il.interleave(bits)), bits)

    def test_diagonal_error_spreading(self):
        """One corrupted on-air symbol injects at most one bit error per
        codeword — the property that matches the Hamming FEC."""
        sf, cr = 7, 4
        il = LoraDiagonalInterleaver(sf, cr)
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, il.block_bits).astype(np.uint8)
        on_air = il.interleave_block(bits)
        # Corrupt one whole on-air symbol (sf contiguous bits).
        for symbol in range(il.codeword_length):
            bad = on_air.copy()
            bad[symbol * sf : (symbol + 1) * sf] ^= 1
            recovered = il.deinterleave_block(bad)
            errors = (recovered != bits).reshape(sf, 4 + cr).sum(axis=1)
            assert errors.max() <= 1, f"symbol {symbol} hit a codeword twice"

    def test_is_permutation(self):
        il = LoraDiagonalInterleaver(7, 2)
        marker = np.arange(il.block_bits) % 2
        out = il.interleave_block(marker.astype(np.uint8))
        assert sorted(out.tolist()) == sorted(marker.tolist())
