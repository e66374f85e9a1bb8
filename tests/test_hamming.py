"""Unit tests for repro.utils.hamming."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.hamming import HammingCodec


class TestConstruction:
    def test_valid_cr_range(self):
        for cr in (1, 2, 3, 4):
            assert HammingCodec(cr).codeword_length == 4 + cr

    def test_invalid_cr_rejected(self):
        for cr in (0, 5, -1):
            with pytest.raises(ConfigurationError):
                HammingCodec(cr)


class TestRoundTrip:
    @pytest.mark.parametrize("cr", [1, 2, 3, 4])
    def test_all_nibbles_roundtrip(self, cr):
        codec = HammingCodec(cr)
        for nibble in range(16):
            result = codec.decode_codeword(codec.encode_nibble(nibble))
            assert result.nibble == nibble
            assert not result.corrected
            assert not result.error

    def test_invalid_nibble_rejected(self):
        with pytest.raises(ConfigurationError):
            HammingCodec(4).encode_nibble(16)

    def test_wrong_codeword_length_rejected(self):
        with pytest.raises(ConfigurationError):
            HammingCodec(4).decode_codeword([0] * 7)


class TestErrorHandling:
    @pytest.mark.parametrize("cr", [3, 4])
    def test_single_error_corrected(self, cr):
        codec = HammingCodec(cr)
        for nibble in range(16):
            cw = codec.encode_nibble(nibble)
            for pos in range(len(cw)):
                bad = cw.copy()
                bad[pos] ^= 1
                result = codec.decode_codeword(bad)
                assert result.nibble == nibble, (nibble, pos)
                assert result.corrected

    @pytest.mark.parametrize("cr", [1, 2])
    def test_single_error_detected(self, cr):
        codec = HammingCodec(cr)
        for nibble in range(16):
            cw = codec.encode_nibble(nibble)
            # Flip a parity-covered position; detection-only codes flag it.
            bad = cw.copy()
            bad[-1] ^= 1
            assert codec.decode_codeword(bad).error

    def test_double_error_detected_cr4(self):
        codec = HammingCodec(4)
        detected = 0
        total = 0
        for nibble in range(16):
            cw = codec.encode_nibble(nibble)
            for i in range(8):
                for j in range(i + 1, 8):
                    bad = cw.copy()
                    bad[i] ^= 1
                    bad[j] ^= 1
                    total += 1
                    detected += int(codec.decode_codeword(bad).error)
        # (8,4) SECDED detects every double error.
        assert detected == total


class TestBulk:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=32))
    def test_encode_decode_bits(self, nibbles):
        codec = HammingCodec(4)
        bits = codec.encode_nibbles(np.array(nibbles, dtype=np.uint8))
        out, corrected, errors = codec.decode_bits(bits)
        assert out.tolist() == nibbles
        assert corrected == 0
        assert errors == 0

    def test_decode_bits_counts_corrections(self):
        codec = HammingCodec(4)
        bits = codec.encode_nibbles(np.arange(8, dtype=np.uint8))
        bits[3] ^= 1
        bits[11] ^= 1
        out, corrected, errors = codec.decode_bits(bits)
        assert out.tolist() == list(range(8))
        assert corrected == 2
        assert errors == 0

    def test_decode_bits_rejects_partial_codeword(self):
        with pytest.raises(ConfigurationError):
            HammingCodec(4).decode_bits([0] * 9)

    def test_empty(self):
        codec = HammingCodec(3)
        assert codec.encode_nibbles([]).size == 0
