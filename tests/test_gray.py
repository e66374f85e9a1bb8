"""Unit tests for repro.utils.gray."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.gray import (
    gray_decode,
    gray_decode_array,
    gray_encode,
    gray_encode_array,
)


class TestScalar:
    def test_first_values(self):
        assert [gray_encode(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_zero(self):
        assert gray_encode(0) == 0
        assert gray_decode(0) == 0

    @given(st.integers(0, 1 << 20))
    def test_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(st.integers(0, (1 << 12) - 2))
    def test_adjacent_values_differ_in_one_bit(self, value):
        a = gray_encode(value)
        b = gray_encode(value + 1)
        assert bin(a ^ b).count("1") == 1

    def test_negative_rejected(self):
        import pytest

        with pytest.raises(ConfigurationError):
            gray_encode(-1)
        with pytest.raises(ConfigurationError):
            gray_decode(-3)


class TestVectorized:
    def test_matches_scalar(self):
        values = np.arange(1 << 10)
        encoded = gray_encode_array(values)
        assert encoded.tolist() == [gray_encode(int(v)) for v in values]

    def test_roundtrip_array(self):
        values = np.arange(1 << 12)
        assert np.array_equal(gray_decode_array(gray_encode_array(values)), values)

    def test_lora_bin_error_containment(self):
        """The property LoRa relies on: an off-by-one FFT bin error maps
        to a single bit error after the receiver's Gray mapping."""
        for sf in (7, 9, 12):
            n = 1 << sf
            syms = np.arange(n - 1)
            a = gray_encode_array(syms)
            b = gray_encode_array(syms + 1)
            diffs = np.array([bin(int(x ^ y)).count("1") for x, y in zip(a, b)])
            assert np.all(diffs == 1)

    def test_empty_array(self):
        assert gray_encode_array(np.array([], dtype=int)).size == 0
        assert gray_decode_array(np.array([], dtype=int)).size == 0
