"""Unit tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.bits import (
    as_bit_array,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    bytes_to_nibbles,
    int_to_bits,
    nibbles_to_bytes,
)


class TestAsBitArray:
    def test_accepts_lists(self):
        out = as_bit_array([0, 1, 1, 0])
        assert out.dtype == np.uint8
        assert out.tolist() == [0, 1, 1, 0]

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            as_bit_array([0, 2])

    def test_empty(self):
        assert as_bit_array([]).size == 0


class TestBytesBits:
    def test_msb_first(self):
        assert bytes_to_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_lsb_first(self):
        assert bytes_to_bits(b"\x80", msb_first=False).tolist() == [
            0, 0, 0, 0, 0, 0, 0, 1,
        ]

    def test_alternating_preamble_byte(self):
        # 0x55 is the canonical FSK preamble byte of Table 1.
        assert bytes_to_bits(b"\x55").tolist() == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_roundtrip_msb(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_roundtrip_lsb(self):
        data = bytes(range(256))
        assert (
            bits_to_bytes(bytes_to_bits(data, msb_first=False), msb_first=False)
            == data
        )

    def test_non_multiple_of_eight_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_to_bytes([1, 0, 1])

    @given(st.binary(max_size=64), st.booleans())
    def test_roundtrip_property(self, data, msb):
        assert bits_to_bytes(bytes_to_bits(data, msb), msb) == data


class TestIntBits:
    def test_width_and_order(self):
        assert int_to_bits(5, 4).tolist() == [0, 1, 0, 1]
        assert int_to_bits(5, 4, msb_first=False).tolist() == [1, 0, 1, 0]

    def test_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(-1, 4)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(0, 0)

    @given(st.integers(0, 2**16 - 1), st.booleans())
    def test_roundtrip_property(self, value, msb):
        assert bits_to_int(int_to_bits(value, 16, msb), msb) == value


class TestNibbles:
    def test_split_high_first(self):
        assert bytes_to_nibbles(b"\xab").tolist() == [0xA, 0xB]

    def test_split_low_first(self):
        assert bytes_to_nibbles(b"\xab", high_first=False).tolist() == [0xB, 0xA]

    def test_join_rejects_odd(self):
        with pytest.raises(ConfigurationError):
            nibbles_to_bytes([1, 2, 3])

    def test_join_rejects_large_values(self):
        with pytest.raises(ConfigurationError):
            nibbles_to_bytes([16, 0])

    @given(st.binary(max_size=32), st.booleans())
    def test_roundtrip_property(self, data, high):
        assert nibbles_to_bytes(bytes_to_nibbles(data, high), high) == data
