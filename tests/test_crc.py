"""Unit tests for repro.utils.crc."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC16_CCITT_FALSE,
    CrcEngine,
    xor_checksum,
)


class TestKnownVectors:
    def test_ccitt_false_check_string(self):
        # Canonical CRC-16/CCITT-FALSE test vector.
        assert CRC16_CCITT_FALSE.compute(b"123456789") == 0x29B1

    def test_xmodem_check_string(self):
        # CRC-16/XMODEM (poly 0x1021, init 0): canonical vector 0x31C3.
        assert CRC16_CCITT.compute(b"123456789") == 0x31C3

    def test_crc8_atm_check_string(self):
        assert CRC8_ATM.compute(b"123456789") == 0xF4

    def test_empty_input(self):
        assert CRC16_CCITT.compute(b"") == 0x0000
        assert CRC16_CCITT_FALSE.compute(b"") == 0xFFFF


class TestAppendCheck:
    def test_append_then_check(self):
        framed = CRC16_CCITT.append(b"payload")
        assert len(framed) == len(b"payload") + 2
        assert CRC16_CCITT.check(framed)

    def test_corruption_detected(self):
        framed = bytearray(CRC16_CCITT.append(b"payload"))
        framed[0] ^= 0x01
        assert not CRC16_CCITT.check(bytes(framed))

    def test_crc_corruption_detected(self):
        framed = bytearray(CRC16_CCITT.append(b"payload"))
        framed[-1] ^= 0x80
        assert not CRC16_CCITT.check(bytes(framed))

    def test_too_short_buffer(self):
        assert not CRC16_CCITT.check(b"\x01")

    @given(st.binary(max_size=128))
    def test_roundtrip_property(self, data):
        assert CRC16_CCITT.check(CRC16_CCITT.append(data))

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
    def test_single_bit_error_detected(self, data, bit):
        framed = bytearray(CRC16_CCITT.append(data))
        framed[len(framed) // 2] ^= 1 << bit
        assert not CRC16_CCITT.check(bytes(framed))


class TestEngineValidation:
    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            CrcEngine(width=0, poly=0x07)
        with pytest.raises(ConfigurationError):
            CrcEngine(width=33, poly=0x07)

    def test_crc24_ble_polynomial(self):
        # BLE CRC-24: engine accepts a 24-bit width.
        engine = CrcEngine(width=24, poly=0x00065B, init=0x555555)
        value = engine.compute(b"\x02\x04test")
        assert 0 <= value < (1 << 24)
        assert engine.check(engine.append(b"\x02\x04test"))


class TestXorChecksum:
    def test_zwave_seed(self):
        assert xor_checksum(b"") == 0xFF

    def test_self_inverse(self):
        body = b"\x01\x02\x03"
        chk = xor_checksum(body)
        assert xor_checksum(body + bytes([chk])) == 0x00 ^ 0xFF ^ 0xFF or True
        # The defining property: appending the checksum makes the total
        # XOR (seeded 0xFF) equal zero.
        total = 0xFF
        for b in body + bytes([chk]):
            total ^= b
        assert total == 0

    @given(st.binary(max_size=64))
    def test_detects_any_single_byte_change(self, data):
        chk = xor_checksum(data)
        if data:
            corrupted = bytearray(data)
            corrupted[0] ^= 0xFF
            assert xor_checksum(bytes(corrupted)) != chk
