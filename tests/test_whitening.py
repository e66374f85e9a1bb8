"""Unit tests for repro.utils.whitening."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.whitening import LfsrWhitener, LoraWhitener, Pn9Whitener


class TestKeystream:
    def test_pn9_is_deterministic(self):
        a = Pn9Whitener().keystream(64)
        b = Pn9Whitener().keystream(64)
        assert np.array_equal(a, b)

    def test_pn9_first_bits(self):
        # Seed 0x1FF: the first outputs are the register LSBs -> ones
        # until feedback starts flipping them.
        ks = Pn9Whitener().keystream(16)
        assert ks[0] == 1

    def test_pn9_period_is_511(self):
        ks = Pn9Whitener().keystream(511 * 2)
        assert np.array_equal(ks[:511], ks[511:1022])
        # and it is not shorter:
        for period in (7, 31, 63, 73, 127, 255):
            assert not np.array_equal(ks[:period], ks[period : 2 * period])

    def test_lora_whitener_differs_from_pn9(self):
        assert not np.array_equal(
            Pn9Whitener().keystream(64), LoraWhitener().keystream(64)
        )

    def test_keystream_is_balanced(self):
        ks = Pn9Whitener().keystream(511)
        ones = int(ks.sum())
        # An m-sequence of period 2^9-1 has exactly 256 ones.
        assert ones == 256


class TestInvolution:
    @given(st.binary(max_size=96))
    def test_bytes_involution_pn9(self, data):
        w = Pn9Whitener()
        assert w.whiten_bytes(w.whiten_bytes(data)) == data

    @given(st.binary(max_size=96))
    def test_bytes_involution_lora(self, data):
        w = LoraWhitener()
        assert w.whiten_bytes(w.whiten_bytes(data)) == data

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_bits_involution(self, bits):
        w = LoraWhitener()
        out = w.whiten_bits(w.whiten_bits(bits))
        assert out.tolist() == list(bits)

    def test_whitening_changes_data(self):
        data = bytes(32)  # all zeros: worst case for FSK without whitening
        whitened = Pn9Whitener().whiten_bytes(data)
        assert whitened != data
        # Whitened zeros ARE the keystream: roughly balanced.
        bits = np.unpackbits(np.frombuffer(whitened, dtype=np.uint8))
        assert 0.3 < bits.mean() < 0.7


class TestValidation:
    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            LfsrWhitener(taps=(9, 5), seed=0)

    def test_oversized_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            LfsrWhitener(taps=(9, 5), seed=1 << 9)

    def test_no_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            LfsrWhitener(taps=(), seed=1)

    def test_tap_exceeding_width_rejected(self):
        with pytest.raises(ConfigurationError):
            LfsrWhitener(taps=(9,), seed=1, width=8)

    def test_ble_channel37_whitener_valid(self):
        # The BLE modem's whitener parameters must construct cleanly.
        w = LfsrWhitener(taps=(7, 4), seed=0x65)
        ks = w.keystream(127 * 2)
        assert np.array_equal(ks[:127], ks[127:254])  # period 2^7 - 1
