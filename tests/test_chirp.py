"""Unit tests for repro.dsp.chirp."""

import numpy as np
import pytest

from repro.dsp.chirp import (
    base_downchirp,
    base_upchirp,
    lora_symbol,
)
from repro.errors import ConfigurationError


class TestBaseChirps:
    def test_length(self):
        assert len(base_upchirp(7)) == 128
        assert len(base_upchirp(7, oversample=8)) == 1024

    def test_unit_modulus(self):
        up = base_upchirp(9)
        assert np.allclose(np.abs(up), 1.0)

    def test_downchirp_is_conjugate(self):
        assert np.allclose(base_downchirp(7), np.conj(base_upchirp(7)))

    def test_instantaneous_frequency_sweeps_band(self):
        sf, os_ = 7, 4
        up = base_upchirp(sf, os_)
        phase = np.unwrap(np.angle(up))
        freq = np.diff(phase) / (2 * np.pi)  # cycles/sample, fs = os*bw
        # Normalized frequency sweeps from -1/(2 os) to +1/(2 os).
        assert freq[0] == pytest.approx(-0.5 / os_, abs=0.02)
        assert freq[-1] == pytest.approx(0.5 / os_, abs=0.02)

    def test_invalid_sf_rejected(self):
        for sf in (4, 13):
            with pytest.raises(ConfigurationError):
                base_upchirp(sf)


class TestLoraSymbol:
    def test_symbol_zero_is_base(self):
        assert np.allclose(lora_symbol(0, 7), base_upchirp(7))

    def test_symbol_is_cyclic_shift(self):
        sym = lora_symbol(5, 7)
        assert np.allclose(sym, np.roll(base_upchirp(7), -5))

    def test_demodulates_to_fft_bin(self):
        for sf in (5, 7, 10):
            n = 1 << sf
            for k in (0, 1, n // 3, n - 1):
                tone = lora_symbol(k, sf) * base_downchirp(sf)
                assert int(np.argmax(np.abs(np.fft.fft(tone)))) == k

    def test_demodulates_with_oversampling(self):
        sf, os_ = 7, 8
        from repro.phy.css import demodulate_symbols

        wave = lora_symbol(100, sf, os_)
        syms, _ = demodulate_symbols(wave, 1, sf, os_, bw=125e3)
        assert syms[0] == 100

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ConfigurationError):
            lora_symbol(128, 7)

    def test_symbols_nearly_orthogonal(self):
        a = lora_symbol(10, 7)
        b = lora_symbol(60, 7)
        corr = abs(np.vdot(a, b)) / len(a)
        assert corr < 0.15
