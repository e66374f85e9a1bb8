"""Unit tests for repro.dsp.measure."""

import numpy as np
import pytest

from repro.dsp.measure import occupied_bandwidth
from repro.errors import ConfigurationError


class TestOccupiedBandwidth:
    def test_single_tone_is_narrow(self):
        fs = 1e6
        n = 8192
        freq = fs * 820 / n  # exactly on an FFT bin: no leakage
        x = np.exp(2j * np.pi * freq * np.arange(n) / fs)
        assert occupied_bandwidth(x, fs) < 3 * fs / n

    def test_fsk_pair_measures_tone_spread(self, xbee):
        wave = xbee.modulate(b"\x00" * 16)
        bw = occupied_bandwidth(wave, xbee.sample_rate, fraction=0.99)
        # Carson bandwidth for the XBee profile is 100 kHz.
        assert 30e3 < bw < 200e3

    def test_lora_fills_its_band(self, lora):
        wave = lora.modulate(b"\x12" * 8)
        bw = occupied_bandwidth(wave, lora.sample_rate, fraction=0.99)
        assert 80e3 < bw < 200e3

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            occupied_bandwidth(np.ones(16, complex), 1e6, fraction=0.0)

    def test_empty(self):
        assert occupied_bandwidth(np.zeros(0, complex), 1e6) == 0.0
