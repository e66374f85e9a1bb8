"""Unit tests for repro.dsp.channel."""

import numpy as np
import pytest

from repro.dsp.channel import (
    add_at,
    noise_for_band_snr,
    scale_to_snr,
    signal_power,
)
from repro.errors import ConfigurationError


class TestSignalPower:
    def test_unit_tone(self):
        x = np.exp(1j * np.linspace(0, 10, 1000))
        assert signal_power(x) == pytest.approx(1.0)

    def test_empty(self):
        assert signal_power(np.zeros(0, complex)) == 0.0


class TestBandSnr:
    def test_full_band_equals_plain(self):
        assert noise_for_band_snr(1.0, 0.0, 1e6, 1e6) == pytest.approx(1.0)

    def test_narrowband_gets_more_total_noise(self):
        # A 125 kHz signal at 0 dB in-band tolerates 8x the full-band
        # noise power at 1 MHz.
        assert noise_for_band_snr(1.0, 0.0, 125e3, 1e6) == pytest.approx(8.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_for_band_snr(1.0, 0.0, 2e6, 1e6)

    def test_scale_to_snr_roundtrip(self, rng):
        x = np.exp(2j * np.pi * 0.03 * np.arange(10_000))
        noise_power = 2.0
        scaled = scale_to_snr(x, 7.0, noise_power, 125e3, 1e6)
        in_band_noise = noise_power * 125e3 / 1e6
        snr = 10 * np.log10(signal_power(scaled) / in_band_noise)
        assert snr == pytest.approx(7.0, abs=1e-9)

    def test_scale_zero_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_to_snr(np.zeros(10, complex), 0.0, 1.0, 1e5, 1e6)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
    def test_scale_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ConfigurationError):
            scale_to_snr(np.ones(10, complex), snr_db, 1.0, 1e5, 1e6)

    def test_scale_nan_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_to_snr(np.ones(10, complex), 0.0, 1.0, float("nan"), 1e6)


class TestAddAt:
    def test_simple_placement(self):
        buf = np.zeros(10, complex)
        add_at(buf, 3, np.ones(4, complex))
        assert buf.tolist() == [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]

    def test_clips_past_end(self):
        buf = np.zeros(5, complex)
        add_at(buf, 3, np.ones(4, complex))
        assert buf.tolist() == [0, 0, 0, 1, 1]

    def test_clips_before_start(self):
        buf = np.zeros(5, complex)
        add_at(buf, -2, np.arange(4, dtype=complex))
        assert buf.tolist() == [2, 3, 0, 0, 0]

    def test_fully_outside_is_noop(self):
        buf = np.zeros(5, complex)
        add_at(buf, 10, np.ones(3, complex))
        assert np.all(buf == 0)

    def test_accumulates(self):
        buf = np.zeros(4, complex)
        add_at(buf, 0, np.ones(4, complex))
        add_at(buf, 2, np.ones(2, complex))
        assert buf.tolist() == [1, 1, 2, 2]
