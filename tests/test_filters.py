"""Unit tests for repro.dsp.filters."""

import math

import numpy as np
import pytest
from scipy import fft as sp_fft

from repro.dsp.filters import (
    design_lowpass_fir,
    fft_bandpass,
    fft_notch,
    fir_filter,
    frequency_shift,
    gaussian_pulse,
    half_sine_pulse,
    moving_average,
)
from repro.errors import ConfigurationError


def _tone(freq, fs, n=4096):
    return np.exp(2j * np.pi * freq * np.arange(n) / fs)


class TestLowpassDesign:
    def test_passband_and_stopband(self):
        fs = 1e6
        taps = design_lowpass_fir(129, 100e3, fs)
        passband = fir_filter(_tone(50e3, fs), taps)
        stopband = fir_filter(_tone(300e3, fs), taps)
        p_pass = np.mean(np.abs(passband[200:-200]) ** 2)
        p_stop = np.mean(np.abs(stopband[200:-200]) ** 2)
        assert p_pass > 0.9
        assert p_stop < 1e-3

    def test_unit_dc_gain(self):
        taps = design_lowpass_fir(65, 10e3, 1e6)
        assert np.sum(taps) == pytest.approx(1.0, abs=1e-3)

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(65, 600e3, 1e6)
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(65, 0, 1e6)

    def test_too_few_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(2, 1e3, 1e6)


class TestGaussianPulse:
    def test_unit_sum(self):
        pulse = gaussian_pulse(0.5, 8)
        assert np.sum(pulse) == pytest.approx(1.0)

    def test_symmetry(self):
        pulse = gaussian_pulse(0.5, 10)
        assert np.allclose(pulse, pulse[::-1])

    def test_narrower_bt_means_wider_pulse(self):
        sharp = gaussian_pulse(1.0, 8)
        smooth = gaussian_pulse(0.3, 8)
        # Effective width via inverse participation ratio.
        width = lambda p: 1.0 / np.sum((p / p.sum()) ** 2)
        assert width(smooth) > width(sharp)

    def test_invalid_bt_rejected(self):
        with pytest.raises(ConfigurationError):
            gaussian_pulse(0.0, 8)


class TestHalfSine:
    def test_shape(self):
        pulse = half_sine_pulse(8)
        assert len(pulse) == 8
        assert pulse[0] == pytest.approx(0.0)
        assert np.max(pulse) <= 1.0

    def test_single_sample(self):
        assert half_sine_pulse(1).tolist() == [1.0]


class TestMovingAverage:
    def test_constant_preserved(self):
        out = moving_average(np.ones(100), 10)
        assert np.allclose(out[10:-10], 1.0)

    def test_length_preserved(self):
        assert len(moving_average(np.arange(50, dtype=float), 7)) == 50

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.ones(10), 0)


class TestFftMasks:
    def test_notch_removes_tone(self):
        fs = 1e6
        x = _tone(200e3, fs) + _tone(-100e3, fs)
        out = fft_notch(x, fs, [(190e3, 210e3)])
        spectrum = np.abs(np.fft.fft(out))
        freqs = np.fft.fftfreq(len(out), 1 / fs)
        killed = spectrum[np.argmin(np.abs(freqs - 200e3))]
        kept = spectrum[np.argmin(np.abs(freqs + 100e3))]
        assert killed < 1e-9 * kept

    def test_notch_negative_band(self):
        fs = 1e6
        n = 4096
        freq = -fs * 205 / n  # exactly on an FFT bin: no leakage
        x = _tone(freq, fs, n)
        out = fft_notch(x, fs, [(freq - 10e3, freq + 10e3)])
        assert np.mean(np.abs(out) ** 2) < 1e-12

    def test_bandpass_keeps_only_band(self):
        fs = 1e6
        x = _tone(10e3, fs) + _tone(400e3, fs)
        out = fft_bandpass(x, fs, (-50e3, 50e3))
        assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_reversed_band_edges_accepted(self):
        fs = 1e6
        x = _tone(0, fs)
        out = fft_notch(x, fs, [(10e3, -10e3)])
        assert np.mean(np.abs(out) ** 2) < 1e-12

    def test_masks_transform_at_next_fast_len(self, rng):
        # 10007 is prime: both masks pad to next_fast_len(n), mask that
        # grid's bins and return the first n samples.
        fs, n, band = 1e6, 10007, (-120e3, 80e3)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        nfft = sp_fft.next_fast_len(n)
        assert nfft != n
        freqs = np.fft.fftfreq(nfft, 1 / fs)
        inside = (freqs >= band[0]) & (freqs <= band[1])
        spectrum = sp_fft.fft(x, nfft)
        for out, zeroed in (
            (fft_notch(x, fs, [band]), inside),
            (fft_bandpass(x, fs, band), ~inside),
        ):
            assert len(out) == n
            expected = sp_fft.ifft(np.where(zeroed, 0, spectrum))[:n]
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fs", [math.nan, math.inf, 0.0, -1e6])
    def test_bad_sample_rate_rejected(self, fs):
        x = _tone(10e3, 1e6)
        with pytest.raises(ConfigurationError):
            fft_notch(x, fs, [(-10e3, 10e3)])
        with pytest.raises(ConfigurationError):
            fft_bandpass(x, fs, (-10e3, 10e3))

    @pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf])
    def test_non_finite_band_edge_rejected(self, edge):
        # A NaN edge used to notch nothing: a kill filter whose target
        # carries a NaN centre silently killed nothing.
        x = _tone(10e3, 1e6)
        with pytest.raises(ConfigurationError):
            fft_notch(x, 1e6, [(-10e3, 10e3), (edge, 10e3)])
        with pytest.raises(ConfigurationError):
            fft_bandpass(x, 1e6, (-10e3, edge))


class TestFrequencyShift:
    def test_moves_tone_up(self):
        fs = 1e6
        shifted = frequency_shift(_tone(0, fs), 100e3, fs)
        freqs = np.fft.fftfreq(len(shifted), 1 / fs)
        peak = freqs[np.argmax(np.abs(np.fft.fft(shifted)))]
        assert peak == pytest.approx(100e3, abs=fs / len(shifted))
