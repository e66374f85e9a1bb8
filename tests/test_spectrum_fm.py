"""Unit tests for repro.dsp.fm."""

import numpy as np

from repro.dsp.fm import instantaneous_frequency, quadrature_demod


def _tone(freq, fs, n=8192):
    return np.exp(2j * np.pi * freq * np.arange(n) / fs)


class TestQuadratureDemod:
    def test_constant_tone(self):
        fs = 1e6
        freq = instantaneous_frequency(_tone(50e3, fs, 1000), fs)
        assert np.allclose(freq, 50e3, atol=1.0)

    def test_negative_frequency(self):
        fs = 1e6
        freq = instantaneous_frequency(_tone(-120e3, fs, 1000), fs)
        assert np.allclose(freq, -120e3, atol=1.0)

    def test_output_length(self):
        assert len(quadrature_demod(np.ones(100, complex))) == 99

    def test_short_input(self):
        assert len(quadrature_demod(np.ones(1, complex))) == 0

    def test_phase_invariance(self):
        fs = 1e6
        a = instantaneous_frequency(_tone(10e3, fs, 500), fs)
        b = instantaneous_frequency(_tone(10e3, fs, 500) * np.exp(1j * 1.23), fs)
        assert np.allclose(a, b)
