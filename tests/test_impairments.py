"""Unit tests for repro.dsp.impairments."""

import math

import numpy as np
import pytest

from repro.dsp.impairments import (
    apply_cfo,
    apply_dc_offset,
    apply_iq_imbalance,
    apply_phase,
    cfo_from_ppm,
    quantize,
)
from repro.errors import ConfigurationError


class TestCfo:
    def test_ppm_conversion(self):
        assert cfo_from_ppm(1.0, 868e6) == pytest.approx(868.0)
        assert cfo_from_ppm(-50.0, 868e6) == pytest.approx(-43_400.0)

    def test_shifts_tone(self):
        fs = 1e6
        x = np.ones(4096, complex)
        y = apply_cfo(x, 100e3, fs)
        freqs = np.fft.fftfreq(len(y), 1 / fs)
        peak = freqs[np.argmax(np.abs(np.fft.fft(y)))]
        assert peak == pytest.approx(100e3, abs=fs / len(y))

    def test_preserves_magnitude(self):
        x = np.exp(1j * np.linspace(0, 5, 100))
        y = apply_cfo(x, 1234.0, 1e6)
        assert np.allclose(np.abs(y), np.abs(x))


class TestPhase:
    def test_rotation(self):
        x = np.ones(4, complex)
        assert np.allclose(apply_phase(x, np.pi), -1.0)


class TestIqImbalance:
    def test_identity_when_balanced(self):
        x = np.exp(1j * np.linspace(0, 3, 64))
        assert np.allclose(apply_iq_imbalance(x, 0.0, 0.0), x)

    def test_creates_image_tone(self):
        fs = 1e6
        x = np.exp(2j * np.pi * 100e3 * np.arange(4096) / fs)
        y = apply_iq_imbalance(x, gain_db=1.0, phase_deg=3.0)
        spectrum = np.abs(np.fft.fft(y))
        freqs = np.fft.fftfreq(len(y), 1 / fs)
        signal = spectrum[np.argmin(np.abs(freqs - 100e3))]
        image = spectrum[np.argmin(np.abs(freqs + 100e3))]
        assert 0 < image < signal  # image exists but is weaker


class TestDcOffset:
    def test_adds_constant(self):
        x = np.zeros(8, complex)
        y = apply_dc_offset(x, 0.5 + 0.25j)
        assert np.allclose(y, 0.5 + 0.25j)


class TestQuantize:
    def test_error_bounded_by_step(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        full_scale = 4.0
        y = quantize(x, 8, full_scale)
        step = 2 * full_scale / 256
        inside = np.abs(x.real) < full_scale - step
        assert np.max(np.abs(y.real[inside] - x.real[inside])) <= step / 2 + 1e-12

    def test_clipping(self):
        x = np.array([10.0 + 0j])
        y = quantize(x, 8, 1.0)
        assert y[0].real < 1.0

    def test_one_bit(self):
        x = np.array([0.7 - 0.7j, -0.3 + 0.1j])
        y = quantize(x, 1, 1.0)
        assert set(np.abs(y.real)) == {0.5}

    def test_more_bits_less_error(self, rng):
        x = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        err = lambda bits: np.mean(np.abs(quantize(x, bits, 5.0) - x) ** 2)
        assert err(8) < err(4) < err(2)

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize(np.zeros(4, complex), 0, 1.0)
        with pytest.raises(ConfigurationError):
            quantize(np.zeros(4, complex), 8, 0.0)

    @pytest.mark.parametrize("full_scale", [math.nan, math.inf])
    def test_non_finite_full_scale_rejected(self, full_scale):
        with pytest.raises(ConfigurationError):
            quantize(np.ones(4, complex), 8, full_scale)


def _two_rail_quantize(x, n_bits, full_scale):
    """The reference quantizer: each rail clipped, divided, floored,
    offset by half a step and scaled back, then recombined."""
    step = 2 * full_scale / (1 << n_bits)

    def _quant(real):
        clipped = np.clip(real, -full_scale, full_scale - step / 2)
        return (np.floor(clipped / step) + 0.5) * step

    return _quant(x.real) + 1j * _quant(x.imag)


class TestQuantizeBitIdentity:
    """``quantize`` equals the two-rail reference bit for bit, dtype
    included, whatever the layout and precision of its input, and
    written into a caller's view (``out=``) as when it allocates."""

    FULL_SCALE = 2.0

    @pytest.fixture()
    def samples(self, rng):
        x = 3 * (rng.normal(size=4099) + 1j * rng.normal(size=4099))
        # Both rails clip on both sides.
        for rail in (x.real, x.imag):
            assert rail.max() > self.FULL_SCALE and rail.min() < -self.FULL_SCALE
        return x

    @pytest.mark.parametrize("n_bits", [1, 8])
    @pytest.mark.parametrize(
        "layout",
        [
            lambda x: x,
            lambda x: x[::4],
            lambda x: x.astype(np.complex64),
            lambda x: x.real.copy(),
        ],
        ids=["contiguous", "strided", "complex64", "real"],
    )
    def test_matches_two_rail_formula(self, samples, layout, n_bits):
        x = layout(samples)
        out = quantize(x, n_bits, self.FULL_SCALE)
        reference = _two_rail_quantize(x, n_bits, self.FULL_SCALE)
        assert out.dtype == reference.dtype
        assert np.array_equal(out, reference)

    def test_leaves_its_input_unchanged(self, samples):
        before = samples.copy()
        quantize(samples, 8, self.FULL_SCALE)
        assert np.array_equal(samples, before)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_into_a_view_matches_the_allocating_call(self, samples, dtype):
        # The stream hands quantize the tail of its next buffer: the
        # view gets the allocating call's bits, and nothing around it
        # is touched.
        x = samples.astype(dtype)
        buffer = np.full(len(x) + 700, 7 - 7j, dtype=dtype)
        view = buffer[300 : 300 + len(x)]
        out = quantize(x, 8, self.FULL_SCALE, out=view)
        assert out is view
        reference = quantize(x, 8, self.FULL_SCALE)
        assert view.dtype == reference.dtype
        assert np.array_equal(view, reference)
        assert np.all(buffer[:300] == 7 - 7j)
        assert np.all(buffer[300 + len(x) :] == 7 - 7j)

    def test_in_place_matches_the_allocating_call(self, samples):
        reference = quantize(samples, 8, self.FULL_SCALE)
        x = samples.copy()
        assert quantize(x, 8, self.FULL_SCALE, out=x) is x
        assert np.array_equal(x, reference)

    @pytest.mark.parametrize(
        "out",
        [
            np.zeros(15, complex),
            np.zeros(17, complex),
            np.zeros((16, 1), complex),
            np.zeros(16, np.complex64),
            np.zeros(16),
            np.zeros(32, complex)[::2],
            [0j] * 16,
        ],
        ids=["short", "long", "2-d", "complex64", "real", "strided", "list"],
    )
    def test_wrong_view_rejected(self, out):
        x = np.ones(16, complex)
        with pytest.raises(ConfigurationError, match="out must be"):
            quantize(x, 8, self.FULL_SCALE, out=out)
