"""Unit tests for the RTL-SDR front-end model."""

import math

import numpy as np
import pytest

from repro.dsp.impairments import quantize
from repro.errors import ConfigurationError
from repro.gateway.rtlsdr import RtlSdrConfig, RtlSdrModel


def _tone(freq, fs, n=8192):
    return np.exp(2j * np.pi * freq * np.arange(n) / fs)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = RtlSdrConfig()
        assert cfg.sample_rate == 1e6
        assert cfg.carrier_hz == 868e6
        assert cfg.adc_bits == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RtlSdrConfig(sample_rate=0)
        with pytest.raises(ConfigurationError):
            RtlSdrConfig(adc_bits=0)
        with pytest.raises(ConfigurationError):
            RtlSdrConfig(agc_headroom_db=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_rate", math.nan),
            ("sample_rate", math.inf),
            ("carrier_hz", math.nan),
            ("carrier_hz", math.inf),
            ("carrier_hz", -math.inf),
            ("ppm", math.nan),
            ("ppm", math.inf),
            ("ppm", -math.inf),
            ("iq_gain_db", math.nan),
            ("iq_gain_db", math.inf),
            ("iq_gain_db", -math.inf),
            ("iq_phase_deg", math.nan),
            ("iq_phase_deg", math.inf),
            ("iq_phase_deg", -math.inf),
            ("dc_offset", math.nan),
            ("dc_offset", complex(0.0, math.nan)),
            ("dc_offset", complex(math.inf, 0.0)),
            ("noise_floor", math.nan),
            ("noise_floor", math.inf),
            ("noise_floor", -math.inf),
            ("noise_floor", -0.1),
            ("agc_headroom_db", math.nan),
            ("agc_headroom_db", math.inf),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            RtlSdrConfig(**{field: value})


class TestCapture:
    def test_quantization_error_bounded(self, rng):
        model = RtlSdrModel()
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        y = model.capture(x, rng)
        # 8 bits with 12 dB headroom: error well below the signal.
        err = np.mean(np.abs(y - x) ** 2) / np.mean(np.abs(x) ** 2)
        assert err < 1e-2

    def test_cfo_applied(self, rng):
        model = RtlSdrModel(RtlSdrConfig(ppm=10.0))
        assert model.cfo_hz == pytest.approx(8680.0)
        fs = 1e6
        y = model.capture(_tone(0, fs), rng)
        freqs = np.fft.fftfreq(len(y), 1 / fs)
        peak = freqs[np.argmax(np.abs(np.fft.fft(y)))]
        assert peak == pytest.approx(8680.0, abs=fs / len(y))

    def test_dc_offset_creates_spike(self, rng):
        model = RtlSdrModel(RtlSdrConfig(dc_offset=0.05))
        y = model.capture(_tone(100e3, 1e6), rng)
        spectrum = np.abs(np.fft.fft(y))
        freqs = np.fft.fftfreq(len(y), 1e-6)
        dc_bin = spectrum[np.argmin(np.abs(freqs))]
        median = np.median(spectrum)
        assert dc_bin > 20 * median

    def test_iq_imbalance_creates_image(self, rng):
        model = RtlSdrModel(RtlSdrConfig(iq_gain_db=0.5, iq_phase_deg=2.0))
        fs = 1e6
        y = model.capture(_tone(150e3, fs), rng)
        spectrum = np.abs(np.fft.fft(y))
        freqs = np.fft.fftfreq(len(y), 1 / fs)
        image = spectrum[np.argmin(np.abs(freqs + 150e3))]
        signal = spectrum[np.argmin(np.abs(freqs - 150e3))]
        assert signal > image > np.median(spectrum)

    def test_noise_floor_requires_rng(self):
        model = RtlSdrModel(RtlSdrConfig(noise_floor=0.1))
        with pytest.raises(ConfigurationError):
            model.capture(np.ones(16, complex), None)

    def test_output_is_the_quantizer_at_the_agc_full_scale(self, rng):
        # tests/test_impairments.py pins quantize to the two-rail formula.
        x = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        x[::97] *= 20  # clip some samples on both rails
        rms = float(np.sqrt(np.mean(np.abs(x) ** 2)))
        full_scale = rms * 10 ** (RtlSdrConfig().agc_headroom_db / 20)
        expected = quantize(x, 8, full_scale)
        assert np.array_equal(RtlSdrModel().capture(x), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        x = np.ones(64, complex)
        x[10] = bad
        with pytest.raises(ConfigurationError):
            RtlSdrModel().capture(x)

    def test_silent_input(self, rng):
        model = RtlSdrModel()
        y = model.capture(np.zeros(64, complex), rng)
        assert np.all(y == 0)

    def test_capture_into_a_view(self, rng):
        x = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        buffer = np.full(6000, 3 + 3j)
        view = buffer[1000:]
        assert RtlSdrModel().capture(x, out=view) is view
        assert np.array_equal(view, RtlSdrModel().capture(x))
        assert np.all(buffer[:1000] == 3 + 3j)

    def test_silent_input_lands_in_the_view(self):
        # The AGC's zero-power early return writes its zeros into the
        # view too: the view is the stream's buffer, not a scratch copy.
        view = np.full(64, 3 + 3j)
        model = RtlSdrModel()
        assert model.capture(np.zeros(64, complex), out=view) is view
        assert np.all(view == 0)
        with pytest.raises(ConfigurationError, match="out must be"):
            model.capture(np.zeros(64, complex), out=np.zeros(64, np.complex64))
        with pytest.raises(ConfigurationError, match="out must be"):
            model.capture(np.zeros(64, complex), out=np.zeros(63, complex))

    def test_wrong_view_rejected(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        for out in (np.zeros(64, np.complex64), np.zeros(65, complex)):
            with pytest.raises(ConfigurationError, match="out must be"):
                RtlSdrModel().capture(x, out=out)

    def test_decode_survives_front_end(self, rng, xbee):
        # End-to-end sanity: the 8-bit front end must not break decoding.
        model = RtlSdrModel(RtlSdrConfig(dc_offset=0.01, iq_gain_db=0.2))
        payload = b"through-the-dongle"
        wave = np.concatenate(
            [np.zeros(500, complex), xbee.modulate(payload), np.zeros(500, complex)]
        )
        captured = model.capture(wave, rng)
        frame = xbee.demodulate(captured)
        assert frame.crc_ok and frame.payload == payload
