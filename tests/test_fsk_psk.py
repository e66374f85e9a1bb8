"""Unit tests for the FSK and PSK modulation cores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.fm import instantaneous_frequency
from repro.errors import ConfigurationError, ReproError
from repro.phy.fsk import fsk_demodulate_bits, fsk_frequency_track, fsk_modulate
from repro.phy.psk import (
    bpsk_demodulate_bits,
    bpsk_modulate,
    dbpsk_decode,
    dbpsk_demodulate_bits,
    dbpsk_encode,
    dbpsk_modulate,
)

FS = 1e6
SPS = 20
DEV = 25e3


class TestFskModulate:
    def test_constant_envelope(self):
        wave = fsk_modulate([1, 0, 1, 1, 0], SPS, DEV, FS, bt=0.5)
        assert np.allclose(np.abs(wave), 1.0)

    def test_length(self):
        assert len(fsk_modulate([1] * 10, SPS, DEV, FS)) == 10 * SPS

    def test_tone_frequencies_plain_fsk(self):
        ones = fsk_modulate([1] * 20, SPS, DEV, FS, bt=None)
        zeros = fsk_modulate([0] * 20, SPS, DEV, FS, bt=None)
        f1 = np.mean(instantaneous_frequency(ones, FS))
        f0 = np.mean(instantaneous_frequency(zeros, FS))
        assert f1 == pytest.approx(DEV, rel=0.02)
        assert f0 == pytest.approx(-DEV, rel=0.02)

    def test_gaussian_reduces_bandwidth(self):
        from repro.dsp.measure import occupied_bandwidth

        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 200)
        plain = fsk_modulate(bits, SPS, DEV, FS, bt=None)
        shaped = fsk_modulate(bits, SPS, DEV, FS, bt=0.5)
        assert occupied_bandwidth(shaped, FS) < occupied_bandwidth(plain, FS)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            fsk_modulate([1, 0], 1, DEV, FS)
        with pytest.raises(ConfigurationError):
            fsk_modulate([1, 0], SPS, 600e3, FS)

    def test_non_binary_bits_raise_a_repro_error(self):
        # The bit check lives in repro.utils.bits; it raised a bare
        # ValueError, outside the package's error hierarchy.
        with pytest.raises(ReproError):
            fsk_modulate([2, 0], 10, 25e3, 1e6)


class TestFskDemodulate:
    @given(st.lists(st.integers(0, 1), min_size=8, max_size=64))
    @settings(max_examples=20, deadline=None)
    def test_loopback_property(self, bits):
        wave = fsk_modulate(bits, SPS, DEV, FS, bt=0.5)
        out = fsk_demodulate_bits(wave, 0, len(bits), SPS, FS)
        assert out.tolist() == bits

    def test_plain_fsk_loopback(self):
        bits = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0]
        wave = fsk_modulate(bits, 25, 20e3, FS, bt=None)
        out = fsk_demodulate_bits(wave, 0, len(bits), 25, FS)
        assert out.tolist() == bits

    def test_channel_filter_helps_in_noise(self, rng):
        bits = rng.integers(0, 2, 400)
        wave = fsk_modulate(bits, SPS, DEV, FS, bt=0.5)
        noise = 1.5 * (
            rng.normal(size=len(wave)) + 1j * rng.normal(size=len(wave))
        ) / np.sqrt(2)
        noisy = wave + noise
        raw = fsk_demodulate_bits(noisy, 0, len(bits), SPS, FS)
        filtered = fsk_demodulate_bits(
            noisy, 0, len(bits), SPS, FS, bandwidth_hz=100e3
        )
        assert (filtered != bits).sum() < (raw != bits).sum()

    def test_cfo_threshold_compensation(self):
        bits = [1, 0] * 30
        wave = fsk_modulate(bits, SPS, DEV, FS, bt=0.5)
        cfo = 8e3
        shifted = wave * np.exp(2j * np.pi * cfo * np.arange(len(wave)) / FS)
        out = fsk_demodulate_bits(
            shifted, 0, len(bits), SPS, FS, threshold_hz=cfo
        )
        assert out.tolist() == bits

    def test_range_check(self):
        wave = fsk_modulate([1, 0], SPS, DEV, FS)
        with pytest.raises(ConfigurationError):
            fsk_demodulate_bits(wave, 0, 3, SPS, FS)

    def test_track_alignment(self):
        wave = fsk_modulate([1] * 8 + [0] * 8, 25, 20e3, FS, bt=None)
        track = fsk_frequency_track(wave, FS, 25)
        assert len(track) == len(wave)
        assert track[4 * 25] > 0
        assert track[12 * 25] < 0


class TestBpsk:
    def test_levels(self):
        # Mid-symbol samples sit outside the edge smoothing.
        wave = bpsk_modulate([1, 0], 16)
        assert wave[8] == pytest.approx(1.0)
        assert wave[24] == pytest.approx(-1.0)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=48))
    @settings(max_examples=20, deadline=None)
    def test_loopback_property(self, bits):
        wave = bpsk_modulate(bits, 16)
        out = bpsk_demodulate_bits(wave, 0, len(bits), 16)
        assert out.tolist() == bits

    def test_invalid_sps_rejected(self):
        with pytest.raises(ConfigurationError):
            bpsk_modulate([1], 1)


class TestDbpsk:
    def test_encode_decode_inverse(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert dbpsk_decode(dbpsk_encode(bits)).tolist() == bits

    def test_encode_flips_on_ones(self):
        assert dbpsk_encode([1, 1, 0, 1]).tolist() == [1, 0, 0, 1]

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=48))
    @settings(max_examples=20, deadline=None)
    def test_waveform_loopback(self, bits):
        wave = dbpsk_modulate(bits, 16)
        out = dbpsk_demodulate_bits(wave, 0, len(bits), 16)
        assert out.tolist() == bits

    def test_phase_blind(self):
        # Differential decoding is phase-blind for every bit that has a
        # real reference symbol; the very first bit of a stream relies
        # on the implicit -1 reference and is NOT phase-blind (real
        # frames put a preamble there).
        bits = [1, 0, 0, 1, 1, 0, 1, 0]
        wave = dbpsk_modulate(bits, 16) * np.exp(1j * 1.9)
        out = dbpsk_demodulate_bits(wave, 16, len(bits) - 1, 16)
        assert out.tolist() == bits[1:]

    def test_mid_stream_decode_uses_reference_symbol(self):
        bits = [1, 0, 1, 1, 0, 1]
        wave = dbpsk_modulate(bits, 16)
        tail = dbpsk_demodulate_bits(wave, 2 * 16, len(bits) - 2, 16)
        assert tail.tolist() == bits[2:]
