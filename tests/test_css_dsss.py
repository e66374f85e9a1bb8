"""Unit tests for the CSS and DSSS modulation cores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.phy.css import dechirp, demodulate_symbols, modulate_symbols, symbol_count
from repro.phy.dsss import (
    IEEE154_CHIPS,
    bits_to_symbols,
    chips_to_oqpsk,
    despread_chips,
    oqpsk_to_chips,
    spread_symbols,
    symbols_to_bits,
)


class TestCss:
    @pytest.mark.parametrize("sf", [5, 7, 9, 12])
    def test_symbol_count(self, sf):
        assert symbol_count(sf) == 1 << sf

    @given(st.lists(st.integers(0, 127), min_size=1, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_loopback_critical_rate(self, symbols):
        wave = modulate_symbols(symbols, sf=7)
        out, _ = demodulate_symbols(wave, len(symbols), sf=7)
        assert out.tolist() == symbols

    @pytest.mark.parametrize("oversample", [2, 4, 8])
    def test_loopback_oversampled(self, oversample):
        symbols = [0, 1, 64, 127, 100]
        wave = modulate_symbols(symbols, sf=7, oversample=oversample)
        out, _ = demodulate_symbols(
            wave, len(symbols), sf=7, oversample=oversample, bw=125e3
        )
        assert out.tolist() == symbols

    def test_loopback_in_noise(self, rng):
        symbols = rng.integers(0, 128, 20).tolist()
        wave = modulate_symbols(symbols, sf=7, oversample=8)
        # -6 dB per-sample SNR: CSS spreading gain dominates.
        noise = 2.0 * (
            rng.normal(size=len(wave)) + 1j * rng.normal(size=len(wave))
        ) / np.sqrt(2)
        out, mags = demodulate_symbols(
            wave + noise, len(symbols), sf=7, oversample=8, bw=125e3
        )
        assert out.tolist() == symbols
        assert np.all(mags > 0)

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ConfigurationError):
            modulate_symbols([128], sf=7)

    def test_short_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            demodulate_symbols(np.zeros(100, complex), 2, sf=7)

    def test_dechirp_turns_chirp_into_tone(self):
        wave = modulate_symbols([37], sf=7)
        tone = dechirp(wave, sf=7)
        spectrum = np.abs(np.fft.fft(tone))
        peak = spectrum.max()
        assert peak > 10 * np.median(spectrum)

    def test_empty_symbols(self):
        assert modulate_symbols([], sf=7).size == 0


class TestChipTable:
    def test_shape(self):
        assert IEEE154_CHIPS.shape == (16, 32)

    def test_balanced_chips(self):
        # Each 802.15.4 sequence has 16 or 17 ones (near-balanced).
        ones = IEEE154_CHIPS.sum(axis=1)
        assert np.all((ones >= 15) & (ones <= 17))

    def test_pairwise_distance(self):
        # The 16 sequences are near-orthogonal: pairwise Hamming
        # distance is large (>= 12 chips of 32).
        for i in range(16):
            for j in range(i + 1, 16):
                d = int((IEEE154_CHIPS[i] != IEEE154_CHIPS[j]).sum())
                assert d >= 12, (i, j, d)

    def test_cyclic_shift_structure(self):
        # Sequences 1..7 are 4-chip cyclic shifts of sequence 0.
        for k in range(1, 8):
            assert np.array_equal(
                IEEE154_CHIPS[k], np.roll(IEEE154_CHIPS[0], 4 * k)
            )


class TestDsssSymbols:
    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_bits_symbols_roundtrip(self, data):
        from repro.utils.bits import bytes_to_bits

        bits = bytes_to_bits(data, msb_first=False)
        out = symbols_to_bits(bits_to_symbols(bits))
        assert np.array_equal(out, bits)

    def test_spread_despread_roundtrip(self):
        symbols = np.arange(16, dtype=np.uint8)
        chips = spread_symbols(symbols)
        out, dists = despread_chips(chips)
        assert np.array_equal(out, symbols)
        assert np.all(dists == 0)

    def test_despread_corrects_chip_errors(self, rng):
        symbols = np.array([3, 9, 14, 0], dtype=np.uint8)
        chips = spread_symbols(symbols)
        bad = chips.copy()
        flip = rng.choice(len(bad), size=len(bad) // 8, replace=False)
        bad[flip] ^= 1  # 4 chip errors per symbol on average
        out, dists = despread_chips(bad)
        assert np.array_equal(out, symbols)
        assert dists.max() >= 1

    def test_non_multiple_rejected(self):
        with pytest.raises(ConfigurationError):
            despread_chips(np.zeros(33, dtype=np.uint8))


class TestOqpskWaveform:
    def test_chip_loopback(self, rng):
        chips = rng.integers(0, 2, 128).astype(np.uint8)
        wave = chips_to_oqpsk(chips, sps=4)
        out = oqpsk_to_chips(wave, len(chips), sps=4)
        assert np.array_equal(out, chips)

    def test_unit_rms(self, rng):
        chips = rng.integers(0, 2, 256).astype(np.uint8)
        wave = chips_to_oqpsk(chips, sps=2)
        rms = np.sqrt(np.mean(np.abs(wave[:-2]) ** 2))
        assert rms == pytest.approx(1.0, rel=0.1)

    def test_odd_chip_count_rejected(self):
        with pytest.raises(ConfigurationError):
            chips_to_oqpsk(np.ones(3, dtype=np.uint8), sps=2)

    def test_odd_sps_rejected(self):
        with pytest.raises(ConfigurationError):
            chips_to_oqpsk(np.ones(4, dtype=np.uint8), sps=3)

    def test_truncated_waveform_is_a_decode_error(self):
        # Regression: a residual that ran out under the frame used to
        # raise ConfigurationError, so the cloud's ReproError handling
        # treated a data-dependent truncation as a caller bug instead of
        # a clean miss. It must raise DecodeError (a ReproError).
        from repro.errors import DecodeError, ReproError

        chips = np.ones(64, dtype=np.uint8)
        wave = chips_to_oqpsk(chips, sps=4)
        with pytest.raises(DecodeError) as excinfo:
            oqpsk_to_chips(wave[: len(wave) // 2], len(chips), sps=4)
        assert isinstance(excinfo.value, ReproError)
        assert not isinstance(excinfo.value, ConfigurationError)

    def test_end_to_end_symbol_recovery(self):
        symbols = np.array([1, 5, 10, 15], dtype=np.uint8)
        wave = chips_to_oqpsk(spread_symbols(symbols), sps=2)
        chips = oqpsk_to_chips(wave, 32 * len(symbols), sps=2)
        out, _ = despread_chips(chips)
        assert np.array_equal(out, symbols)
