"""Vectorized PHY and cancellation kernels against their loop references.

Each hot loop of the modems and the cloud runs as one vectorized NumPy
kernel in the module that uses it. The per-element loops they replaced
live only here, as the references:

* *bit-identical*: integer/gather kernels (CSS symbol gather, D-BPSK
  cumulative XOR, 802.15.4 nibble expansion), the batched ``KillCss``
  (row-wise FFTs round like one FFT per window) and the greedy
  min-distance suppression must match their loops exactly —
  ``array_equal``, no tolerance.
* *allclose*: float kernels (O-QPSK rails, LoRa derotation and fine-sync
  metric, blocked least squares, the FSK frequency track, the SIC
  alignment metric) sum in a different order, so arrays match to a
  tolerance set from float64 rounding, and discrete decisions drawn
  from them (chips, chosen candidates) match exactly.
* *end to end*: each modem modulates and decodes a clean frame the same
  with its kernels off, i.e. swapped for their loop references.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.cloud.classify import ClassifiedSignal
from repro.cloud.kill_filters import KillCss
from repro.cloud.sic import _align_start
from repro.dsp.chirp import base_downchirp, base_upchirp, lora_symbol
from repro.dsp.correlation import find_peaks_above, greedy_suppress, top_peaks
from repro.dsp.filters import blocked_ls_subtract, design_lowpass_fir, half_sine_pulse
from repro.dsp.fm import quadrature_demod
from repro.errors import DecodeError
from repro.phy import create_modem
from repro.phy.ble import modem as ble_modem
from repro.phy.css import modulate_symbols
from repro.phy.dsss import chips_to_oqpsk, oqpsk_to_chips, symbols_to_bits
from repro.phy.fsk import fsk_frequency_track, fsk_modulate
from repro.phy.lora import modem as lora_modem
from repro.phy.lora.modem import LoRaModem, _derotate, _fine_sync_metrics
from repro.phy.oqpsk154 import modem as oqpsk_modem
from repro.phy.psk import dbpsk_encode
from repro.phy.sigfox import modem as sigfox_modem
from repro.phy.xbee import modem as xbee_modem
from repro.phy.zwave import modem as zwave_modem

from .conftest import pad


def _complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _loop_derotate(iq: np.ndarray, freq_hz: float, sample_rate_hz: float) -> np.ndarray:
    """The per-sample phasor the LoRa demodulator used to build."""
    return iq * np.exp(-2j * np.pi * freq_hz * np.arange(len(iq)) / sample_rate_hz)


def _loop_fine_sync_metrics(iq, ref, lo, n_candidates, block, n_blocks):
    """Candidate-by-candidate ``vdot`` scan (the einsum replaced)."""
    return np.array(
        [
            sum(
                abs(
                    np.vdot(
                        ref[b * block : (b + 1) * block],
                        iq[lo + c + b * block : lo + c + (b + 1) * block],
                    )
                )
                for b in range(n_blocks)
            )
            for c in range(n_candidates)
        ]
    )


def _loop_modulate_symbols(symbols, sf: int, oversample: int = 1) -> np.ndarray:
    """Symbol-by-symbol chirp concatenation (the gather replaced)."""
    return np.concatenate(
        [lora_symbol(int(s), sf=sf, oversample=oversample) for s in np.ravel(symbols)]
    )


def _loop_dbpsk_encode(bits) -> np.ndarray:
    """Running-state XOR (the ``bitwise_xor.accumulate`` replaced)."""
    bits = np.asarray(bits, dtype=np.uint8)
    state = 0
    out = np.empty_like(bits)
    for i, b in enumerate(bits):
        state ^= int(b)
        out[i] = state
    return out


def _loop_symbols_to_bits(symbols) -> np.ndarray:
    """LSB-first nibble expansion, one shift at a time."""
    return np.array(
        [(int(s) >> k) & 1 for s in np.ravel(symbols) for k in range(4)],
        dtype=np.uint8,
    )


def _loop_fsk_track(iq, sample_rate_hz, sps, bandwidth_hz=None) -> np.ndarray:
    """The direct-convolution discriminator chain the FFT path replaced."""
    if len(iq) < 2:
        return np.zeros(len(iq))
    if bandwidth_hz is not None and bandwidth_hz < sample_rate_hz * 0.9:
        cutoff = min(bandwidth_hz / 2, 0.45 * sample_rate_hz)
        taps = design_lowpass_fir(129, cutoff, sample_rate_hz)
        iq = np.convolve(iq, taps, mode="same")
    inst = quadrature_demod(iq, gain=sample_rate_hz / (2 * np.pi))
    smooth = np.convolve(inst, np.ones(sps) / sps, mode="same")
    return np.concatenate(([smooth[0]], smooth))


def _loop_oqpsk_modulate(chips: np.ndarray, sps: int) -> np.ndarray:
    """Per-chip-pair rail placement (the loop ``chips_to_oqpsk`` replaced)."""
    levels = 2.0 * chips.astype(float) - 1.0
    pulse = half_sine_pulse(2 * sps)
    n_pairs = chips.size // 2
    i_rail = np.zeros((n_pairs + 1) * 2 * sps)
    q_rail = np.zeros((n_pairs + 1) * 2 * sps)
    for k in range(n_pairs):
        pos = k * 2 * sps
        i_rail[pos : pos + 2 * sps] += levels[2 * k] * pulse
        q_rail[pos + sps : pos + 3 * sps] += levels[2 * k + 1] * pulse
    wave = i_rail + 1j * q_rail
    rms = np.sqrt(np.mean(np.abs(wave[: n_pairs * 2 * sps]) ** 2))
    return wave[: n_pairs * 2 * sps + sps] / max(rms, 1e-12)


def _loop_oqpsk_chips(iq: np.ndarray, n_chips: int, sps: int) -> np.ndarray:
    """Per-chip-pair matched filter (the loop ``oqpsk_to_chips`` replaced)."""
    pulse = half_sine_pulse(2 * sps)
    energy = pulse @ pulse
    chips = np.empty(n_chips, dtype=np.uint8)
    for k in range(n_chips // 2):
        pos = k * 2 * sps
        seg_i = iq.real[pos : pos + 2 * sps]
        seg_q = iq.imag[pos + sps : pos + 3 * sps]
        if len(seg_i) < 2 * sps or len(seg_q) < 2 * sps:
            raise DecodeError("segment too short for requested chips")
        chips[2 * k] = 1 if (seg_i @ pulse) / energy > 0 else 0
        chips[2 * k + 1] = 1 if (seg_q @ pulse) / energy > 0 else 0
    return chips


def _loop_ls_subtract(ref, region, block):
    """Per-block least-squares fit (the loop ``blocked_ls_subtract``
    replaced); returns the residual and the first block's gain."""
    out = region.copy()
    first_gain = 0j
    for pos in range(0, len(ref), block):
        r = ref[pos : pos + block]
        x = region[pos : pos + block]
        energy = float(np.sum(np.abs(r) ** 2))
        if energy <= 0:
            continue
        gain = complex(np.sum(np.conj(r) * x) / energy)
        if pos == 0:
            first_gain = gain
        out[pos : pos + len(r)] = x - gain * r
    return out, first_gain


def _loop_kill_css(modem, samples, start, guard=2):
    """``KillCss.apply`` window by window (the loop the batched filter
    replaced): dechirp, one FFT, null the two strongest bins with their
    guard bins and +-2^SF aliases, inverse FFT, re-chirp."""
    out = samples.copy()
    n_sym = modem.samples_per_symbol
    down = base_downchirp(modem.sf, modem.oversample)
    up = base_upchirp(modem.sf, modem.oversample)
    start = max(int(start), 0)
    sfd_start = start + (modem.preamble_len + 2) * n_sym
    sfd_end = sfd_start + n_sym * 9 // 4
    n_chips = 1 << modem.sf
    pos = start
    while pos + n_sym <= len(out):
        ref = up if sfd_start <= pos < sfd_end else down
        spectrum = np.fft.fft(out[pos : pos + n_sym] * ref)
        n = len(spectrum)
        magnitude = np.abs(spectrum)
        for _ in range(2):
            peak = int(np.argmax(magnitude))
            for base in (peak, (peak - n_chips) % n, (peak + n_chips) % n):
                for off in range(-guard, guard + 1):
                    idx = (base + off) % n
                    spectrum[idx] = 0
                    magnitude[idx] = 0
        out[pos : pos + n_sym] = np.fft.ifft(spectrum) * np.conj(ref)
        pos += n_sym
    return out


def _loop_greedy(idx, sc, fixed, md):
    """The streaming gateway's bisect/insort greedy (the loop
    ``greedy_suppress`` replaced): candidates in descending score order,
    ties later-first, each accepted iff no accepted peak (``fixed``
    included) lies within ``md``."""
    from bisect import bisect_left, insort

    order = np.argsort(sc, kind="stable")[::-1]
    accepted = sorted(int(a) for a in fixed)
    status = np.zeros(len(idx), dtype=bool)
    for i in order:
        v = int(idx[i])
        j = bisect_left(accepted, v)
        near = (j > 0 and v - accepted[j - 1] < md) or (
            j < len(accepted) and accepted[j] - v < md
        )
        if near:
            continue
        insort(accepted, v)
        status[i] = True
    return status


class TestKernelEquivalence:
    def test_derotate_matches_formula(self, rng):
        iq = _complex(rng, 512)
        expected = iq * np.exp(-2j * np.pi * 750.0 / 1e6 * np.arange(512))
        assert np.array_equal(_derotate(iq, 750.0, 1e6), expected)
        np.testing.assert_allclose(
            _derotate(iq, 750.0, 1e6), _loop_derotate(iq, 750.0, 1e6), rtol=1e-12
        )

    def test_block_metrics_match_vdot_loop(self, rng):
        iq = _complex(rng, 800)
        ref = _complex(rng, 256)
        lo, n_candidates, block = 40, 17, 64
        n_blocks = len(ref) // block
        got = _fine_sync_metrics(iq, ref, lo, n_candidates, block, n_blocks)
        expected = _loop_fine_sync_metrics(iq, ref, lo, n_candidates, block, n_blocks)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_css_gather_bit_identical(self):
        symbols = [0, 1, 5, 127, 63]
        expected = _loop_modulate_symbols(symbols, sf=7, oversample=4)
        assert np.array_equal(modulate_symbols(symbols, sf=7, oversample=4), expected)

    def test_cumulative_xor_bit_identical(self, rng):
        bits = rng.integers(0, 2, size=257, dtype=np.uint8)
        expected = _loop_dbpsk_encode(bits)
        got = dbpsk_encode(bits)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    def test_nibble_bits_bit_identical(self, rng):
        symbols = rng.integers(0, 16, size=33, dtype=np.uint8)
        expected = _loop_symbols_to_bits(symbols)
        got = symbols_to_bits(symbols)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    def test_oqpsk_rails_roundtrip_matches_legacy(self, rng):
        chips = rng.integers(0, 2, size=64, dtype=np.uint8)
        wave = chips_to_oqpsk(chips, sps=4)
        np.testing.assert_allclose(
            wave, _loop_oqpsk_modulate(chips, 4), rtol=1e-12, atol=1e-12
        )
        assert np.array_equal(oqpsk_to_chips(wave, len(chips), sps=4), chips)
        noisy = wave + 0.4 * _complex(rng, len(wave))
        assert np.array_equal(
            oqpsk_to_chips(noisy, len(chips), sps=4),
            _loop_oqpsk_chips(noisy, len(chips), 4),
        )

    @pytest.mark.parametrize("cut", [1, 2, 4, 5, 8])
    def test_oqpsk_truncation_matches_legacy(self, rng, cut):
        # Both raise DecodeError exactly when the last chip pair's Q
        # window runs past the buffer.
        chips = rng.integers(0, 2, size=32, dtype=np.uint8)
        wave = chips_to_oqpsk(chips, sps=4)
        short = wave[: len(wave) - cut]
        with pytest.raises(DecodeError):
            _loop_oqpsk_chips(short, len(chips), 4)
        with pytest.raises(DecodeError):
            oqpsk_to_chips(short, len(chips), sps=4)

    def test_blocked_ls_matches_per_block_fit(self, rng):
        ref = _complex(rng, 300)
        region = 1.7j * ref + 0.01 * _complex(rng, 300)
        got, first_gain = blocked_ls_subtract(ref, region, 64)
        expected, expected_gain = _loop_ls_subtract(ref, region, 64)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)
        assert first_gain == pytest.approx(expected_gain)

    def test_blocked_ls_zero_energy_block_untouched(self):
        ref = np.zeros(128, complex)
        region = np.ones(128, complex)
        out, first_gain = blocked_ls_subtract(ref, region, 64)
        assert np.array_equal(out, region)
        assert first_gain == 0j

    def test_fsk_track_matches_direct_convolution(self, rng):
        fs, sps, bandwidth = 1e6, 25, 80e3
        bits = rng.integers(0, 2, size=64, dtype=np.uint8)
        iq = fsk_modulate(bits, sps, 20e3, fs) + 0.3 * _complex(rng, 64 * sps)
        expected = _loop_fsk_track(iq, fs, sps, bandwidth)
        got = fsk_frequency_track(iq, fs, sps, bandwidth)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-6)

    def test_fsk_channel_filter_uses_complex_taps(self, rng):
        # Complex taps keep fftconvolve on its complex-FFT path; real
        # taps round differently in the last bits.
        fs, sps, bandwidth = 1e6, 25, 80e3
        iq = _complex(rng, 2000)
        taps = design_lowpass_fir(129, bandwidth / 2, fs).astype(np.complex128)
        filtered = sp_signal.fftconvolve(iq, taps, mode="same")
        inst = quadrature_demod(filtered, gain=fs / (2 * np.pi))
        smooth = sp_signal.fftconvolve(inst, np.ones(sps) / sps, mode="same")
        expected = np.concatenate(([smooth[0]], smooth))
        assert np.array_equal(fsk_frequency_track(iq, fs, sps, bandwidth), expected)

    @pytest.mark.parametrize("start", [300, 310, 332])
    def test_align_start_matches_vdot_loop(self, rng, start):
        samples = _complex(rng, 4000)
        probe = samples[320:1320].copy()
        block, half = 256, 16
        got = _align_start(samples, probe, start, half, block)
        # The time-domain scan SIC used to run: strict-greater keeps
        # the earliest of tied candidates.
        lo = max(start - half, 0)
        hi = min(start + half, len(samples) - len(probe))
        best, best_metric = start, -1.0
        for cand in range(lo, hi + 1):
            window = samples[cand : cand + len(probe)]
            metric = sum(
                abs(np.vdot(probe[pos : pos + block], window[pos : pos + block]))
                for pos in range(0, len(probe), block)
            )
            if metric > best_metric:
                best, best_metric = cand, metric
        assert got == best


class TestKillCssEquivalence:
    """The batched ``KillCss.apply`` equals the per-window loop bit for
    bit: same windows, same reference chirps, same nulled bins."""

    MODEMS = {
        "sf7x8": LoRaModem(),
        "sf8x2": LoRaModem(sf=8, oversample=2, preamble_len=6),
        "sf7x1": LoRaModem(oversample=1),
    }

    @staticmethod
    def _frame_buffer(modem, rng, lead, tail):
        wave = modem.modulate(b"kill-css-ref")
        buffer = _complex(rng, lead + len(wave) + tail) * 0.1
        buffer[lead : lead + len(wave)] += wave
        return buffer

    @pytest.mark.parametrize("name", list(MODEMS))
    @pytest.mark.parametrize("with_frame", [False, True])
    def test_random_buffers(self, rng, name, with_frame):
        modem = self.MODEMS[name]
        n_sym = modem.samples_per_symbol
        kill = KillCss(modem)
        for _ in range(12):
            lead = int(rng.integers(0, 3 * n_sym))
            if with_frame:
                buffer = self._frame_buffer(
                    modem, rng, lead, int(rng.integers(0, 2 * n_sym))
                )
            else:
                buffer = _complex(rng, int(rng.integers(n_sym, 40 * n_sym)))
            start = lead + int(rng.integers(-8, 9))
            target = ClassifiedSignal("lora", start, 1.0, 1 + 0j)
            got = kill.apply(buffer, modem.sample_rate, target)
            assert np.array_equal(got, _loop_kill_css(modem, buffer, start))

    @pytest.mark.parametrize(
        "where", ["negative", "in_sfd", "past_end", "short", "partial_tail"]
    )
    def test_edge_starts_and_lengths(self, rng, where):
        modem = self.MODEMS["sf7x8"]
        n_sym = modem.samples_per_symbol
        lead = 700
        buffer = self._frame_buffer(modem, rng, lead, n_sym // 3)
        start = {
            "negative": -n_sym // 2,
            "in_sfd": lead + (modem.preamble_len + 2) * n_sym + n_sym // 3,
            "past_end": len(buffer) + 5,
            "short": 0,
            "partial_tail": lead + 17,
        }[where]
        if where == "short":
            buffer = buffer[: n_sym - 1]
        if where == "partial_tail":
            assert (len(buffer) - start) % n_sym  # a trailing partial window
        kill = KillCss(modem)
        target = ClassifiedSignal("lora", start, 1.0, 1 + 0j)
        got = kill.apply(buffer, modem.sample_rate, target)
        expected = _loop_kill_css(modem, buffer, start)
        assert np.array_equal(got, expected)
        if where in ("past_end", "short"):
            assert np.array_equal(got, buffer)


class TestGreedySuppression:
    """``greedy_suppress`` equals the bisect/insort greedy exactly,
    ties and pre-accepted peaks included."""

    def test_matches_loop_on_random_cases(self, rng):
        for _ in range(400):
            n = int(rng.integers(0, 300))
            idx = rng.choice(5000, size=n, replace=False)
            if rng.random() < 0.5:
                idx = np.sort(idx)
            # Coarse scores force ties.
            sc = rng.integers(0, int(rng.integers(1, 20)), size=n).astype(float)
            md = int(rng.integers(1, 400))
            fixed = rng.choice(5000, size=int(rng.integers(0, 5)), replace=False)
            got = greedy_suppress(idx, sc, md, fixed.tolist())
            assert np.array_equal(got, _loop_greedy(idx, sc, fixed, md))

    def test_find_peaks_above_is_the_loop_over_crossings(self, rng):
        for _ in range(100):
            scores = rng.integers(0, 8, size=2000).astype(float)
            threshold, md = 5.0, int(rng.integers(1, 200))
            candidates = np.flatnonzero(scores >= threshold)
            status = _loop_greedy(candidates, scores[candidates], (), md)
            expected = candidates[status].tolist()
            assert find_peaks_above(scores, threshold, md) == expected

    def test_top_peaks_are_the_best_of_find_peaks_above(self, rng):
        # The classifier keeps the best k peaks by (score desc, index
        # asc); top_peaks must pick exactly those, ties included.
        for trial in range(3000):
            n = int(rng.integers(0, 400))
            if trial % 3 == 0:
                scores = rng.integers(0, 6, size=n).astype(float)
            elif trial % 3 == 1:
                scores = np.round(rng.random(n), 2)
            else:
                scores = rng.random(n)
            threshold = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))
            md, k = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            expected = sorted(
                find_peaks_above(scores, threshold, md),
                key=lambda i: (-scores[i], i),
            )[:k]
            assert top_peaks(scores, threshold, md, k) == expected

    def test_top_peaks_skips_nan(self):
        scores = np.array([np.nan, 3.0, np.nan, 1.0, 2.0])
        assert top_peaks(scores, 1.0, 1, 2) == [1, 4]


#: Per modem: the module its kernels are looked up in, and each kernel
#: it calls mapped to that kernel's loop reference.
LOOP_KERNELS = {
    "lora": (
        lora_modem,
        {
            "modulate_symbols": _loop_modulate_symbols,
            "_derotate": _loop_derotate,
            "_fine_sync_metrics": _loop_fine_sync_metrics,
        },
    ),
    "xbee": (xbee_modem, {"fsk_frequency_track": _loop_fsk_track}),
    "zwave": (zwave_modem, {"fsk_frequency_track": _loop_fsk_track}),
    "ble": (ble_modem, {"fsk_frequency_track": _loop_fsk_track}),
    "sigfox": (sigfox_modem, {"dbpsk_encode": _loop_dbpsk_encode}),
    "oqpsk154": (
        oqpsk_modem,
        {
            "chips_to_oqpsk": _loop_oqpsk_modulate,
            "oqpsk_to_chips": _loop_oqpsk_chips,
            "symbols_to_bits": _loop_symbols_to_bits,
        },
    ),
}


class TestModemEquivalence:
    """Kernels on and off (swapped for their loop references) modulate
    and decode the same clean frame identically."""

    @pytest.mark.parametrize("name", list(LOOP_KERNELS), ids="off-{}".format)
    def test_decode_matches_reference(self, name, monkeypatch):
        payload = b"kernels"
        on_modem = create_modem(name)
        on_wave = on_modem.modulate(payload[: on_modem.max_payload])
        ref = on_modem.demodulate(pad(on_wave))
        module, references = LOOP_KERNELS[name]
        for attr, loop in references.items():
            monkeypatch.setattr(module, attr, loop)
        off_modem = create_modem(name)
        off_wave = off_modem.modulate(payload[: off_modem.max_payload])
        other = off_modem.demodulate(pad(off_wave))
        np.testing.assert_allclose(off_wave, on_wave, rtol=1e-12, atol=1e-12)
        assert other.payload == ref.payload == payload[: on_modem.max_payload]
        assert other.crc_ok and ref.crc_ok
        assert other.start == ref.start
