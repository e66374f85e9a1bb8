"""Tests for the shared-FFT overlap-save engine (repro.dsp.fastcorr).

The engine is checked against references that live in this file and
compute each track with one full ``fftconvolve`` per template (the path
the engine replaced):

* raw tracks agree with :func:`~repro.dsp.correlation.cross_correlate`,
  and every detector's score track with ``_legacy_matched_filter_track``,
  to float tolerance (different FFT lengths round differently);
* ``segmented_correlation`` agrees with a per-block reference, and
  ``correlate_accumulate`` with a pair-order accumulation reference;
* **one score rule**: a coherent ``ScoreBank`` track (the detector's)
  is ``|correlate_many| / norm`` bit for bit, a blocked one the
  per-block fold of ``correlate_many``'s tracks to 1e-12, and a
  classifier track the detector track of the modem's strided sync
  template bit for bit;
* **row sharing**: templates equal up to a unit-modulus factor share
  one row (one inverse FFT per segment) and still agree with the
  references; anything else stays a row of its own;
* streamed detection equals monolithic detection exactly. Event-level
  output is pinned by the golden detection fixture;
* **range calls**: ``correlate_accumulate`` handed the previous
  signal's accumulators and the changed range equals a full call over
  the edited signal bit for bit (``array_equal``), and transforms fewer
  segments;
* **buffers**: a template scored alone equals its row in a two-row
  bank, and a strided input its contiguous copy, bit for bit; returned
  tracks share no memory with each other or the input;
* **single-precision screen**: ``peak_magnitudes``' peak is the peak of
  the engine's own complex64 track, that track stays within a hundredth
  of the returned bound of the complex128 one, and non-finite, tiny or
  overflowing input never yields a finite ``peak + bound`` below the
  exact peak.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.cloud import classify
from repro.cloud.classify import SegmentClassifier
from repro.dsp import fastcorr
from repro.dsp.correlation import (
    ScoreBank,
    cross_correlate,
    segmented_correlation,
    segmented_peak,
    top_peaks,
)
from repro.dsp.fastcorr import (
    SPECTRA_CACHE_SLOTS,
    TemplateBank,
    TrackSpec,
    accumulate_at,
    blocked_bank,
    clear_spectrum_plan_cache,
    correlate_accumulate,
    correlate_many,
    peak_magnitudes,
    screen_accumulate,
    spectrum_plan,
    spectrum_plan_cache_info,
)
from repro.dsp.resample import to_rate
from repro.errors import ConfigurationError
from repro.gateway import GalioTGateway, StreamingGateway, iter_chunks
from repro.gateway.detection import CorrelationDetector, PreambleBankDetector
from repro.gateway.universal import UniversalPreamble, UniversalPreambleDetector
from repro.phy import create_modem
from repro.phy.lora import LoRaModem
from repro.telemetry import NULL, Telemetry

FS = 1e6


def _noise(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


def _fftconvolve_tracks(x, bank, keys):
    """One full valid-mode ``fftconvolve`` per template."""
    return {
        key: sp_signal.fftconvolve(x, np.conj(bank.template(key)[::-1]), "valid")
        for key in keys
    }


def _fallback_accumulate(x, bank, specs):
    """The engine-free ``correlate_accumulate``: per-template tracks from
    :func:`_fftconvolve_tracks`, combined in pair order."""
    keys = {key for spec in specs.values() for key, _ in spec.pairs}
    tracks = _fftconvolve_tracks(x, bank, keys)
    acc = {group: np.zeros(spec.out_len) for group, spec in specs.items()}
    for group, spec in specs.items():
        for key, offset in spec.pairs:
            magnitude = np.abs(tracks[key][offset : offset + spec.out_len])
            acc[group] += magnitude**2 if spec.squared else magnitude
    return acc


def _per_block_segmented(x, template, block):
    """``segmented_correlation`` block by block: per-block correlation
    magnitudes summed, normalized by the template and window norms."""
    n_blocks = len(template) // block
    used = n_blocks * block
    out_len = len(x) - len(template) + 1
    acc = np.zeros(out_len)
    for b in range(n_blocks):
        seg = template[b * block : (b + 1) * block]
        corr = np.abs(cross_correlate(x, seg))
        acc += corr[b * block : b * block + out_len]
    template_norm = np.sqrt(np.sum(np.abs(template[:used]) ** 2)) + 1e-30
    power = np.concatenate(([0.0], np.cumsum(np.abs(x) ** 2)))
    window_norm = np.sqrt(np.maximum(power[len(template) :] - power[: -len(template)], 0))
    floor = max(float(window_norm.max()), template_norm) * 1e-9 + 1e-30
    return acc / (template_norm * np.maximum(window_norm, floor)[:out_len])


class TestSpectrumPlan:
    """The engine's one layout rule, for both precisions."""

    def test_plan_invariants(self):
        for n, max_len in [(1000, 1), (1000, 1000), (300_000, 50_000), (4096, 17)]:
            plan = spectrum_plan(n, max_len)
            assert plan.nfft >= max_len
            assert plan.nfft & (plan.nfft - 1) == 0
            assert plan.hop == plan.nfft - (max_len - 1)
            assert plan.hop >= 1
            # Segments tile the longest valid track completely.
            assert plan.n_segments * plan.hop >= n - max_len + 1

    def test_template_longer_than_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            spectrum_plan(100, 101)

    def test_plan_is_memoized(self):
        clear_spectrum_plan_cache()
        spectrum_plan(262_144, 8192)
        misses = spectrum_plan_cache_info().misses
        spectrum_plan(262_144, 8192)
        info = spectrum_plan_cache_info()
        assert info.misses == misses
        assert info.hits >= 1

    def test_short_buffer_is_one_segment(self):
        # Not thousands of one-lag segments: a bank mixing an 8,192- and
        # a 1,280-sample template over an 8,192-sample buffer has 6,913
        # lags of its shorter template to cover.
        plan = spectrum_plan(8192, 8192, 1280)
        assert (plan.nfft, plan.n_segments) == (16384, 1)
        # A buffer shorter than eight templates is one segment too.
        assert spectrum_plan(20_000, 8192).n_segments == 1
        # The gateway's buffers: eleven 32,768-point segments.
        for n in (270_335, 262_144):
            plan = spectrum_plan(n, 8192)
            assert (plan.nfft, plan.n_segments) == (32768, 11)

    def test_long_templates_are_capped_at_two_templates_or_2_15(self):
        # Eight templates up to 2**15 points; then 2**15, or the power
        # of two at or above two templates when that is longer.
        assert spectrum_plan(66_752, 20).nfft == 256  # XBee sync blocks
        assert spectrum_plan(10**6, 512).nfft == 4096
        assert spectrum_plan(10**6, 4096).nfft == 32768
        assert spectrum_plan(10**6, 16_385).nfft == 65536
        # SigFox's 50,000-sample template in a six-technology bank.
        assert spectrum_plan(10**6, 50_000, 1000).nfft == 131_072


class TestTemplateBank:
    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigurationError):
            TemplateBank({})

    def test_empty_template_rejected(self):
        with pytest.raises(ConfigurationError):
            TemplateBank({"a": np.zeros(0, complex)})

    def test_spectra_cached_per_nfft(self, rng):
        bank = TemplateBank({"a": _noise(rng, 64)})
        first = bank.spectra(256)
        assert bank.spectra(256) is first
        assert bank.spectra(512) is not first

    def test_spectra_cache_is_bounded(self, rng):
        bank = TemplateBank({"a": _noise(rng, 16)})
        sizes = [128 * (i + 1) for i in range(SPECTRA_CACHE_SLOTS + 3)]
        for nfft in sizes:
            bank.spectra(nfft)
        assert len(bank._spectra_cache) == SPECTRA_CACHE_SLOTS

    def test_spectra_match_template_fft(self, rng):
        template = _noise(rng, 48)
        bank = TemplateBank({"t": template})
        expected = np.conj(np.fft.fft(template, 256))
        assert np.allclose(bank.spectra(256)[0], expected)

    def test_blocked_bank_offsets(self, rng):
        template = _noise(rng, 10)
        bank = blocked_bank(template, 4)
        assert bank.keys() == [0, 4]  # short tail dropped
        solo = blocked_bank(template, None)
        assert solo.keys() == [0]
        assert len(solo.template(0)) == 10

    def test_blocked_bank_validation(self, rng):
        with pytest.raises(ConfigurationError):
            blocked_bank(_noise(rng, 10), 0)
        with pytest.raises(ConfigurationError):
            blocked_bank(_noise(rng, 3), 4)


class TestCorrelateMany:
    def test_matches_cross_correlate_per_template(self, rng):
        x = _noise(rng, 30_000)
        templates = {
            "long": _noise(rng, 5000),
            "mid": _noise(rng, 1280),
            "tiny": _noise(rng, 8),
        }
        bank = TemplateBank(templates)
        out = correlate_many(x, bank)
        for key, template in templates.items():
            reference = cross_correlate(x, template)
            assert out[key].shape == reference.shape
            assert np.allclose(out[key], reference, rtol=1e-9, atol=1e-11)

    def test_multi_segment_path(self, rng):
        # Long signal + short template forces several overlap-save
        # segments; the seams must be invisible.
        x = _noise(rng, 200_000)
        template = _noise(rng, 512)
        plan = spectrum_plan(len(x), len(template))
        assert plan.n_segments > 1
        out = correlate_many(x, TemplateBank({0: template}))
        assert np.allclose(
            out[0], cross_correlate(x, template), rtol=1e-9, atol=1e-11
        )

    def test_template_longer_than_signal_rejected(self, rng):
        bank = TemplateBank({0: _noise(rng, 100)})
        with pytest.raises(ConfigurationError):
            correlate_many(_noise(rng, 50), bank)

    def test_signal_exactly_template_length(self, rng):
        template = _noise(rng, 333)
        x = template.copy()
        out = correlate_many(x, TemplateBank({0: template}))
        assert out[0].shape == (1,)
        expected = np.sum(np.conj(template) * template)
        assert np.allclose(out[0][0], expected)

    def test_real_input_coerced(self, rng):
        # The ensure_iq boundary guard normalizes dtype (GL001 contract).
        x = rng.normal(size=500)
        template = _noise(rng, 32)
        out = correlate_many(x, TemplateBank({0: template}))
        assert np.allclose(
            out[0], cross_correlate(x.astype(complex), template),
            rtol=1e-9, atol=1e-11,
        )


def single_precision_tracks(x, bank, keys):
    """The complex64 tracks ``peak_magnitudes`` reduces to peaks: the
    engine's segment loop at the screen's layout, kept whole."""
    x = np.asarray(x, dtype=complex)
    lengths = [bank.length(key) for key in keys]
    rows, local = fastcorr._distinct_rows(bank, keys)
    plan = spectrum_plan(len(x), max(lengths), min(lengths))
    batches = [
        corr.transpose(1, 0, 2).reshape(len(rows), -1).copy()
        for _, corr in fastcorr._overlap_save(
            x, bank, rows, plan, fastcorr.NULL, dtype=np.complex64,
            lines=fastcorr.SCREEN_LINES,
        )
    ]
    tracks = np.concatenate(batches, axis=1)
    return {
        key: tracks[local[key], : len(x) - length + 1]
        for key, length in zip(keys, lengths, strict=True)
    }


def screen_error(x, bank, keys):
    """Per key: ``(peak, bound)``, the largest magnitude difference
    between the complex64 and complex128 tracks, and the complex128
    peak."""
    screened = peak_magnitudes(x, bank, keys=keys)
    single = single_precision_tracks(x, bank, keys)
    exact = correlate_many(x, bank)
    out = {}
    for key in keys:
        mag32 = np.abs(single[key])
        mag64 = np.abs(exact[key])
        err = float(np.max(np.abs(mag32.astype(float) - mag64)))
        out[key] = (*screened[key], err, float(mag64.max()), float(mag32.max()))
    return out


class TestPeakMagnitudes:
    """The screen's single-precision peak and its error bound."""

    @pytest.mark.parametrize("n", [5000, 5001, 70_000, 300_000])
    def test_peak_and_bound_against_the_complex128_tracks(self, rng, n):
        templates = {"long": _noise(rng, 5000), "short": _noise(rng, 700)}
        bank = TemplateBank(templates)
        x = _noise(rng, n)
        at = (n - 5000) // 3
        x[at : at + 5000] += 0.5 * templates["long"]
        for key, (peak, bound, err, peak64, peak32) in screen_error(
            x, bank, list(templates)
        ).items():
            assert peak == peak32, key
            assert err <= bound / 100, key
            assert peak64 <= peak + bound, key

    def test_several_batches_equal_one(self, rng, monkeypatch):
        # The peak sits in the middle one of five batches of one segment.
        template = _noise(rng, 1000)
        bank = TemplateBank({0: template})
        x = _noise(rng, 30_000)
        x[15_000:16_000] += 0.2 * template
        one = peak_magnitudes(x, bank)
        assert spectrum_plan(len(x), 1000).n_segments == 5
        monkeypatch.setattr(fastcorr, "BATCH_WORK_ELEMENTS", 8192)
        assert peak_magnitudes(x, bank) == one

    def test_bound_follows_the_loudest_segment(self, rng):
        template = _noise(rng, 1000)
        bank = TemplateBank({0: template})
        x = _noise(rng, 60_000)
        (_, quiet_bound), = peak_magnitudes(x, bank).values()
        loud = x.copy()
        loud[40_000:41_000] += 1000 * _noise(rng, 1000)
        (_, loud_bound), = peak_magnitudes(loud, bank).values()
        assert loud_bound > 100 * quiet_bound
        (peak, bound, err, peak64, _), = screen_error(loud, bank, [0]).values()
        assert err <= bound / 100
        assert peak64 <= peak + bound

    def test_spectra_cached_per_precision(self, rng):
        template = _noise(rng, 48)
        bank = TemplateBank({"t": template})
        double = bank.spectra(256)
        single = bank.spectra(256, np.complex64)
        assert double.dtype == np.complex128
        assert single.dtype == np.complex64
        assert bank.spectra(256, np.complex64) is single
        assert bank.spectra(256) is double
        assert np.array_equal(single, double.astype(np.complex64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e36])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_or_overflowing_input_never_passes(self, rng, bad):
        bank = TemplateBank({0: _noise(rng, 256)})
        x = _noise(rng, 4096)
        x[1000] = bad
        ((peak, bound),) = peak_magnitudes(x, bank).values()
        assert not peak + bound < np.finfo(float).max

    @pytest.mark.parametrize("scale", [0.0, 2.0**-70])
    def test_tiny_input_has_an_infinite_bound(self, rng, scale):
        bank = TemplateBank({0: _noise(rng, 256)})
        ((_, bound),) = peak_magnitudes(scale * _noise(rng, 4096), bank).values()
        assert bound == np.inf

    def test_keys_and_validation(self, rng):
        bank = TemplateBank({"a": _noise(rng, 64), "b": _noise(rng, 1999)})
        assert set(peak_magnitudes(_noise(rng, 2000), bank, keys=["a"])) == {"a"}
        assert peak_magnitudes(_noise(rng, 2000), bank, keys=[]) == {}
        with pytest.raises(ConfigurationError):
            peak_magnitudes(_noise(rng, 1000), bank)

    @pytest.mark.parametrize("n", [270_335, 262_144])
    def test_zero_lines_move_no_peak_or_bound(self, rng, monkeypatch, n):
        # The gateway's buffers: eleven 32,768-point segments run as
        # three groups of four lines, the last with one zero line. The
        # preamble sits in the last segment, the one beside it.
        template = _noise(rng, 8192)
        bank = TemplateBank({0: template})
        x = _noise(rng, n)
        x[n - 8192 :] += 0.3 * template
        assert spectrum_plan(n, 8192).n_segments == 11
        telemetry = Telemetry()
        grouped = peak_magnitudes(x, bank, telemetry=telemetry)
        counters = telemetry.snapshot()["counters"]
        assert counters["fastcorr.forward_ffts"] == 12
        assert counters["fastcorr.inverse_ffts"] == 12
        monkeypatch.setattr(fastcorr, "SCREEN_LINES", 1)
        assert peak_magnitudes(x, bank) == grouped
        (peak, bound, err, peak64, _), = screen_error(x, bank, [0]).values()
        assert err <= bound / 100
        assert peak64 <= peak + bound
        assert peak64 >= 0.9 * peak  # the planted peak, not noise

    def test_zero_lines_move_nothing_over_many_batches(self, rng, monkeypatch):
        # One second of air, as process() scores it: 41 segments. Cut
        # into batches of 8 (6 rounded up to whole groups of four) the
        # last batch holds one segment and three zero lines; no batch
        # yields a zero line, and every layout gives the same peak.
        template = _noise(rng, 8192)
        bank = TemplateBank({0: template})
        x = _noise(rng, 1_000_000)
        x[-8192:] += 0.3 * template
        plan = spectrum_plan(len(x), 8192)
        assert (plan.nfft, plan.n_segments) == (32768, 41)
        one_batch = peak_magnitudes(x, bank)
        monkeypatch.setattr(fastcorr, "BATCH_WORK_ELEMENTS", 6 * plan.nfft)
        batches = [
            (pos0, corr.shape[0])
            for pos0, corr in fastcorr._overlap_save(
                np.asarray(x), bank, [0], plan, fastcorr.NULL,
                dtype=np.complex64, lines=fastcorr.SCREEN_LINES,
            )
        ]
        assert batches == [(s * plan.hop, min(8, 41 - s)) for s in range(0, 41, 8)]
        assert peak_magnitudes(x, bank) == one_batch
        monkeypatch.setattr(fastcorr, "SCREEN_LINES", 1)
        assert peak_magnitudes(x, bank) == one_batch

    def test_short_buffer_plans_at_least_16_points(self, rng):
        # log2(nfft) >= 3 is what the bound's kappa is derived for.
        template = _noise(rng, 3)
        bank = TemplateBank({0: template})
        x = _noise(rng, 5)
        assert spectrum_plan(5, 3).nfft == 16
        (peak, bound, err, peak64, _), = screen_error(x, bank, [0]).values()
        assert err <= bound / 100
        assert peak64 <= peak + bound


class TestBuffers:
    """The segment loop's buffer handling changes no bit: a one-row
    bank multiplies its segment spectra in place, a two-row bank uses a
    product buffer; segments load from strided views. Every call, a
    one-segment one (a short buffer) included, copies its tracks out of
    the loop's buffers."""

    def test_alone_equals_its_row_in_a_two_row_bank_on_one_segment(self, rng):
        x = _noise(rng, 20_000)
        t, u = _noise(rng, 4000), _noise(rng, 4000)
        assert spectrum_plan(len(x), len(t)).n_segments == 1
        alone = correlate_many(x, TemplateBank({"t": t}))["t"]
        pair = correlate_many(x, TemplateBank({"t": t, "u": u}))["t"]
        assert np.array_equal(alone, pair)

    def test_alone_equals_its_row_in_a_two_row_bank_multi_batch(
        self, rng, monkeypatch
    ):
        x = _noise(rng, 200_000)
        t, u = _noise(rng, 512), _noise(rng, 512)
        plan = spectrum_plan(len(x), len(t))
        # Three segments per two-row batch and six per one-row batch.
        monkeypatch.setattr(fastcorr, "BATCH_WORK_ELEMENTS", 6 * plan.nfft)
        assert plan.n_segments > 12
        alone = correlate_many(x, TemplateBank({"t": t}))["t"]
        pair = correlate_many(x, TemplateBank({"t": t, "u": u}))["t"]
        assert np.array_equal(alone, pair)
        spec = {0: TrackSpec(pairs=(("t", 0),), out_len=len(x) - 511)}
        alone = correlate_accumulate(x, TemplateBank({"t": t}), spec)[0]
        pair = correlate_accumulate(x, TemplateBank({"t": t, "u": u}), spec)[0]
        assert np.array_equal(alone, pair)

    @pytest.mark.parametrize("n", [30_000, 400_000])
    def test_strided_input_equals_contiguous_copy(self, rng, n):
        x = _noise(rng, 4 * n)[::4]
        assert not x.flags.c_contiguous
        bank = TemplateBank({"a": _noise(rng, 3000), "b": _noise(rng, 200)})
        strided = correlate_many(x, bank)
        contiguous = correlate_many(x.copy(), bank)
        for key in bank.keys():
            assert np.array_equal(strided[key], contiguous[key])
        spec = {0: TrackSpec(pairs=(("a", 0), ("b", 7)), out_len=n - 2999)}
        assert np.array_equal(
            correlate_accumulate(x, bank, spec)[0],
            correlate_accumulate(x.copy(), bank, spec)[0],
        )

    def test_range_call_in_last_partial_segment(self, rng):
        n = 50_000
        bank = blocked_bank(_noise(rng, 400), 100)
        spec = {0: _blocked_spec(bank, n, squared=True)}
        plan = spectrum_plan(n, 100)
        last = (plan.n_segments - 1) * plan.hop
        # The last segment runs past the end of the signal, and only it
        # reads the changed span.
        assert last + plan.nfft > n
        lo = last - plan.hop + plan.nfft
        assert lo < n - 10
        x = _noise(rng, n)
        previous = correlate_accumulate(x, bank, spec)
        edited = x.copy()
        edited[lo:] = _noise(rng, n - lo)
        telemetry = Telemetry()
        ranged = correlate_accumulate(
            edited, bank, spec, telemetry=telemetry,
            previous=previous, changed=(lo, n),
        )
        assert telemetry.counters["fastcorr.forward_ffts"] < plan.n_segments
        assert np.array_equal(ranged[0], correlate_accumulate(edited, bank, spec)[0])

    @pytest.mark.parametrize("n, one_segment", [(2_000, True), (200_000, False)])
    def test_aliased_keys_share_no_memory(self, rng, n, one_segment):
        t = _noise(rng, 300)
        bank = TemplateBank({"t": t, "alias": np.exp(0.7j) * t, "copy": t.copy()})
        assert bank.n_distinct == 1 and bank.phase("copy") == 1
        assert (spectrum_plan(n, 300).n_segments == 1) == one_segment
        x = _noise(rng, n)
        out = correlate_many(x, bank)
        for a, b in [("t", "alias"), ("t", "copy"), ("alias", "copy")]:
            assert not np.shares_memory(out[a], out[b])
        assert not any(np.shares_memory(track, x) for track in out.values())
        assert np.array_equal(out["copy"], out["t"])
        assert np.array_equal(out["alias"], out["t"] * np.conj(bank.phase("alias")))


def _zwave_sync_bank(zwave):
    """The sub-block bank Z-Wave's demodulator syncs with: the sync
    reference and block at ``sample_sync``'s stride, full blocks
    only (``segmented_correlation``)."""
    stride = max(zwave._sps // 10, 1)
    block = max(2 * zwave._sps // stride, 4)
    return blocked_bank(zwave.sync_reference()[::stride], block)


def _blocked_spec(bank, n_samples, squared=False):
    """One accumulator over every block of a ``blocked_bank``."""
    used = sum(bank.length(key) for key in bank.keys())
    return TrackSpec(
        pairs=tuple((offset, offset) for offset in bank.keys()),
        out_len=n_samples - used + 1,
        squared=squared,
    )


class TestRowSharing:
    """Templates equal up to a unit-modulus factor share one row."""

    def test_zwave_sync_bank_has_three_distinct_rows(self, zwave):
        bank = _zwave_sync_bank(zwave)
        assert len(bank) == 44
        assert bank.n_distinct == 3
        assert bank.spectra(256).shape == (3, 256)

    def test_accumulate_runs_one_inverse_fft_per_distinct_row(self, zwave, rng):
        bank = _zwave_sync_bank(zwave)
        x = _noise(rng, 20_000)
        telemetry = Telemetry()
        correlate_accumulate(
            x, bank, {0: _blocked_spec(bank, len(x))}, telemetry=telemetry
        )
        counters = telemetry.snapshot()["counters"]
        n_segments = counters["fastcorr.forward_ffts"]
        assert counters["fastcorr.inverse_ffts"] == n_segments * 3

    @pytest.mark.parametrize("squared", [False, True])
    def test_accumulate_matches_fallback(self, zwave, rng, squared):
        bank = _zwave_sync_bank(zwave)
        x = _noise(rng, 20_000)
        specs = {0: _blocked_spec(bank, len(x), squared)}
        on = correlate_accumulate(x, bank, specs)[0]
        assert np.allclose(on, _fallback_accumulate(x, bank, specs)[0], rtol=1e-9)

    def test_mixed_specs_over_aliases_match_fallback(self, rng):
        # Squared and plain accumulators read the same shared rows.
        t = _noise(rng, 64)
        bank = TemplateBank({"t": t, "alias": np.exp(0.3j) * t, "u": _noise(rng, 64)})
        assert bank.n_distinct == 2
        x = _noise(rng, 5000)
        specs = {
            "sq": TrackSpec(pairs=(("t", 0), ("alias", 5)), out_len=4900),
            "abs": TrackSpec(
                pairs=(("alias", 0), ("u", 3)), out_len=4900, squared=False
            ),
        }
        on = correlate_accumulate(x, bank, specs)
        off = _fallback_accumulate(x, bank, specs)
        for group in specs:
            assert np.allclose(on[group], off[group], rtol=1e-9)

    def test_correlate_many_alias_matches_cross_correlate(self, rng):
        t = _noise(rng, 300)
        g = np.exp(1j * 2.1)
        templates = {"t": t, "alias": g * t, "other": _noise(rng, 300)}
        bank = TemplateBank(templates)
        assert bank.n_distinct == 2
        assert bank.row("alias") == bank.row("t")
        assert np.isclose(bank.phase("alias"), g, rtol=0, atol=1e-12)
        x = _noise(rng, 30_000)
        out = correlate_many(x, bank)
        for key, template in templates.items():
            assert np.allclose(
                out[key], cross_correlate(x, template), rtol=1e-9, atol=1e-11
            )

    def test_non_unit_scale_conjugate_length_and_silence_not_merged(self, rng):
        t = _noise(rng, 128)
        bank = TemplateBank(
            {
                "t": t,
                "scaled": 2 * t,
                "conj": np.conj(t),
                "shorter": t[:-1],
                "padded": np.concatenate([t, [0j]]),
                "silent": np.zeros(128, complex),
                "silent_too": np.zeros(128, complex),
            }
        )
        assert bank.n_distinct == len(bank)
        assert all(bank.phase(key) == 1 for key in bank.keys())


def _legacy_matched_filter_track(x, template, block):
    """The pre-engine implementation, kept verbatim as the reference."""
    from scipy import signal as sp_signal

    norm = float(np.sqrt(np.sum(np.abs(template) ** 2)))
    if block is None:
        return (
            np.abs(sp_signal.fftconvolve(x, np.conj(template[::-1]), "valid"))
            / norm
        )
    n_blocks = -(-len(template) // block)
    out_len = len(x) - len(template) + 1
    acc = np.zeros(out_len)
    for b in range(n_blocks):
        seg = template[b * block : (b + 1) * block]
        corr = np.abs(sp_signal.fftconvolve(x, np.conj(seg[::-1]), "valid"))
        acc += corr[b * block : b * block + out_len] ** 2
    return np.sqrt(acc) / norm


class TestScoreTrackEquivalence:
    """The engine against the per-template references for every scoring
    path."""

    @pytest.mark.parametrize("block", [None, 128, 333, 1000, 1001])
    def test_matched_filter_track(self, rng, block):
        x = _noise(rng, 20_000)
        template = _noise(rng, 1000)
        on = CorrelationDetector({None: template}, block=block).score_tracks(x)
        legacy = _legacy_matched_filter_track(x, template, block)
        assert np.allclose(on[None], legacy, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("block", [64, 333])
    def test_segmented_correlation(self, rng, block):
        x = _noise(rng, 10_000)
        template = _noise(rng, 1000)
        on = segmented_correlation(x, template, block)
        reference = _per_block_segmented(x, template, block)
        assert np.allclose(on, reference, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("block", [None, 1024])
    def test_bank_detector_tracks(self, trio, rng, block):
        detector = PreambleBankDetector(trio, FS, block=block)
        samples = _noise(rng, 40_000)
        on = detector.score_tracks(samples)
        assert list(on) == list(detector.templates)
        for name in on:
            legacy = _legacy_matched_filter_track(
                samples, detector.templates[name], block
            )
            assert np.allclose(on[name], legacy, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("block", [None, 700])
    def test_universal_detector_tracks(self, trio, rng, block):
        universal = UniversalPreamble.build(trio, FS)
        detector = UniversalPreambleDetector(universal, block=block)
        samples = _noise(rng, 40_000)
        on = detector.score_tracks(samples)
        assert list(on) == [None]
        legacy = _legacy_matched_filter_track(samples, universal.waveform, block)
        assert np.allclose(on[None], legacy, rtol=1e-9, atol=1e-11)


def _parent_blocked_track(x, template, block):
    """A blocked detector track folded by hand, as the detector did
    before its score rule moved into the engine's accumulator: every
    block's complex track off one shared bank, magnitudes squared and
    summed block by block."""
    offsets = range(0, len(template), block)
    bank = TemplateBank({off: template[off : off + block] for off in offsets})
    tracks = correlate_many(x, bank)
    out_len = len(x) - len(template) + 1
    score = np.zeros(out_len)
    for off in offsets:
        score += np.abs(tracks[off][off : off + out_len]) ** 2
    return np.sqrt(score) / float(np.sqrt(np.sum(np.abs(template) ** 2)))


class TestScoreBank:
    """One score rule (:class:`~repro.dsp.correlation.ScoreBank`) for
    the gateway detector and the cloud classifier: a coherent track is
    the engine's magnitude over the norm bit for bit, a blocked one the
    per-block fold up to the rounding of aliased blocks, and a
    classifier track the detector track of the modem's strided sync
    template."""

    @pytest.mark.parametrize("n", [9000, 40_000, 300_000])
    @pytest.mark.parametrize("small_batches", [False, True])
    def test_coherent_track_is_the_magnitude_over_the_norm(
        self, trio, rng, monkeypatch, n, small_batches
    ):
        if small_batches:
            monkeypatch.setattr(fastcorr, "BATCH_WORK_ELEMENTS", 3 * 8192)
        universal = UniversalPreamble.build(trio, FS)
        template = _noise(rng, 1000)
        x = _noise(rng, n)
        for detector, key, t in [
            (CorrelationDetector({"t": template}), "t", template),
            (UniversalPreambleDetector(universal), None, universal.waveform),
        ]:
            norm = float(np.sqrt(np.sum(np.abs(t) ** 2)))
            expected = np.abs(correlate_many(x, TemplateBank({key: t}))[key]) / norm
            assert np.array_equal(detector.score_tracks(x)[key], expected)

    @pytest.mark.parametrize("block", [100, 128, 333])
    def test_blocked_track_is_the_per_block_fold(self, trio, rng, block):
        universal = UniversalPreamble.build(trio, FS)
        # Ten copies of one block at rising phases: aliased rows.
        repeated = np.tile(_noise(rng, 100), 10) * np.exp(
            0.3j * np.arange(10).repeat(100)
        )
        x = _noise(rng, 40_000)
        for template in (_noise(rng, 1000), repeated, universal.waveform):
            track = CorrelationDetector({None: template}, block=block).score_tracks(x)
            np.testing.assert_allclose(
                track[None], _parent_blocked_track(x, template, block),
                rtol=1e-12, atol=0,
            )

    @pytest.mark.parametrize("tech", ["lora", "xbee", "zwave"])
    def test_classifier_track_is_the_detector_track(self, tech, rng, monkeypatch):
        modem = create_modem(tech)
        stride = max(int(modem.sync_decimation), 1)
        template = modem.sync_reference()[::stride]
        block = modem.sync_block
        if block is not None and stride > 1:
            block = max(block // stride, 8)
        seen = []

        def recording(track, *args):
            seen.append(track)
            return top_peaks(track, *args)

        monkeypatch.setattr(classify, "top_peaks", recording)
        x = _noise(rng, 60_000)
        SegmentClassifier([modem], FS).classify(x)
        sig = to_rate(x, FS, modem.sample_rate)[::stride]
        detector = CorrelationDetector({tech: template}, block=block)
        assert len(seen) == 1
        assert np.array_equal(seen[0], detector.score_tracks(sig)[tech])

    def test_telemetry_counters(self, rng):
        telemetry = Telemetry()
        x = _noise(rng, 50_000)
        scores = ScoreBank({i: _noise(rng, 256) for i in range(4)}, dict.fromkeys(range(4)))
        scores.tracks(x, range(4), telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["fastcorr.forward_ffts"] >= 1
        assert snapshot["counters"]["fastcorr.inverse_ffts"] >= 4
        assert "fastcorr.correlate.seconds" in snapshot["timers"]

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ScoreBank({"t": np.zeros(64, complex)}, {"t": None})
        with pytest.raises(ConfigurationError):
            ScoreBank({}, {})
        blocked = ScoreBank({"t": _noise(rng, 64)}, {"t": 16})
        with pytest.raises(ConfigurationError):
            blocked.peak_bounds(_noise(rng, 1000), ["t"], NULL)


def _scene(trio, rng, duration_s=0.3):
    from repro.net.scene import SceneBuilder

    builder = SceneBuilder(FS, duration_s)
    starts = (40_000, 120_000, 210_000)
    for i, (modem, start) in enumerate(zip(trio, starts, strict=True)):
        builder.add_packet(
            modem, f"fc-{i}".encode(), start, 12, rng, snr_mode="capture"
        )
    return builder.render(rng)


def _event_keys(events):
    return [(e.index, e.detector, e.technology) for e in events]


class TestEventEquivalence:
    """Detectors skip templates that do not fit the capture."""

    def test_template_longer_than_capture(self, trio, rng):
        universal = UniversalPreamble.build(trio, FS)
        detector = UniversalPreambleDetector(universal, threshold=5.0)
        short = _noise(rng, universal.length - 1)
        assert detector.detect(short) == []
        assert detector.stream_candidates(short) == []
        bank = PreambleBankDetector(trio, FS, threshold=5.0)
        longest = max(len(t) for t in bank.templates.values())
        short = _noise(rng, longest - 1)
        # Technologies whose template no longer fits are skipped, the
        # rest still score — with the shared engine planning only over
        # the templates actually requested.
        candidates = bank.stream_candidates(short)
        assert 0 < len(candidates) < len(bank.templates)


class TestStreamingEquivalence:
    """stream_candidates chunked at awkward sizes == one monolithic pass."""

    @pytest.mark.parametrize("chunk_offset", [-1, 0, 1])
    def test_awkward_chunks(self, trio, rng, chunk_offset):
        capture, truth = _scene(trio, rng)
        noise = _noise(rng, 80_000) * np.sqrt(truth.noise_power)
        universal = UniversalPreamble.build(trio, FS)
        chunk = universal.length + chunk_offset
        probe = GalioTGateway(trio, FS, use_edge=False)
        threshold = probe.detector.calibrate(noise)
        reference = GalioTGateway(trio, FS, use_edge=False, threshold=threshold).process(
            capture
        )
        gateway = GalioTGateway(trio, FS, use_edge=False, threshold=threshold)
        merged = StreamingGateway(gateway).process_stream(iter_chunks(capture, chunk))
        assert len(reference.events) > 0
        assert _event_keys(reference.events) == _event_keys(merged.events)
        assert [s.start for s in merged.segments] == [
            s.start for s in reference.segments
        ]


def _classify_banks(modems, n_samples):
    """Each classify group's bank and specs for a signal of ``n_samples``
    at that group's rate and stride, as the classifier scores them."""
    clf = SegmentClassifier(modems, FS)
    return [
        (group, clf._scores[group].bank, clf._scores[group].specs(n_samples, indices))
        for group, indices in clf._groups.items()
    ]


def _edits(rng, x, template):
    """Edited copies of ``x`` and their changed ranges: a zeroed span, a
    subtracted waveform, edits at either end, and no edit."""
    n = len(x)
    lo = int(rng.integers(n // 8, n // 2))
    zeroed = x.copy()
    zeroed[lo : lo + 3000] = 0
    at = int(rng.integers(0, n - len(template)))
    subtracted = x.copy()
    subtracted[at : at + len(template)] -= 0.7 * template
    head, tail = x.copy(), x.copy()
    head[:500] *= 0.5
    tail[-700:] = _noise(rng, 700)
    return {
        "zeroed": (zeroed, (lo, lo + 3000)),
        "subtracted": (subtracted, (at, at + len(template))),
        "head": (head, (0, 500)),
        "tail": (tail, (n - 700, n)),
        "none": (x.copy(), (0, 0)),
    }


class TestRangeCalls:
    """A range call equals a full call over the edited signal bit for
    bit: it keeps the full call's plan and batch alignment, so every
    recomputed entry folds the same lags in the same order."""

    def _check(self, rng, bank, specs, x, template):
        previous = correlate_accumulate(x, bank, specs)
        for name, (edited, changed) in _edits(rng, x, template).items():
            full_tel, range_tel = Telemetry(), Telemetry()
            full = correlate_accumulate(edited, bank, specs, telemetry=full_tel)
            ranged = correlate_accumulate(
                edited, bank, specs, telemetry=range_tel,
                previous=previous, changed=changed,
            )
            for group in specs:
                assert np.array_equal(ranged[group], full[group]), (name, group)
                assert ranged[group] is not previous[group]
            full_ffts = full_tel.counters["fastcorr.forward_ffts"]
            assert range_tel.counters.get("fastcorr.forward_ffts", 0) < full_ffts

    def test_classify_banks(self, trio, rng):
        n = 120_000
        for _, bank, specs in _classify_banks(trio, n):
            x = _noise(rng, n)
            template = bank.template(bank.keys()[0])
            self._check(rng, bank, specs, x, np.tile(template, 4)[:4000])

    def test_partial_tail_bank(self, rng):
        template = _noise(rng, 1000)
        # 10 full blocks + a 40-sample tail
        bank = TemplateBank(
            {off: template[off : off + 96] for off in range(0, 1000, 96)}
        )
        assert bank.length(960) == 40
        n = 30_000
        specs = {
            "sq": TrackSpec(
                pairs=tuple((key, key) for key in bank.keys()), out_len=n - 999
            ),
            "abs": TrackSpec(
                pairs=tuple((key, key) for key in bank.keys()),
                out_len=n - 999,
                squared=False,
            ),
        }
        self._check(rng, bank, specs, _noise(rng, n), template)

    def test_multi_batch_plan(self, zwave, rng, monkeypatch):
        bank = _zwave_sync_bank(zwave)
        n = 60_000
        spec = _blocked_spec(bank, n, squared=True)
        # Pairs in descending offset order fold each entry's lags batch
        # by batch out of pair order, so a batch grid shifted off
        # segment 0 would change the summation order.
        specs = {
            "up": spec,
            "down": TrackSpec(spec.pairs[::-1], spec.out_len, squared=True),
        }
        plan = spectrum_plan(n, bank.max_template_len)
        # Three segments per batch, so the zeroed span and the
        # subtracted waveform each meet several batches.
        monkeypatch.setattr(
            fastcorr, "BATCH_WORK_ELEMENTS", 3 * bank.n_distinct * plan.nfft
        )
        assert 3 * plan.hop < 2500 and plan.n_segments > 9
        template = zwave.sync_reference()[:2500]
        self._check(rng, bank, specs, _noise(rng, n), template)

    def test_previous_and_changed_go_together(self, rng):
        bank = blocked_bank(_noise(rng, 200), 50)
        x = _noise(rng, 2000)
        specs = {0: TrackSpec(pairs=((0, 0), (50, 50)), out_len=1801)}
        previous = correlate_accumulate(x, bank, specs)
        with pytest.raises(ConfigurationError):
            correlate_accumulate(x, bank, specs, previous=previous)
        with pytest.raises(ConfigurationError):
            correlate_accumulate(x, bank, specs, changed=(0, 10))
        with pytest.raises(ConfigurationError):
            correlate_accumulate(
                x[:-1], bank, {0: TrackSpec(((0, 0),), 1800)},
                previous=previous, changed=(0, 10),
            )


def sync_searches(lora, xbee, zwave):
    """``(name, reference, block)`` of every blocked sync search the
    trio's demodulators run, at their stride: the arguments
    ``sample_sync`` receives (LoRa at chip rate, and LoRa's
    ``oversample=1`` path)."""
    # SF8, so that the 1x search is not the chip-rate one of SF7.
    lora_1x = LoRaModem(sf=8, oversample=1)
    searches = [
        ("lora", lora.sync_reference()[:: lora.oversample], max((1 << lora.sf) // 4, 32)),
        ("lora-1x", lora_1x.sync_reference(), max((1 << lora_1x.sf) // 4, 32)),
    ]
    for modem in (xbee, zwave):
        stride = max(modem.sps // 10, 1)
        searches.append(
            (modem.name, modem.sync_reference()[::stride], max(2 * modem.sps // stride, 4))
        )
    return searches


def _sync_parts(reference, block, n_samples):
    """The bank and spec :func:`segmented_correlation` folds."""
    bank = blocked_bank(reference, block)
    spec = TrackSpec(
        pairs=tuple((offset, offset) for offset in bank.keys()),
        out_len=n_samples - len(reference) + 1,
        squared=False,
    )
    return bank, spec


def _planted(rng, reference, n, level, cfo=0.0):
    """Noise with ``reference`` at ``level`` and a carrier offset (in
    cycles per sample) at a random start."""
    x = _noise(rng, n)
    at = int(rng.integers(0, n - len(reference) + 1))
    ramp = np.exp(2j * np.pi * cfo * np.arange(len(reference)))
    x[at : at + len(reference)] += level * reference * ramp
    return x


class TestScreenAccumulate:
    """The sync screen's complex64 accumulator and its error bound."""

    @pytest.mark.parametrize("search", range(4))
    @pytest.mark.parametrize("interferer_db", [None, 40.0])
    def test_within_a_hundredth_of_the_bound(
        self, lora, xbee, zwave, rng, search, interferer_db
    ):
        _, reference, block = sync_searches(lora, xbee, zwave)[search]
        n = 12 * len(reference)
        x = _planted(rng, reference, n, 0.5, cfo=0.1 / block)
        if interferer_db is not None:
            lo = n // 3
            x[lo : lo + n // 4] += 10 ** (interferer_db / 20) * _noise(rng, n // 4)
        bank, spec = _sync_parts(reference, block, n)
        approx, bound = screen_accumulate(x, bank, spec)
        exact = correlate_accumulate(x, bank, {0: spec})[0]
        assert approx.dtype == np.float64
        assert np.array_equal(approx, approx.astype(np.float32))
        assert 0 < bound < np.inf
        assert np.abs(approx - exact).max() <= bound / 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e36, 1e39])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_or_overflowing_input_takes_the_exact_path(
        self, zwave, rng, bad
    ):
        # 1e36 times a 25-sample block stays inside float32's range, so
        # the screen keeps a finite bound and must still find the exact
        # peak; 1e39 overflows complex64 and leaves nothing proven.
        reference, block = zwave.sync_reference()[::2], 25
        x = _planted(rng, reference, 6000, 1.0)
        x[3000] = bad
        bank, spec = _sync_parts(reference, block, len(x))
        _, bound = screen_accumulate(x, bank, spec)
        assert np.isfinite(bound) == (bad == 1e36)
        scores = segmented_correlation(x, reference, block)
        best, score = segmented_peak(x, reference, block, 0.35)
        assert best == int(np.argmax(scores))
        assert score == scores[best] or (np.isnan(score) and np.isnan(scores[best]))

    @pytest.mark.parametrize("scale", [0.0, 2.0**-70])
    def test_tiny_input_has_an_infinite_bound(self, zwave, rng, scale):
        reference, block = zwave.sync_reference()[::2], 25
        x = scale * _planted(rng, reference, 6000, 1.0)
        bank, spec = _sync_parts(reference, block, len(x))
        _, bound = screen_accumulate(x, bank, spec)
        assert bound == np.inf
        scores = segmented_correlation(x, reference, block)
        best = int(np.argmax(scores))
        assert segmented_peak(x, reference, block, 0.35) == (best, scores[best])

    def test_squared_spec_rejected(self, rng):
        bank = blocked_bank(_noise(rng, 200), 50)
        spec = TrackSpec(pairs=((0, 0), (50, 50)), out_len=1801)
        with pytest.raises(ConfigurationError):
            screen_accumulate(_noise(rng, 2000), bank, spec)


class TestSegmentEnergies:
    """The screen bounds' segment energies: float64 sums of ``|x|**2``,
    taken without a BLAS dot (a threaded BLAS spins another core after
    every call)."""

    @pytest.mark.parametrize(
        "n, stride", [(270_335, 1), (262_144, 1), (5001, 1), (70_000, 3)]
    )
    def test_bound_from_a_float64_reference(self, rng, n, stride):
        # Whole segments and a zero-padded tail, one of them loud; the
        # strided input is what a sync search at stride > 1 passes.
        template = _noise(rng, 700)
        bank = TemplateBank({0: template})
        x = _noise(rng, n * stride)[::stride]
        x[n // 3 : n // 3 + 1000] *= 30
        plan = spectrum_plan(n, 700)
        energies = [
            np.sum(part.real**2 + part.imag**2)
            for part in (
                x[s * plan.hop : s * plan.hop + plan.nfft]
                for s in range(plan.n_segments)
            )
        ]
        spectrum_peak = np.abs(bank.spectra(plan.nfft, np.complex64)[0]).max()
        want = (
            fastcorr.SCREEN_KAPPA * 2.0**-24 * np.log2(plan.nfft)
            * float(spectrum_peak) * np.sqrt(max(energies))
        )
        (bound,) = fastcorr._row_bounds(x, bank, [0], plan)
        assert bound == pytest.approx(want, rel=1e-13)

    def test_screen_runs_without_a_blas_dot(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a BLAS dot on the screen path")

        monkeypatch.setattr(np, "vdot", refuse)
        monkeypatch.setattr(np, "vecdot", refuse)
        # A gateway buffer: ten whole 32,768-point segments and a tail.
        template = _noise(rng, 8192)
        x = _noise(rng, 270_335)
        ((_, bound),) = peak_magnitudes(x, TemplateBank({0: template})).values()
        assert 0 < bound < np.inf
        bank, spec = _sync_parts(template[:400], 50, len(x))
        _, bound = screen_accumulate(x, bank, spec)
        assert 0 < bound < np.inf


class TestAccumulateAt:
    """Chosen accumulator entries equal the full call's bit for bit."""

    @pytest.mark.parametrize("search", range(4))
    def test_entries_equal_the_full_call(self, lora, xbee, zwave, rng, search):
        _, reference, block = sync_searches(lora, xbee, zwave)[search]
        n = 12 * len(reference)
        x = _planted(rng, reference, n, 0.5)
        bank, spec = _sync_parts(reference, block, n)
        full = correlate_accumulate(x, bank, {0: spec})[0]
        # Both ends, one lone lag, and two clusters far apart.
        mid = spec.out_len // 2
        lags = np.unique(
            [0, spec.out_len - 1, spec.out_len // 5, *range(mid, mid + 40, 3),
             *range(mid + 2000, mid + 2003)]
        )
        assert np.array_equal(accumulate_at(x, bank, spec, lags), full[lags])
        assert accumulate_at(x, bank, spec, []).shape == (0,)

    def test_entries_equal_the_full_call_over_many_batches(
        self, zwave, rng, monkeypatch
    ):
        reference, block = zwave.sync_reference()[::2], 25
        n = 40_000
        x = _planted(rng, reference, n, 0.5)
        bank, spec = _sync_parts(reference, block, n)
        full = correlate_accumulate(x, bank, {0: spec})[0]
        # Three segments per batch: a run's lags meet several batches,
        # clipped at both of its ends.
        plan = spectrum_plan(n, block)
        monkeypatch.setattr(
            fastcorr, "BATCH_WORK_ELEMENTS", 3 * bank.n_distinct * plan.nfft
        )
        for lags in (np.arange(1000, 1300), np.array([7, 5000, 5001, 20_000])):
            assert np.array_equal(accumulate_at(x, bank, spec, lags), full[lags])
