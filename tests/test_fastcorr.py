"""Tests for the shared-FFT overlap-save engine (repro.dsp.fastcorr).

Three contracts are pinned here:

* **Engine off** (``GALIOT_FASTCORR=off``) is *bit-identical* to the
  legacy one-``fftconvolve``-per-template path.
* **Engine on** agrees with the legacy path to float tolerance on raw
  score tracks (different FFT lengths round differently) and **exactly**
  at the event level for every detector, monolithic and streamed.
* **Row sharing**: templates equal up to a unit-modulus factor share one
  row (one inverse FFT per segment) and still agree with the legacy
  path to float tolerance; anything else stays a row of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.correlation import cross_correlate, segmented_correlation
from repro.dsp.fastcorr import (
    MAX_SPECTRA_ELEMENTS,
    SPECTRA_CACHE_SLOTS,
    TemplateBank,
    TrackSpec,
    blocked_bank,
    clear_spectrum_plan_cache,
    correlate_accumulate,
    correlate_many,
    fastcorr_enabled,
    set_fastcorr,
    spectrum_plan,
    spectrum_plan_cache_info,
)
from repro.errors import ConfigurationError
from repro.gateway import GalioTGateway, StreamingGateway, iter_chunks
from repro.gateway.detection import (
    EnergyDetector,
    PreambleBankDetector,
    matched_filter_track,
)
from repro.gateway.universal import UniversalPreamble, UniversalPreambleDetector
from repro.telemetry import Telemetry

FS = 1e6


@pytest.fixture
def engine_off():
    """Run one test with the legacy per-template path."""
    previous = set_fastcorr(False)
    yield
    set_fastcorr(previous)


def _noise(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


class TestSpectrumPlan:
    def test_plan_invariants(self):
        for n, max_len in [(1000, 1), (1000, 1000), (300_000, 50_000), (4096, 17)]:
            plan = spectrum_plan(n, max_len, 6)
            assert plan.nfft >= max_len
            assert plan.hop == plan.nfft - (max_len - 1)
            assert plan.hop >= 1
            # Segments tile the longest valid track completely.
            assert plan.n_segments * plan.hop >= n - max_len + 1

    def test_template_longer_than_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            spectrum_plan(100, 101)

    def test_plan_is_memoized(self):
        clear_spectrum_plan_cache()
        spectrum_plan(262_144, 8192, 3)
        misses = spectrum_plan_cache_info().misses
        spectrum_plan(262_144, 8192, 3)
        info = spectrum_plan_cache_info()
        assert info.misses == misses
        assert info.hits >= 1

    def test_wide_bank_caps_spectra_working_set(self):
        # A huge bank must not pick a single-shot FFT whose spectra
        # matrix would blow the memory budget.
        n_templates = 64
        plan = spectrum_plan(1_000_000, 2048, n_templates)
        assert plan.nfft * n_templates <= MAX_SPECTRA_ELEMENTS


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
        bank = blocked_bank(template, 4, partial_tail=True)
        assert bank.keys() == [0, 4, 8]
        assert bank.length(8) == 2  # partial tail kept
        bank = blocked_bank(template, 4, partial_tail=False)
        assert bank.keys() == [0, 4]  # tail dropped
        solo = blocked_bank(template, None)
        assert solo.keys() == [0]
        assert len(solo.template(0)) == 10

    def test_blocked_bank_validation(self, rng):
        with pytest.raises(ConfigurationError):
            blocked_bank(_noise(rng, 10), 0)
        with pytest.raises(ConfigurationError):
            blocked_bank(_noise(rng, 3), 4, partial_tail=False)


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

    def test_engine_off_is_bit_identical_to_fftconvolve(self, rng, engine_off):
        x = _noise(rng, 10_000)
        template = _noise(rng, 700)
        out = correlate_many(x, TemplateBank({0: template}))
        assert np.array_equal(out[0], cross_correlate(x, template))

    def test_template_longer_than_signal_rejected(self, rng):
        bank = TemplateBank({0: _noise(rng, 100)})
        with pytest.raises(ConfigurationError):
            correlate_many(_noise(rng, 50), bank)

    def test_keys_subset(self, rng):
        x = _noise(rng, 2000)
        bank = TemplateBank({"a": _noise(rng, 64), "b": _noise(rng, 1999)})
        out = correlate_many(x, bank, keys=["a"])
        assert set(out) == {"a"}
        assert correlate_many(x, bank, keys=[]) == {}

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

    def test_telemetry_counters(self, rng):
        telemetry = Telemetry()
        x = _noise(rng, 50_000)
        bank = TemplateBank({i: _noise(rng, 256) for i in range(4)})
        correlate_many(x, bank, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["fastcorr.forward_ffts"] >= 1
        assert snapshot["counters"]["fastcorr.inverse_ffts"] >= 4
        assert "fastcorr.correlate.seconds" in snapshot["timers"]

    def test_fallback_telemetry(self, rng, engine_off):
        telemetry = Telemetry()
        bank = TemplateBank({0: _noise(rng, 64)})
        correlate_many(_noise(rng, 1000), bank, telemetry=telemetry)
        counters = telemetry.snapshot()["counters"]
        assert counters["fastcorr.fallback_correlations"] == 1


def _zwave_sync_bank(zwave):
    """The sub-block bank Z-Wave's demodulator syncs with: the sync
    reference and block at ``sample_sync_strided``'s stride, full blocks
    only (``segmented_correlation``)."""
    stride = max(zwave._sps // 10, 1)
    block = max(2 * zwave._sps // stride, 4)
    return blocked_bank(zwave.sync_reference()[::stride], block, partial_tail=False)


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
        previous = set_fastcorr(False)
        try:
            off = correlate_accumulate(x, bank, specs)[0]
        finally:
            set_fastcorr(previous)
        assert np.allclose(on, off, rtol=1e-9)

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
        previous = set_fastcorr(False)
        try:
            off = correlate_accumulate(x, bank, specs)
        finally:
            set_fastcorr(previous)
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
        telemetry = Telemetry()
        out = correlate_many(x, bank, telemetry=telemetry)
        for key, template in templates.items():
            assert np.allclose(
                out[key], cross_correlate(x, template), rtol=1e-9, atol=1e-11
            )
        counters = telemetry.snapshot()["counters"]
        assert counters["fastcorr.inverse_ffts"] == 2 * counters["fastcorr.forward_ffts"]
        # Requesting only an alias still scores it through its row.
        alone = correlate_many(x, bank, keys=["alias"])
        assert set(alone) == {"alias"}
        assert np.allclose(alone["alias"], out["alias"], rtol=1e-12, atol=0)

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
    """Engine-on vs engine-off (== legacy) for every scoring path."""

    @pytest.mark.parametrize("block", [None, 128, 333, 1000, 1001])
    def test_matched_filter_track(self, rng, block):
        x = _noise(rng, 20_000)
        template = _noise(rng, 1000)
        on = matched_filter_track(x, template, block)
        legacy = _legacy_matched_filter_track(x, template, block)
        assert np.allclose(on, legacy, rtol=1e-9, atol=1e-11)
        previous = set_fastcorr(False)
        try:
            off = matched_filter_track(x, template, block)
        finally:
            set_fastcorr(previous)
        assert np.array_equal(off, legacy)

    @pytest.mark.parametrize("block", [64, 333])
    def test_segmented_correlation(self, rng, block):
        x = _noise(rng, 10_000)
        template = _noise(rng, 1000)
        on = segmented_correlation(x, template, block)
        previous = set_fastcorr(False)
        try:
            off = segmented_correlation(x, template, block)
        finally:
            set_fastcorr(previous)
        assert np.allclose(on, off, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("block", [None, 1024])
    def test_bank_detector_tracks(self, trio, rng, block):
        detector = PreambleBankDetector(trio, FS, block=block)
        samples = _noise(rng, 40_000)
        on = detector._score_tracks(samples)
        previous = set_fastcorr(False)
        try:
            off = detector._score_tracks(samples)
        finally:
            set_fastcorr(previous)
        assert list(on) == list(off)
        for name in on:
            legacy = _legacy_matched_filter_track(
                samples, detector.templates[name], block
            )
            assert np.array_equal(off[name], legacy)
            assert np.allclose(on[name], legacy, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("block", [None, 700])
    def test_universal_detector_tracks(self, trio, rng, block):
        universal = UniversalPreamble.build(trio, FS)
        detector = UniversalPreambleDetector(universal, block=block)
        samples = _noise(rng, 40_000)
        on = detector.scores(samples)
        previous = set_fastcorr(False)
        try:
            off = detector.scores(samples)
        finally:
            set_fastcorr(previous)
        legacy = _legacy_matched_filter_track(samples, universal.waveform, block)
        assert np.array_equal(off, legacy)
        assert np.allclose(on, legacy, rtol=1e-9, atol=1e-11)

    def test_energy_detector_untouched(self, rng):
        # The energy baseline never correlates; the engine toggle must
        # not move a single bit of its track or events.
        detector = EnergyDetector()
        samples = _noise(rng, 30_000)
        on_scores = detector.scores(samples)
        on_events = detector.detect(samples)
        previous = set_fastcorr(False)
        try:
            off_scores = detector.scores(samples)
            off_events = detector.detect(samples)
        finally:
            set_fastcorr(previous)
        assert np.array_equal(on_scores, off_scores)
        assert on_events == off_events


def _scene(trio, rng, duration_s=0.3):
    from repro.net.scene import SceneBuilder

    builder = SceneBuilder(FS, duration_s)
    starts = (40_000, 120_000, 210_000)
    for i, (modem, start) in enumerate(zip(trio, starts)):
        builder.add_packet(
            modem, f"fc-{i}".encode(), start, 12, rng, snr_mode="capture"
        )
    return builder.render(rng)


def _event_keys(events):
    return [(e.index, e.detector, e.technology) for e in events]


class TestEventEquivalence:
    """Detection events must be identical with the engine on or off."""

    @pytest.mark.parametrize(
        "detector,kwargs",
        [
            ("bank", {}),
            ("bank", {"block": 1024}),
            ("universal", {}),
            ("universal", {"block": 700}),
        ],
    )
    def test_monolithic_events(self, trio, rng, detector, kwargs):
        capture, truth = _scene(trio, rng)
        noise = _noise(rng, 80_000) * np.sqrt(truth.noise_power)

        def run(enabled):
            previous = set_fastcorr(enabled)
            try:
                probe = GalioTGateway(
                    trio, FS, detector=detector, use_edge=False, **kwargs
                )
                threshold = probe.detector.calibrate(noise)
                gateway = GalioTGateway(
                    trio,
                    FS,
                    detector=detector,
                    use_edge=False,
                    threshold=threshold,
                    **kwargs,
                )
                return gateway.detector.detect(capture)
            finally:
                set_fastcorr(previous)

        on = run(True)
        off = run(False)
        assert len(on) >= len(trio)  # every packet fires at least once
        assert _event_keys(on) == _event_keys(off)
        deltas = [abs(a.score - b.score) for a, b in zip(on, off, strict=True)]
        assert max(deltas) < 1e-9

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
    """stream_candidates chunked at awkward sizes == one monolithic pass,
    with the engine on and off."""

    @pytest.mark.parametrize("chunk_offset", [-1, 0, 1])
    def test_awkward_chunks(self, trio, rng, chunk_offset):
        capture, truth = _scene(trio, rng)
        noise = _noise(rng, 80_000) * np.sqrt(truth.noise_power)
        universal = UniversalPreamble.build(trio, FS)
        chunk = universal.length + chunk_offset

        def run(enabled):
            previous = set_fastcorr(enabled)
            try:
                probe = GalioTGateway(trio, FS, use_edge=False)
                threshold = probe.detector.calibrate(noise)
                mono = GalioTGateway(
                    trio, FS, use_edge=False, threshold=threshold
                )
                reference = mono.process(capture)
                gateway = GalioTGateway(
                    trio, FS, use_edge=False, threshold=threshold
                )
                merged = StreamingGateway(gateway).process_stream(
                    iter_chunks(capture, chunk)
                )
                return reference, merged
            finally:
                set_fastcorr(previous)

        ref_on, stream_on = run(True)
        ref_off, stream_off = run(False)
        assert len(ref_on.events) > 0
        assert (
            _event_keys(ref_on.events)
            == _event_keys(stream_on.events)
            == _event_keys(ref_off.events)
            == _event_keys(stream_off.events)
        )
        assert [s.start for s in stream_on.segments] == [
            s.start for s in ref_on.segments
        ]


def test_engine_flag_roundtrip():
    assert fastcorr_enabled()
    assert set_fastcorr(False) is True
    assert not fastcorr_enabled()
    assert set_fastcorr(True) is False
    assert fastcorr_enabled()
