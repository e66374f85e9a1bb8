"""Tests for the shared-FFT overlap-save engine (repro.dsp.fastcorr).

The engine is checked against references that live in this file and
compute each track with one full ``fftconvolve`` per template (the path
the engine replaced):

* raw tracks agree with :func:`~repro.dsp.correlation.cross_correlate`,
  and every detector's score track with ``_legacy_matched_filter_track``,
  to float tolerance (different FFT lengths round differently);
* ``segmented_correlation`` agrees with a per-block reference, and
  ``correlate_accumulate`` with a pair-order accumulation reference;
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
  bank, and a strided input its contiguous copy, bit for bit; tracks
  returned without a copy share no memory with each other or the input.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.cloud.classify import SegmentClassifier
from repro.dsp import fastcorr
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
    spectrum_plan,
    spectrum_plan_cache_info,
)
from repro.errors import ConfigurationError
from repro.gateway import GalioTGateway, StreamingGateway, iter_chunks
from repro.gateway.detection import CorrelationDetector, PreambleBankDetector
from repro.gateway.universal import UniversalPreamble, UniversalPreambleDetector
from repro.telemetry import Telemetry

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


class TestBuffers:
    """The segment loop's buffer handling changes no bit: a one-row
    bank multiplies its segment spectra in place, a two-row bank uses a
    product buffer; segments load from strided views; a one-segment
    call returns tracks without copying them."""

    def test_alone_equals_its_row_in_a_two_row_bank_on_one_segment(self, rng):
        x = _noise(rng, 20_000)
        t, u = _noise(rng, 4000), _noise(rng, 4000)
        assert spectrum_plan(len(x), len(t), 1).n_segments == 1
        assert spectrum_plan(len(x), len(t), 2).n_segments == 1
        alone = correlate_many(x, TemplateBank({"t": t}))["t"]
        pair = correlate_many(x, TemplateBank({"t": t, "u": u}))["t"]
        assert np.array_equal(alone, pair)

    def test_alone_equals_its_row_in_a_two_row_bank_multi_batch(
        self, rng, monkeypatch
    ):
        x = _noise(rng, 200_000)
        t, u = _noise(rng, 512), _noise(rng, 512)
        plan = spectrum_plan(len(x), len(t), 2)
        assert plan == spectrum_plan(len(x), len(t), 1)
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
        plan = spectrum_plan(n, 100, bank.n_distinct)
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
        assert (spectrum_plan(n, 300, 1).n_segments == 1) == one_segment
        x = _noise(rng, n)
        out = correlate_many(x, bank)
        for a, b in [("t", "alias"), ("t", "copy"), ("alias", "copy")]:
            assert not np.shares_memory(out[a], out[b])
        assert not any(np.shares_memory(track, x) for track in out.values())
        assert np.array_equal(out["copy"], out["t"])
        assert np.array_equal(out["alias"], out["t"] * np.conj(bank.phase("alias")))
        alone = correlate_many(x, bank, keys=["alias"])["alias"]
        assert np.array_equal(alone, out["alias"])


def _zwave_sync_bank(zwave):
    """The sub-block bank Z-Wave's demodulator syncs with: the sync
    reference and block at ``sample_sync_strided``'s stride, full blocks
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
    at that group's rate and stride, built as the classifier builds them."""
    clf = SegmentClassifier(modems, FS)
    banks = []
    for group, indices in clf._groups.items():
        specs = {
            index: TrackSpec(
                pairs=tuple(
                    ((index, offset), offset) for offset in clf._refs[index].offsets
                ),
                out_len=n_samples - len(clf._refs[index].tpl) + 1,
                squared=clf._refs[index].block is not None,
            )
            for index in indices
        }
        banks.append((group, clf._banks[group], specs))
    return banks


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
        plan = spectrum_plan(n, bank.max_template_len, bank.n_distinct)
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
