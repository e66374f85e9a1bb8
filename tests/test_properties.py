"""Property-based invariants over the DSP and gateway substrates.

These are the laws the rest of the system silently relies on; each is
checked over randomized inputs with hypothesis, from bit utilities and
kernels up to the receive path (streaming equals ``process()``, and the
detectors' single-precision screen equals their exact path).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dsp.channel import signal_power
from repro.dsp.correlation import normalized_correlation, segmented_correlation
from repro.dsp.fastcorr import SCREEN_TEMPLATES, correlate_many
from repro.dsp.filters import fft_bandpass, fft_notch
from repro.dsp.impairments import apply_cfo, apply_phase, quantize
from repro.dsp.resample import to_rate
from repro.errors import FrameSyncError
from repro.gateway import GalioTGateway, StreamingGateway
from repro.gateway.compression import SegmentCodec
from repro.gateway.detection import CorrelationDetector
from repro.net.scene import SceneBuilder
from repro.phy import create_modem
from repro.phy.frames import sample_sync
from repro.types import Segment

from .test_detection import assert_same_candidates, exact_candidates
from .test_fastcorr import screen_error, sync_searches

FS = 1e6
#: (technology, frame start) of the receive-path scene's three frames.
STREAM_PACKETS = (("lora", 30_000), ("xbee", 110_000), ("zwave", 170_000))
STREAM_SAMPLES = 250_000


def _complex_arrays(min_size=16, max_size=256):
    return st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
        ),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))


class TestSpectralMasks:
    @given(_complex_arrays())
    @settings(max_examples=30, deadline=None)
    def test_notch_never_adds_energy(self, x):
        out = fft_notch(x, FS, [(-100e3, 100e3)])
        assert signal_power(out) <= signal_power(x) + 1e-9

    @given(_complex_arrays())
    @settings(max_examples=30, deadline=None)
    def test_bandpass_plus_notch_partition(self, x):
        band = (-200e3, 50e3)
        kept = fft_bandpass(x, FS, band)
        removed = fft_notch(x, FS, [band])
        assert np.allclose(kept + removed, x, atol=1e-9)

    @given(_complex_arrays())
    @settings(max_examples=30, deadline=None)
    def test_full_band_notch_silences(self, x):
        out = fft_notch(x, FS, [(-FS, FS)])
        assert signal_power(out) < 1e-18


class TestImpairmentInvariants:
    @given(_complex_arrays(), st.floats(-100e3, 100e3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_cfo_preserves_power(self, x, cfo):
        assert signal_power(apply_cfo(x, cfo, FS)) == pytest.approx(
            signal_power(x), rel=1e-9, abs=1e-12
        )

    @given(_complex_arrays(), st.floats(-np.pi, np.pi, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_phase_is_invertible(self, x, phi):
        assert np.allclose(apply_phase(apply_phase(x, phi), -phi), x, atol=1e-9)

    @given(_complex_arrays(), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_quantize_is_idempotent(self, x, bits):
        once = quantize(x, bits, 6.0)
        twice = quantize(once, bits, 6.0)
        assert np.allclose(once, twice)


class TestCorrelationInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_normalized_score_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        t = rng.normal(size=64) + 1j * rng.normal(size=64)
        scores = normalized_correlation(x, t)
        assert np.all(scores <= 1.0 + 1e-6)
        assert np.all(scores >= 0.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_matched_filter_peak_scale_invariant(self, seed, scale):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=64) + 1j * rng.normal(size=64)
        x = np.concatenate([np.zeros(32, complex), t, np.zeros(32, complex)])
        detector = CorrelationDetector({None: t})
        a = detector.score_tracks(x)[None]
        b = detector.score_tracks(scale * x)[None]
        assert int(np.argmax(a)) == int(np.argmax(b))


class TestResampleInvariants:
    @given(st.sampled_from([2e6, 4e6, 8e6]), st.floats(10e3, 90e3))
    @settings(max_examples=15, deadline=None)
    def test_tone_frequency_preserved(self, fs_in, tone):
        n = 4096
        x = np.exp(2j * np.pi * tone * np.arange(n) / fs_in)
        y = to_rate(x, fs_in, 1e6)
        freqs = np.fft.fftfreq(len(y), 1e-6)
        peak = freqs[np.argmax(np.abs(np.fft.fft(y[100:-100]) if len(y) > 300 else np.fft.fft(y)))]
        # Re-evaluate properly on the trimmed interior:
        interior = y[len(y) // 8 : -len(y) // 8]
        freqs = np.fft.fftfreq(len(interior), 1e-6)
        peak = freqs[np.argmax(np.abs(np.fft.fft(interior)))]
        assert peak == pytest.approx(tone, abs=2e6 / len(interior) + 500)


class TestCodecInvariants:
    @given(st.integers(0, 2**32 - 1), st.integers(4, 8))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_error_bounded_by_bit_depth(self, seed, bits):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        codec = SegmentCodec(bits=bits)
        seg = Segment(start=0, samples=x, sample_rate=FS)
        out = codec.decompress(codec.compress(seg)[0])
        peak = np.max(np.abs(np.concatenate([x.real, x.imag])))
        step = 2 * peak / ((1 << bits) - 1)
        assert np.max(np.abs(out.samples - x)) <= np.sqrt(2) * step + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_compression_never_corrupts_metadata(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 1024))
        start = int(rng.integers(0, 10**9))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        codec = SegmentCodec()
        seg = Segment(start=start, samples=x, sample_rate=FS)
        out = codec.decompress(codec.compress(seg)[0])
        assert out.start == start
        assert out.length == n


@pytest.fixture(scope="module")
def processed_scene():
    """One fixed three-frame scene and, per correlation detector, a
    frozen threshold and ``process()``'s report."""
    rng = np.random.default_rng(21)
    modems = [create_modem(name) for name, _ in STREAM_PACKETS]
    builder = SceneBuilder(FS, STREAM_SAMPLES / FS)
    for i, (modem, (_, start)) in enumerate(zip(modems, STREAM_PACKETS, strict=True)):
        builder.add_packet(
            modem, f"prop-{i}".encode(), start, 12, rng, snr_mode="capture"
        )
    capture, truth = builder.render(rng)
    noise = (
        rng.normal(size=80_000) + 1j * rng.normal(size=80_000)
    ) * np.sqrt(truth.noise_power / 2)
    references = {}
    for detector in ("universal", "bank"):
        probe = GalioTGateway(modems, FS, detector=detector, use_edge=False)
        threshold = probe.detector.calibrate(noise)
        gateway = GalioTGateway(
            modems, FS, detector=detector, use_edge=False, threshold=threshold
        )
        references[detector] = (threshold, gateway.process(capture))
    return modems, capture, references


class TestReceivePath:
    @given(
        st.sampled_from(["universal", "bank"]),
        st.integers(1, 24),
        st.integers(0, 2**32 - 1),
    )
    # Cuts under which a rejected candidate and a lower-priority accepted
    # neighbour once held each other stable, emitting an event early.
    @example("universal", 20, 23)
    @example("bank", 20, 27)
    @settings(max_examples=20, deadline=None)
    def test_streaming_equals_process(self, processed_scene, detector, n_cuts, seed):
        modems, capture, references = processed_scene
        threshold, reference = references[detector]
        gateway = GalioTGateway(
            modems, FS, detector=detector, use_edge=False, threshold=threshold
        )
        # Cut points uniform over the scene, so joins land inside the
        # frames, where suppression outcomes can flip (integers drawn
        # by hypothesis itself crowd near the ends of their range).
        cuts = np.random.default_rng(seed).choice(
            np.arange(1, STREAM_SAMPLES), size=n_cuts, replace=False
        )
        chunks = np.split(capture, np.sort(cuts))
        merged = StreamingGateway(gateway).process_stream(chunks)
        assert [(e.index, e.technology) for e in merged.events] == [
            (e.index, e.technology) for e in reference.events
        ]
        np.testing.assert_allclose(
            [e.score for e in merged.events],
            [e.score for e in reference.events],
            rtol=1e-9,
        )
        assert [(s.start, s.length) for s in merged.segments] == [
            (s.start, s.length) for s in reference.segments
        ]


@pytest.fixture(scope="module")
def screened_detectors():
    """The coherent universal and bank detectors, thresholds frozen on
    unit-power noise: the configurations the screen serves."""
    rng = np.random.default_rng(31)
    modems = [create_modem(name) for name in ("lora", "xbee", "zwave")]
    noise = (rng.normal(size=120_000) + 1j * rng.normal(size=120_000)) / np.sqrt(2)
    detectors = {}
    for kind in ("universal", "bank"):
        probe = GalioTGateway(modems, FS, detector=kind, use_edge=False)
        threshold = probe.detector.calibrate(noise)
        detectors[kind] = GalioTGateway(
            modems, FS, detector=kind, use_edge=False, threshold=threshold
        ).detector
    return detectors


def _scale_for_peak(detector, base, preamble, tech, target):
    """The factor ``a`` at which ``base + a * preamble`` peaks at
    ``target`` on ``tech``'s score track: bisection over the sum of the
    two complex tracks, where the preamble's track is not zero."""
    key = (tech, 0)
    base_track = correlate_many(base, detector._bank, keys=[key])[key]
    pre_track = correlate_many(preamble, detector._bank, keys=[key])[key]
    support = np.flatnonzero(preamble)
    lo_lag = max(support[0] - len(detector.templates[tech]) + 1, 0)
    hi_lag = min(support[-1] + 1, len(base_track))
    outside = np.abs(np.concatenate([base_track[:lo_lag], base_track[hi_lag:]]))
    floor = outside.max(initial=0.0)
    norm = detector._norms[tech]

    def peak(a):
        inside = np.abs(base_track[lo_lag:hi_lag] + a * pre_track[lo_lag:hi_lag])
        return max(floor, inside.max()) / norm

    lo, hi = 0.0, 1.0
    while peak(hi) < target:
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if peak(mid) < target else (lo, mid)
    return hi


class TestScreenEqualsExactPath:
    """``stream_candidates`` with its single-precision screen equals the
    complex128 path, index for index and score for score, on noise with
    a preamble peaking within 2 % of the threshold, an optional strong
    interferer, and buffers from one template up to three screen
    segments; the complex64 track stays within a hundredth of the
    screen's error bound."""

    @given(
        st.sampled_from(["universal", "bank"]),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.none() | st.floats(0.98, 1.02),
        st.sampled_from([None, "cw", "wideband"]),
        st.floats(0.0, 40.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_stream_candidates_equal_the_exact_path(
        self, screened_detectors, kind, seed, length, level, interferer, over_db
    ):
        detector = screened_detectors[kind]
        rng = np.random.default_rng(seed)
        longest = max(len(t) for t in detector.templates.values())
        n = longest + int(length * 3 * SCREEN_TEMPLATES * longest)
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        amplitude = 10 ** (over_db / 20)
        if interferer == "cw":
            x += amplitude * np.exp(
                2j * np.pi * (rng.uniform(-0.5, 0.5) * np.arange(n) + rng.uniform())
            )
        elif interferer == "wideband":
            lo, hi = np.sort(rng.integers(0, n + 1, size=2))
            burst = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
            x[lo:hi] += amplitude * burst / np.sqrt(2)
        if level is not None:
            techs = list(detector.templates)
            tech = techs[rng.integers(len(techs))]
            template = detector.templates[tech]
            at = int(rng.integers(0, n - len(template) + 1))
            preamble = np.zeros(n, dtype=complex)
            preamble[at : at + len(template)] = template
            target = level * detector._fixed_threshold(tech)
            x = x + _scale_for_peak(detector, x, preamble, tech, target) * preamble
        assert_same_candidates(
            detector.stream_candidates(x), exact_candidates(detector, x)
        )
        keys = [(tech, 0) for tech in detector.templates]
        for key, (_, bound, err, _, _) in screen_error(
            x, detector._bank, keys
        ).items():
            assert err <= bound / 100, key


def _sync_level(x, planted, reference, block, target):
    """The factor ``a`` at which ``x + a * planted`` peaks at ``target``
    on the segmented-correlation track (bisection; the track's best
    outside the planted frame is a floor the peak never goes below)."""

    def peak(a):
        return segmented_correlation(x + a * planted, reference, block).max()

    lo, hi = 0.0, 1.0
    while peak(hi) < target and hi < 2.0**40:
        lo, hi = hi, 2 * hi
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if peak(mid) < target else (lo, mid)
    return hi


class TestSyncEqualsExactPath:
    """The blocked ``sample_sync`` (a single-precision screen, then
    complex128 on the segments that can hold the peak) returns exactly
    ``(argmax, max)`` of ``segmented_correlation``, or raises exactly
    when that max is below the threshold: for the trio's sync searches
    and LoRa's ``oversample=1`` path, on noise at any scale with the
    reference planted at a CFO and scaled to peak within 2 % of the
    threshold, under a 40 dB interferer over part of the buffer, and
    with a zeroed span like the one a sync retry leaves."""

    @given(
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
        st.floats(-8.0, 8.0),
        st.none() | st.floats(0.98, 1.02),
        st.floats(-0.3, 0.3),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_sync_equals_the_exact_path(
        self, lora, xbee, zwave, search, seed, log_scale, level, cfo,
        interferer, zeroed,
    ):
        _, reference, block = sync_searches(lora, xbee, zwave)[search]
        threshold = 0.35
        rng = np.random.default_rng(seed)
        n = len(reference) + int(rng.integers(0, 6 * len(reference)))
        scale = 10.0**log_scale
        x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        if interferer:
            lo, hi = np.sort(rng.integers(0, n + 1, size=2))
            burst = rng.normal(size=hi - lo) + 1j * rng.normal(size=hi - lo)
            x[lo:hi] += 100 * scale * burst / np.sqrt(2)
        if level is not None:
            at = int(rng.integers(0, n - len(reference) + 1))
            planted = np.zeros(n, dtype=complex)
            ramp = np.exp(2j * np.pi * cfo / block * np.arange(len(reference)))
            planted[at : at + len(reference)] = scale * reference * ramp
            x = x + _sync_level(x, planted, reference, block, level * threshold) * planted
        if zeroed:
            lo = int(rng.integers(0, n))
            x[lo : lo + len(reference)] = 0
        scores = segmented_correlation(x, reference, block)
        best = int(np.argmax(scores))
        if scores[best] < threshold:
            with pytest.raises(FrameSyncError):
                sample_sync(x, reference, threshold, block=block)
        else:
            assert sample_sync(x, reference, threshold, block=block) == (
                best,
                float(scores[best]),
            )
