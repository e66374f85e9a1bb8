"""Unit tests for the gateway detectors (energy + preamble correlation)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gateway.detection import (
    CorrelationDetector,
    EnergyDetector,
    PreambleBankDetector,
    cfar_threshold,
    detection_ratio,
    match_events,
)
from repro.gateway.universal import UniversalPreamble, UniversalPreambleDetector
from repro.net.scene import SceneBuilder
from repro.telemetry import Telemetry
from repro.types import DetectionEvent, PacketTruth

FS = 1e6
NAN, INF = float("nan"), float("inf")


def _scene(trio, rng, snr, starts=(30_000, 150_000), techs=("xbee", "zwave")):
    builder = SceneBuilder(FS, 0.3)
    by = {m.name: m for m in trio}
    for start, tech in zip(starts, techs):
        builder.add_packet(
            by[tech], b"detect-me!", start, snr, rng, snr_mode="capture"
        )
    return builder.render(rng)


class TestCfar:
    def test_scales_with_noise(self, rng):
        low = rng.rayleigh(0.1, 10_000)
        high = rng.rayleigh(10.0, 10_000)
        assert cfar_threshold(high, 6.0) > 50 * cfar_threshold(low, 6.0)

    def test_monotone_in_k(self, rng):
        scores = rng.rayleigh(1.0, 5_000)
        assert cfar_threshold(scores, 9.0) > cfar_threshold(scores, 3.0)


def matched_filter_track(x, template, block=None):
    """The correlation detector's score track over one template."""
    return CorrelationDetector({None: template}, block=block).score_tracks(x)[None]


class TestMatchedFilterTrack:
    def test_peak_at_offset(self, rng):
        tpl = rng.normal(size=128) + 1j * rng.normal(size=128)
        x = np.concatenate([np.zeros(64, complex), tpl, np.zeros(64, complex)])
        track = matched_filter_track(x, tpl)
        assert int(np.argmax(track)) == 64

    def test_block_mode_matches_peak(self, rng):
        tpl = rng.normal(size=128) + 1j * rng.normal(size=128)
        x = np.concatenate([np.zeros(64, complex), tpl, np.zeros(64, complex)])
        track = matched_filter_track(x, tpl, block=32)
        assert int(np.argmax(track)) == 64

    def test_block_remainder_tail_accumulated(self, rng):
        # Regression: with len(template) % block != 0 the final partial
        # block used to be dropped from the accumulation while the
        # normalization still charged for its energy, biasing every
        # score low. Template of 10 with block=4 splits 4+4+2.
        tpl = rng.normal(size=10) + 1j * rng.normal(size=10)
        x = np.concatenate([np.zeros(30, complex), tpl, np.zeros(30, complex)])
        track = matched_filter_track(x, tpl, block=4)
        reference = matched_filter_track(x, tpl, block=None)
        assert int(np.argmax(track)) == int(np.argmax(reference)) == 30
        # Noiseless non-coherent peak: sqrt(sum_b E_b^2) / sqrt(E) with
        # E_b the per-block energies *including* the 2-sample tail.
        energies = [
            float(np.sum(np.abs(tpl[b : b + 4]) ** 2)) for b in (0, 4, 8)
        ]
        expected = np.sqrt(sum(e**2 for e in energies)) / np.sqrt(
            sum(energies)
        )
        assert track[30] == pytest.approx(expected)

    def test_block_covering_whole_template_is_coherent(self, rng):
        tpl = rng.normal(size=10) + 1j * rng.normal(size=10)
        x = np.concatenate([np.zeros(20, complex), tpl, np.zeros(20, complex)])
        track = matched_filter_track(x, tpl, block=len(tpl))
        reference = matched_filter_track(x, tpl, block=None)
        np.testing.assert_allclose(track, reference, atol=1e-12)

    def test_zero_template_rejected(self):
        with pytest.raises(ConfigurationError):
            CorrelationDetector({None: np.zeros(16, complex)})


class TestEnergyDetector:
    def test_detects_loud_packet(self, trio, rng):
        capture, truth = _scene(trio, rng, snr=10)
        events = EnergyDetector().detect(capture)
        assert detection_ratio(events, truth.packets, gate=1024) == 1.0

    def test_misses_subnoise_packet(self, trio, rng):
        capture, truth = _scene(trio, rng, snr=-15)
        events = EnergyDetector().detect(capture)
        assert detection_ratio(events, truth.packets, gate=1024) == 0.0

    def test_quiet_on_pure_noise(self, rng):
        noise = (rng.normal(size=200_000) + 1j * rng.normal(size=200_000)) / 2
        events = EnergyDetector().detect(noise)
        assert len(events) <= 2

    def test_short_input(self):
        assert EnergyDetector(window=256).detect(np.zeros(10, complex)) == []


class TestPreambleBank:
    def test_labels_technologies(self, trio, rng):
        capture, truth = _scene(trio, rng, snr=5)
        detector = PreambleBankDetector(trio, FS)
        events = detector.detect(capture)
        labels = {
            e.technology
            for e in events
            if any(
                p.start - 2048 <= e.index < p.end for p in truth.packets
            )
        }
        assert {"xbee", "zwave"} <= labels

    def test_detects_below_noise(self, trio, rng):
        capture, truth = _scene(trio, rng, snr=-10)
        events = PreambleBankDetector(trio, FS).detect(capture)
        assert detection_ratio(events, truth.packets, gate=4096) == 1.0

    def test_correlation_count_scales(self, trio):
        assert PreambleBankDetector(trio, FS).n_correlations == 3
        assert PreambleBankDetector(trio[:2], FS).n_correlations == 2

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigurationError):
            PreambleBankDetector([], FS)


def _detector(kind, trio, **kwargs):
    if kind == "energy":
        return EnergyDetector(**kwargs)
    if kind == "bank":
        return PreambleBankDetector(trio, FS, **kwargs)
    return UniversalPreambleDetector(UniversalPreamble.build(trio, FS), **kwargs)


def _unit_noise(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


def _frozen(kind, trio, rng, **kwargs):
    """A detector with its threshold frozen on unit-power noise, and
    its telemetry."""
    threshold = _detector(kind, trio, **kwargs).calibrate(_unit_noise(rng, 120_000))
    telemetry = Telemetry()
    detector = _detector(
        kind, trio, threshold=threshold, telemetry=telemetry, **kwargs
    )
    return detector, telemetry


def exact_candidates(detector, samples):
    """The complex128 path: every score track against its threshold."""
    out = []
    for tech, scores in detector.score_tracks(samples).items():
        threshold = detector._fixed_threshold(tech)
        if threshold is None:
            threshold = cfar_threshold(scores, detector.k)
        idx = np.flatnonzero(scores >= threshold)
        out.append((tech, len(detector.templates[tech]), idx, scores[idx]))
    return out


def assert_same_candidates(got, want):
    """Same templates, indices and scores, bit for bit and dtype for dtype."""
    assert [(tech, n) for tech, n, _, _ in got] == [
        (tech, n) for tech, n, _, _ in want
    ]
    for (_, _, idx, sc), (_, _, ref_idx, ref_sc) in zip(got, want, strict=True):
        assert idx.dtype == ref_idx.dtype and sc.dtype == ref_sc.dtype
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(sc, ref_sc)


class TestScreen:
    """Coherent detectors with frozen thresholds screen every buffer in
    single precision first; every other configuration takes the exact
    path. Either way the candidates are the exact path's."""

    @pytest.mark.parametrize("kind", ["universal", "bank"])
    def test_noise_only_buffer_is_screened(self, trio, rng, kind):
        detector, telemetry = _frozen(kind, trio, rng)
        noise = _unit_noise(rng, 100_000)
        got = detector.stream_candidates(noise)
        assert telemetry.counters["detect.screened"] == 1
        assert "detect.exact" not in telemetry.counters
        assert_same_candidates(got, exact_candidates(detector, noise))
        assert detector.detect(noise) == []

    @pytest.mark.parametrize("kind", ["universal", "bank"])
    def test_buffer_with_a_preamble_runs_the_exact_path(self, trio, rng, kind):
        detector, telemetry = _frozen(kind, trio, rng)
        capture, _ = _scene(trio, rng, snr=10)
        got = detector.stream_candidates(capture)
        assert telemetry.counters["detect.exact"] == 1
        assert "detect.screened" not in telemetry.counters
        assert any(len(idx) for _, _, idx, _ in got)
        assert_same_candidates(got, exact_candidates(detector, capture))

    @pytest.mark.parametrize(
        "kind,block", [("universal", 700), ("bank", 1024)]
    )
    def test_blocked_detector_is_not_screened(self, trio, rng, kind, block):
        detector, telemetry = _frozen(kind, trio, rng, block=block)
        noise = _unit_noise(rng, 100_000)
        assert_same_candidates(
            detector.stream_candidates(noise), exact_candidates(detector, noise)
        )
        assert telemetry.counters["detect.exact"] == 1
        assert "detect.screened" not in telemetry.counters

    def test_per_capture_cfar_is_not_screened(self, trio, rng):
        # No frozen threshold at all, and a bank freezing one technology
        # only: either way a template is scored against its own CFAR.
        noise = _unit_noise(rng, 100_000)
        bank, _ = _frozen("bank", trio, rng)
        partial = {"lora": bank.threshold["lora"]}
        for threshold in (None, partial):
            telemetry = Telemetry()
            detector = _detector(
                "bank", trio, threshold=threshold, telemetry=telemetry
            )
            assert_same_candidates(
                detector.stream_candidates(noise),
                exact_candidates(detector, noise),
            )
            assert telemetry.counters["detect.exact"] == 1
            assert "detect.screened" not in telemetry.counters


#: Settings under which a detector would silently find nothing.
_SILENT = [{"k": NAN}, {"k": INF}, {"k": -INF}, {"k": -1.0}]
_SILENT += [{"threshold": NAN}, {"threshold": INF}, {"min_distance": 0}]


class TestSettingsValidation:
    @pytest.mark.parametrize(
        "kind,kwargs",
        [(kind, kw) for kind in ("energy", "bank", "universal") for kw in _SILENT]
        + [
            ("energy", {"window": 0}),
            ("bank", {"block": 0}),
            ("universal", {"block": 0}),
            ("bank", {"threshold": {"lora": NAN}}),
            ("bank", {"threshold": {"xbee": -INF}}),
        ],
    )
    def test_silent_settings_rejected(self, trio, kind, kwargs):
        with pytest.raises(ConfigurationError):
            _detector(kind, trio, **kwargs)

    @pytest.mark.parametrize("kind", ["energy", "bank", "universal"])
    def test_edge_values_accepted(self, trio, kind):
        detector = _detector(kind, trio, k=0.0, min_distance=1, threshold=0.0)
        assert detector.k == 0.0


class TestMatching:
    def _packets(self):
        return [
            PacketTruth(0, "xbee", 1000, 4000, 0.0, b"a"),
            PacketTruth(1, "lora", 1200, 60000, 0.0, b"b"),
        ]

    def test_nearest_start_assignment(self):
        events = [
            DetectionEvent(1010, 1.0, "t"),
            DetectionEvent(1195, 1.0, "t"),
        ]
        detected, fas = match_events(events, self._packets(), gate=512)
        assert detected == {0, 1}
        assert fas == []

    def test_false_alarm_outside_gate(self):
        events = [DetectionEvent(90_000, 1.0, "t")]
        detected, fas = match_events(events, self._packets(), gate=512)
        assert detected == set()
        assert len(fas) == 1

    def test_event_inside_long_packet_counts(self):
        events = [DetectionEvent(30_000, 1.0, "t")]
        detected, _ = match_events(events, self._packets(), gate=512)
        assert detected == {1}

    def test_empty_packets_gives_nan(self):
        assert np.isnan(detection_ratio([], []))


class TestMatchingCollisions:
    """Pin nearest-start assignment through overlapping collision gates
    — the regime the vectorized searchsorted implementation must get
    byte-for-byte right."""

    def _colliding(self):
        # Two packets whose gates overlap: a short xbee burst inside a
        # long lora frame, plus a trailing zwave burst.
        return [
            PacketTruth(0, "lora", 10_000, 80_000, 0.0, b"a"),
            PacketTruth(1, "xbee", 12_000, 4_000, 0.0, b"b"),
            PacketTruth(2, "zwave", 15_000, 2_000, 0.0, b"c"),
        ]

    def test_event_between_starts_credits_nearest(self):
        # idx 11_500: distances are 1500 (lora), 500 (xbee ahead).
        detected, fas = match_events(
            [DetectionEvent(11_500, 1.0, "t")], self._colliding(), gate=2048
        )
        assert detected == {1}
        assert fas == []

    def test_event_after_short_packet_end_falls_through(self):
        # idx 16_001 is nearest zwave's start (1001) but also inside it;
        # idx 17_100 is past zwave's end (17_000) so the long lora frame
        # is the only packet still in flight that qualifies.
        detected, _ = match_events(
            [DetectionEvent(17_100, 1.0, "t")], self._colliding(), gate=2048
        )
        assert detected == {0}

    def test_equal_starts_prefer_first_listed(self):
        packets = [
            PacketTruth(0, "xbee", 5_000, 3_000, 0.0, b"a"),
            PacketTruth(1, "zwave", 5_000, 3_000, 0.0, b"b"),
        ]
        detected, _ = match_events(
            [DetectionEvent(5_100, 1.0, "t")], packets, gate=512
        )
        assert detected == {0}
        # Reversed listing flips the winner: position breaks the tie.
        packets = [packets[1], packets[0]]
        detected, _ = match_events(
            [DetectionEvent(5_100, 1.0, "t")], packets, gate=512
        )
        assert detected == {1}

    def test_zero_length_packet_never_credited(self):
        packets = [
            PacketTruth(0, "xbee", 1_000, 0, 0.0, b"a"),
            PacketTruth(1, "zwave", 1_010, 500, 0.0, b"b"),
        ]
        detected, fas = match_events(
            [DetectionEvent(1_000, 1.0, "t")], packets, gate=256
        )
        # The zero-length packet contains nothing (end == start); the
        # event must fall through to the next-nearest qualifying start.
        assert detected == {1}
        assert fas == []

    def test_matches_naive_reference(self, rng):
        # Differential pin against the original O(events x packets)
        # scan, over dense scenes with equal starts, zero-length
        # packets and heavy overlap.
        def reference(events, packets, gate):
            detected, fas = set(), []
            for event in events:
                best, best_dist = None, None
                for packet in packets:
                    if packet.start - gate <= event.index < packet.end:
                        dist = abs(event.index - packet.start)
                        if best_dist is None or dist < best_dist:
                            best, best_dist = packet.packet_id, dist
                if best is None:
                    fas.append(event)
                else:
                    detected.add(best)
            return detected, fas

        for _ in range(300):
            n_packets = int(rng.integers(1, 12))
            packets = [
                PacketTruth(
                    i,
                    "t",
                    int(rng.integers(0, 500)),
                    int(rng.integers(0, 400)),
                    0.0,
                    b"",
                )
                for i in range(n_packets)
            ]
            events = [
                DetectionEvent(int(rng.integers(0, 1000)), 1.0, "t")
                for _ in range(int(rng.integers(0, 12)))
            ]
            gate = int(rng.integers(0, 200))
            got_detected, got_fas = match_events(events, packets, gate)
            ref_detected, ref_fas = reference(events, packets, gate)
            assert got_detected == ref_detected
            assert [e.index for e in got_fas] == [e.index for e in ref_fas]
