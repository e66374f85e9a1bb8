"""Tests for Algorithm 1 (CloudDecoder) and the cloud pipeline."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cloud import decoder, sic
from repro.cloud.classify import ClassifiedSignal, ScoreState, SegmentClassifier
from repro.cloud.decoder import SAME_FRAME_SAMPLES, CloudDecoder
from repro.cloud.kill_filters import KillCodes, KillCss, KillFrequency
from repro.cloud.pipeline import CloudService
from repro.cloud.sic import reconstruct_and_subtract, try_decode
from repro.dsp import correlation
from repro.errors import ConfigurationError
from repro.gateway.compression import SegmentCodec
from repro.net.scene import SceneBuilder
from repro.net.traffic import packet_scene
from repro.phy.base import FrameResult
from repro.telemetry import Telemetry
from repro.types import Segment

from .test_fastcorr import _fallback_accumulate
from .test_golden_decode import scene_segments

FS = 1e6


def _want(truth):
    return {(p.technology, p.payload) for p in truth.packets}


def _got(report):
    return {(r.technology, r.payload) for r in report.results}


class TestNoCollisionPath:
    def test_single_frame_decoded(self, trio, rng):
        zwave = next(m for m in trio if m.name == "zwave")
        builder = SceneBuilder(FS, 0.08)
        builder.add_packet(zwave, b"solo", 3000, 15, rng)
        capture, truth = builder.render(rng)
        report = CloudDecoder(trio, FS).decode(capture)
        assert _got(report) == _want(truth)
        assert report.results[0].method == "sic"

    def test_empty_segment(self, trio, rng):
        noise = (rng.normal(size=150_000) + 1j * rng.normal(size=150_000)) / 2
        report = CloudDecoder(trio, FS).decode(noise)
        assert report.results == []


class TestCollisionDecoding:
    def test_css_fsk_equal_power(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, truth = packet_scene(
            [by["lora"], by["xbee"]], [12, 12], FS, rng, payload_len=10
        )
        report = CloudDecoder(trio, FS).decode(capture)
        assert _got(report) >= _want(truth)

    def test_sic_baseline_stops_on_failure(self, trio, rng):
        # Same-class FSK pair at equal power: nothing decodes, and the
        # strict baseline must not loop forever trying.
        by = {m.name: m for m in trio}
        capture, truth = packet_scene(
            [by["xbee"], by["zwave"]], [12, 12], FS, rng, payload_len=10
        )
        report = CloudDecoder(trio, FS, use_kill_filters=False).decode(capture)
        assert len(report.results) <= 1

    def test_galiot_beats_baseline_with_cfo(self, trio, rng):
        # The headline mechanism: under per-packet CFO the baseline's
        # reconstruction leaves residue; GalioT's estimation-free kill
        # filters do not care.
        by = {m.name: m for m in trio}
        wins = 0
        trials = 3
        for _ in range(trials):
            capture, truth = packet_scene(
                [by["lora"], by["xbee"]],
                [10, 10],
                FS,
                rng,
                payload_len=10,
                snr_mode="capture",
                cfo_ppm_range=2.0,
            )
            want = _want(truth)
            galiot = _got(CloudDecoder(trio, FS).decode(capture))
            sic = _got(CloudDecoder(trio, FS, use_kill_filters=False).decode(capture))
            wins += len(galiot & want) >= len(sic & want)
        assert wins == trials

    def test_kill_filter_method_reported(self, trio, rng):
        by = {m.name: m for m in trio}
        found_kill = False
        for _ in range(4):
            capture, truth = packet_scene(
                [by["lora"], by["xbee"]],
                [6, 6],
                FS,
                rng,
                payload_len=10,
                snr_mode="capture",
                cfo_ppm_range=2.0,
            )
            report = CloudDecoder(trio, FS).decode(capture)
            if any(r.method.startswith("kill-") for r in report.results):
                found_kill = True
                break
        assert found_kill

    def test_decode_order_is_power_based(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, truth = packet_scene(
            [by["lora"], by["xbee"]],
            [25, 10],
            FS,
            rng,
            payload_len=10,
            snr_mode="capture",
        )
        report = CloudDecoder(trio, FS).decode(capture)
        assert len(report.results) == 2
        assert report.results[0].technology == "lora"  # the stronger

    def test_dsss_collision_resolved_at_4msps(self, rng):
        # Extension technologies at their native 4 MHz rate: a loud
        # 802.15.4 O-QPSK frame on top of a quieter BLE advertisement.
        from repro.phy import create_modem

        oq = create_modem("oqpsk154")
        ble = create_modem("ble")
        fs = oq.sample_rate
        builder = SceneBuilder(fs, 0.004, noise_power=1e-4)
        builder.add_packet(oq, b"loud-dsss", 1000, 42, rng, snr_mode="capture")
        builder.add_packet(ble, b"quiet-ble", 1200, 22, rng, snr_mode="capture")
        capture, truth = builder.render(rng)
        report = CloudDecoder([oq, ble], fs).decode(capture)
        assert _got(report) >= _want(truth)

    def test_iteration_bound_respected(self, trio, rng):
        noise = (rng.normal(size=200_000) + 1j * rng.normal(size=200_000)) / 2
        decoder = CloudDecoder(trio, FS, max_iterations=2)
        report = decoder.decode(noise)  # must terminate promptly
        assert report.kill_invocations < 20

    def test_empty_modems_rejected(self):
        with pytest.raises(ConfigurationError):
            CloudDecoder([], FS)

    @pytest.mark.parametrize("rate", [float("nan"), 0.0, -1e6, float("inf")])
    @pytest.mark.parametrize("cls", [CloudDecoder, CloudService])
    def test_invalid_sample_rate_rejected(self, trio, cls, rate):
        # Regression: a bad rate used to pass construction and fail only
        # once a segment reached the resampler.
        with pytest.raises(ConfigurationError):
            cls(trio, rate)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": -3},
            {"max_iterations": float("inf")},
            {"max_iterations": 2.5},
            {"sync_retries": float("nan")},
            {"sync_retries": float("inf")},
            {"sync_retries": 2.5},
        ],
        ids=[
            "iterations-0", "iterations-negative", "iterations-inf",
            "iterations-2.5", "retries-nan", "retries-inf", "retries-2.5",
        ],
    )
    def test_settings_that_decode_nothing_rejected(self, trio, kwargs):
        # Regression: the first two constructed fine and then silently
        # decoded nothing (candidates but no decode attempt); the
        # non-finite counts raised a bare OverflowError or ValueError
        # from ``int()``, which truncated 2.5 to 2.
        with pytest.raises(ConfigurationError):
            CloudDecoder(trio, FS, **kwargs)


class TestEngineEquivalence:
    """Algorithm 1 must decode identically with the fastcorr engine
    on (shared-FFT overlap-save classify, SIC alignment and sync search)
    and off, i.e. with every ``correlate_accumulate`` call swapped for
    the per-template ``fftconvolve`` reference of test_fastcorr.py: the
    engine is a performance lever, not a behaviour change."""

    def test_decode_results_match_engine_off(self, trio, rng, monkeypatch):
        by = {m.name: m for m in trio}
        captures = []
        builder = SceneBuilder(FS, 0.06)
        builder.add_packet(by["zwave"], b"clean", 3000, 15, rng)
        captures.append(builder.render(rng)[0])
        captures.append(
            packet_scene(
                [by["lora"], by["xbee"]], [12, 12], FS, rng, payload_len=8
            )[0]
        )
        on_reports = [CloudDecoder(trio, FS).decode(c) for c in captures]
        for module in (sic, correlation):
            monkeypatch.setattr(
                module,
                "correlate_accumulate",
                # Always the full accumulators, whatever range changed:
                # the reference stays an oracle for the incremental path.
                lambda x, bank, specs, telemetry=None, previous=None, changed=None: (
                    _fallback_accumulate(x, bank, specs)
                ),
            )
        off_decoder = CloudDecoder(trio, FS)
        for capture, on_report in zip(captures, on_reports, strict=True):
            off_report = off_decoder.decode(capture)
            assert on_report.results
            assert on_report.results == off_report.results
            assert on_report.sic_cancellations == off_report.sic_cancellations
            assert on_report.kill_invocations == off_report.kill_invocations


def _digest(samples):
    return hashlib.sha1(np.ascontiguousarray(samples).tobytes()).hexdigest()


class TestNeverTwice:
    """Within one ``decode()`` each piece of Algorithm 1's work runs once
    per residual: no decode attempt sees the same (modem, input) twice
    and no kill filter the same (filter, victim, input). The totals pin
    how much work that is, so a change to the work that leaves the
    frames alone still fails here."""

    #: Per golden-scene segment: ``try_decode`` calls; the victims kill
    #: filters ran on, as ``(technology, start)`` in trial order (decoded
    #: frames' residue first, then the other candidates, weakest first);
    #: ``report.kill_invocations``; ``report.sic_cancellations``;
    #: ``cloud.memo_hits``; and each frame's ``(technology, method)``.
    GOLDEN_WORK = {
        "galiot": [
            (
                6,
                [("lora", 57248), ("lora", 20536), ("lora", 20532)],
                3, 2, 2,
                [("zwave", "kill-css"), ("lora", "sic")],
            ),
            (
                18,
                [
                    ("lora", 54512), ("lora", 20536), ("lora", 20538),
                    ("lora", 40336), ("zwave", 65532), ("xbee", 40532),
                ],
                6, 3, 7,
                [("zwave", "sic"), ("xbee", "sic"), ("lora", "sic")],
            ),
        ],
        # Classic SIC stops at its first failure and never kills.
        "sic_baseline": [
            (1, [], 0, 0, 0, []),
            (3, [], 0, 2, 0, [("zwave", "sic"), ("xbee", "sic")]),
        ],
    }

    def test_no_attempt_or_kill_repeats_on_golden_scene(self, monkeypatch):
        modems, segments = scene_segments()
        attempts: list = []
        kills: list = []
        real_try = decoder.try_decode

        def logged_try(modem, samples, *args, **kwargs):
            attempts.append((modem.name, _digest(samples)))
            return real_try(modem, samples, *args, **kwargs)

        monkeypatch.setattr(decoder, "try_decode", logged_try)
        for cls in (KillFrequency, KillCss, KillCodes):

            def logged_apply(self, samples, sample_rate_hz, target, _real=cls.apply):
                victim = dataclasses.astuple(target)
                kills.append((type(self).__name__, victim, _digest(samples)))
                return _real(self, samples, sample_rate_hz, target)

            monkeypatch.setattr(cls, "apply", logged_apply)
        for flavour, expected in self.GOLDEN_WORK.items():
            telemetry = Telemetry()
            cloud = CloudDecoder(
                modems,
                FS,
                use_kill_filters=flavour == "galiot",
                telemetry=telemetry,
            )
            work = []
            for segment in segments:
                attempts.clear()
                kills.clear()
                hits = telemetry.counters.get("cloud.memo_hits", 0)
                report = cloud.decode(segment.samples)
                assert len(set(attempts)) == len(attempts)
                assert len(set(kills)) == len(kills)
                work.append((
                    len(attempts),
                    [victim[:2] for _, victim, _ in kills],
                    report.kill_invocations,
                    report.sic_cancellations,
                    telemetry.counters.get("cloud.memo_hits", 0) - hits,
                    [(r.technology, r.method) for r in report.results],
                ))
            assert work == expected, flavour

    def test_classify_with_state_equals_fresh_after_cancellation(self):
        modems, segments = scene_segments()
        by_name = {m.name: m for m in modems}
        samples = segments[1].samples  # the 3-deep slot
        telemetry = Telemetry()
        stateful = SegmentClassifier(modems, FS, telemetry=telemetry)
        state = ScoreState()
        first = stateful.classify(samples, state=state)
        frames = (
            (by_name[c.technology], try_decode(by_name[c.technology], samples, FS))
            for c in first
        )
        modem, frame = next((m, f) for m, f in frames if f is not None)
        residual, _ = reconstruct_and_subtract(samples, FS, modem, frame)
        assert not np.array_equal(residual, samples)
        before = telemetry.counters["fastcorr.forward_ffts"]
        again = stateful.classify(residual, state=state)
        ranged_ffts = telemetry.counters["fastcorr.forward_ffts"] - before
        fresh_telemetry = Telemetry()
        fresh = SegmentClassifier(modems, FS, telemetry=fresh_telemetry).classify(
            residual
        )
        assert again == fresh
        assert ranged_ffts < fresh_telemetry.counters["fastcorr.forward_ffts"]


class TestSameFrameRule:
    """One rule says two frames are the same: one technology, starts
    under ``SAME_FRAME_SAMPLES`` apart. A candidate whose attempt finds
    a frame already decoded is dropped, not recorded twice, and a failed
    candidate is not retried after a later cancellation. The classifier,
    the decode attempts and the cancellation are stubbed, so only
    Algorithm 1's bookkeeping runs."""

    @staticmethod
    def _decode(monkeypatch, trio, candidates, frames):
        """Decode with ``candidates`` from every classify pass and each
        technology's attempts returning ``frames[technology]`` in turn
        (``None`` is a miss); returns the report and the attempts."""
        cloud = CloudDecoder(trio, FS)
        attempts = []

        def fake_try(modem, samples, *args, **kwargs):
            attempts.append(modem.name)
            return frames[modem.name].pop(0)

        monkeypatch.setattr(cloud.classifier, "classify", lambda *a, **k: list(candidates))
        monkeypatch.setattr(decoder, "try_decode", fake_try)
        monkeypatch.setattr(
            decoder, "reconstruct_and_subtract", lambda samples, *a: (samples.copy(), None)
        )
        return cloud.decode(np.zeros(4096, complex)), attempts

    @staticmethod
    def _signal(technology, start, amplitude):
        return ClassifiedSignal(technology, start, score=1.0, amplitude=amplitude)

    @pytest.mark.parametrize(
        "offset, recorded", [(0, 1), (SAME_FRAME_SAMPLES - 1, 1), (SAME_FRAME_SAMPLES, 2)]
    )
    def test_a_frame_already_decoded_is_dropped(self, trio, monkeypatch, offset, recorded):
        # The weaker LoRa candidate's attempt locks onto the frame the
        # stronger one decoded, ``offset`` samples from it.
        frames = [FrameResult(b"a", True, 1_000), FrameResult(b"a", True, 1_000 + offset), None]
        report, _ = self._decode(
            monkeypatch,
            trio,
            [self._signal("lora", 1_000, 2.0), self._signal("lora", 50_000, 1.0)],
            {"lora": frames},
        )
        assert [r.start for r in report.results] == [1_000, 1_000 + offset][:recorded]
        assert report.sic_cancellations == recorded

    def test_a_failed_candidate_is_not_retried(self, trio, monkeypatch):
        # XBee and Z-Wave are both FSK, so no kill filter can help the
        # XBee candidate; after Z-Wave's cancellation the re-classified
        # XBee candidate is skipped.
        report, attempts = self._decode(
            monkeypatch,
            trio,
            [self._signal("xbee", 1_000, 2.0), self._signal("zwave", 9_000, 1.0)],
            {"xbee": [None, None], "zwave": [FrameResult(b"z", True, 9_000)]},
        )
        assert [r.technology for r in report.results] == ["zwave"]
        assert attempts == ["xbee", "zwave"]


class TestCloudService:
    def test_segment_rebasing(self, trio, rng):
        xbee = next(m for m in trio if m.name == "xbee")
        builder = SceneBuilder(FS, 0.08)
        builder.add_packet(xbee, b"rebase", 5000, 15, rng)
        capture, _ = builder.render(rng)
        segment = Segment(start=70_000, samples=capture, sample_rate=FS)
        service = CloudService(trio, FS)
        results = service.process_segment(segment)
        assert results
        assert abs(results[0].start - (70_000 + 5000)) < 64

    def test_segment_rebasing_cross_rate(self, rng):
        # Regression: frame starts come back from the decoder in the
        # modem's *native-rate* samples. BLE decodes at 4 MHz while this
        # capture is 2 MHz, so a packet at capture sample 5000 sits at
        # native sample 10000 — adding that raw to the segment offset
        # used to misplace the frame by its full in-segment position.
        from repro.phy import create_modem

        ble = create_modem("ble")
        fs = 2e6
        assert ble.sample_rate != fs  # the premise of the regression
        builder = SceneBuilder(fs, 0.01, noise_power=1e-4)
        builder.add_packet(ble, b"xrate", 5000, 25, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        segment = Segment(start=70_000, samples=capture, sample_rate=fs)
        results = CloudService([ble], fs).process_segment(segment)
        assert [r.payload for r in results] == [b"xrate"]
        assert abs(results[0].start - (70_000 + 5000)) < 128

    def test_compressed_roundtrip(self, trio, rng):
        zwave = next(m for m in trio if m.name == "zwave")
        builder = SceneBuilder(FS, 0.08)
        builder.add_packet(zwave, b"wire", 4000, 15, rng)
        capture, _ = builder.render(rng)
        codec = SegmentCodec()
        blob, _ = codec.compress(Segment(start=0, samples=capture, sample_rate=FS))
        results = CloudService(trio, FS).process_segment(codec.decompress(blob))
        assert [r.payload for r in results] == [b"wire"]

    def test_stats_accumulate(self, trio, rng):
        xbee = next(m for m in trio if m.name == "xbee")
        service = CloudService(trio, FS)
        for i in range(2):
            builder = SceneBuilder(FS, 0.06)
            builder.add_packet(xbee, bytes([i]) * 4, 3000, 15, rng)
            capture, _ = builder.render(rng)
            service.process_segment(
                Segment(start=0, samples=capture, sample_rate=FS)
            )
        assert service.stats.segments == 2
        assert service.stats.frames_decoded == 2
        assert service.stats.by_technology.get("xbee") == 2
