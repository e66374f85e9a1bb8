"""Robustness sweep: degenerate inputs across the public API.

Empty payloads, tiny segments, extreme amplitudes — the inputs a
downstream user will eventually feed the library by accident. The
contract: a clean error from `repro.errors`, or a sensible no-op; never
a numpy traceback or silent garbage.
"""

import numpy as np
import pytest

from repro.cloud import CloudDecoder, SegmentClassifier
from repro.errors import ConfigurationError, ReproError
from repro.gateway import (
    EdgeDecoder,
    EnergyDetector,
    GalioTGateway,
    SegmentCodec,
    SegmentExtractor,
    UniversalPreamble,
    UniversalPreambleDetector,
)
from repro.guard import DecodeGuard
from repro.net import SceneBuilder
from repro.phy import create_modem
from repro.types import Segment

FS = 1e6


class TestEmptyPayloads:
    @pytest.mark.parametrize("tech", ["lora", "xbee", "zwave", "oqpsk154"])
    def test_zero_byte_frame_roundtrip(self, tech):
        modem = create_modem(tech)
        seg = np.concatenate(
            [np.zeros(400, complex), modem.modulate(b""), np.zeros(400, complex)]
        )
        frame = modem.demodulate(seg)
        assert frame.crc_ok
        assert frame.payload == b""


class TestTinyInputs:
    def test_detectors_on_empty_capture(self, trio):
        empty = np.zeros(0, complex)
        assert EnergyDetector().detect(empty) == []
        universal = UniversalPreamble.build(trio, FS)
        assert UniversalPreambleDetector(universal).detect(empty) == []

    def test_classifier_on_short_segment(self, trio):
        found = SegmentClassifier(trio, FS).classify(np.zeros(64, complex))
        assert found == []

    def test_decoder_on_short_segment(self, trio):
        report = CloudDecoder(trio, FS).decode(np.zeros(64, complex))
        assert report.results == []

    def test_extractor_event_at_zero(self, trio, rng):
        from repro.types import DetectionEvent

        ex = SegmentExtractor(trio, FS)
        samples = rng.normal(size=ex.span // 2) + 0j
        segments = ex.extract(samples, [DetectionEvent(0, 1.0, "u")])
        assert segments[0].start == 0
        assert segments[0].length <= len(samples)

    def test_codec_empty_segment(self):
        codec = SegmentCodec()
        seg = Segment(start=0, samples=np.zeros(0, complex), sample_rate=FS)
        out = codec.decompress(codec.compress(seg)[0])
        assert out.length == 0


class TestExtremeAmplitudes:
    def test_gateway_handles_hot_signal(self, trio, rng):
        builder = SceneBuilder(FS, 0.1)
        builder.add_packet(trio[1], b"hot", 9_000, 40, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        gateway = GalioTGateway(trio, FS, detector="universal", use_edge=True)
        report = gateway.process(capture * 1e6, rng)  # absurd gain
        assert report.events  # still detected

    def test_decoder_handles_tiny_signal(self, trio, rng):
        builder = SceneBuilder(FS, 0.1, noise_power=1e-12)
        builder.add_packet(trio[1], b"cold", 9_000, 30, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        report = CloudDecoder(trio, FS).decode(capture * 1e-3)
        assert any(r.payload == b"cold" for r in report.results)


class TestBadArguments:
    def test_scene_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SceneBuilder(FS, 0.0)

    def test_scene_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            SceneBuilder(FS, 0.1, noise_power=-1.0)

    @pytest.mark.parametrize(
        "sample_rate_hz", [float("nan"), float("inf"), 0.0, -1.0]
    )
    @pytest.mark.parametrize(
        "entry",
        [
            GalioTGateway,
            SegmentExtractor,
            EdgeDecoder,
            SegmentClassifier,
            lambda modems, sample_rate_hz: DecodeGuard().filter([], sample_rate_hz),
        ],
        ids=["gateway", "extractor", "edge", "classifier", "guard"],
    )
    def test_sample_rate_must_be_positive_and_finite(self, trio, entry, sample_rate_hz):
        # A NaN rate makes every frame's time NaN, and no NaN time falls
        # inside the guard's windows: it would admit every replay.
        with pytest.raises(ConfigurationError):
            entry(trio, sample_rate_hz)

    def test_demodulate_on_empty_raises_cleanly(self, trio):
        for modem in trio:
            with pytest.raises(ReproError):
                modem.demodulate(np.zeros(8, complex))

    def test_packet_start_past_scene_end_is_harmless(self, trio, rng):
        builder = SceneBuilder(FS, 0.02)
        truth = builder.add_packet(trio[1], b"late", 10**7, 10, rng)
        capture, scene = builder.render(rng)
        assert truth.length == 0 or truth.length < 0  # nothing landed
        assert len(capture) == scene.n_samples
