"""Tests for the GalioT gateway orchestrator (Figure 2, gateway side)."""

import numpy as np
import pytest

from repro.cloud.pipeline import CloudService
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, SampleGap
from repro.gateway.backhaul import BackhaulLink
from repro.gateway.detection import EnergyDetector, PreambleBankDetector
from repro.gateway.gateway import GalioTGateway, GatewayReport
from repro.gateway.rtlsdr import RtlSdrConfig, RtlSdrModel
from repro.net.scene import SceneBuilder
from repro.telemetry import NULL, Telemetry
from repro.types import DetectionEvent

FS = 1e6


def _scene(trio, rng, snr=12, collision=False):
    builder = SceneBuilder(FS, 0.4)
    by = {m.name: m for m in trio}
    builder.add_packet(by["xbee"], b"pkt-one", 40_000, snr, rng, snr_mode="capture")
    builder.add_packet(by["zwave"], b"pkt-two", 200_000, snr, rng, snr_mode="capture")
    if collision:
        builder.add_packet(
            by["lora"], b"pkt-three", 205_000, snr, rng, snr_mode="capture"
        )
    return builder.render(rng)


class TestGatewayPipeline:
    def test_detect_extract_ship(self, trio, rng):
        gateway = GalioTGateway(trio, FS, detector="universal", use_edge=False)
        capture, truth = _scene(trio, rng)
        report = gateway.process(capture, rng)
        assert len(report.events) >= 2
        assert report.segments
        assert report.shipped  # no edge: everything detected is shipped
        assert report.shipped_bits > 0
        assert report.backhaul_saving > 1.0

    def test_edge_keeps_clean_frames_local(self, trio, rng):
        gateway = GalioTGateway(trio, FS, detector="universal", use_edge=True)
        capture, _ = _scene(trio, rng, snr=10)
        report = gateway.process(capture, rng)
        payloads = {r.payload for r in report.edge_results}
        assert {b"pkt-one", b"pkt-two"} <= payloads

    def test_front_end_in_path(self, trio, rng):
        front = RtlSdrModel(RtlSdrConfig(dc_offset=0.01))
        gateway = GalioTGateway(
            trio, FS, detector="universal", front_end=front, use_edge=True
        )
        capture, _ = _scene(trio, rng, snr=10)
        report = gateway.process(capture, rng)
        assert report.raw_bits == len(capture) * 2 * 8
        payloads = {r.payload for r in report.edge_results}
        assert b"pkt-one" in payloads

    def test_detector_choices(self, trio, rng):
        capture, _ = _scene(trio, rng, snr=10)
        for detector in ("universal", "bank", "energy"):
            gateway = GalioTGateway(trio, FS, detector=detector, use_edge=False)
            report = gateway.process(capture, rng)
            assert report.events, detector

    def test_unknown_detector_rejected(self, trio):
        with pytest.raises(ConfigurationError):
            GalioTGateway(trio, FS, detector="oracle")

    def test_backhaul_accounting(self, trio, rng):
        link = BackhaulLink(rate_bps=50e6)
        gateway = GalioTGateway(
            trio, FS, detector="universal", use_edge=False, backhaul=link
        )
        capture, _ = _scene(trio, rng)
        report = gateway.process(capture, rng)
        assert link.total_bits == report.shipped_bits

    def test_backhaul_overflow_drops_segments(self, trio, rng):
        link = BackhaulLink(rate_bps=1e3, max_queue_s=0.01)
        gateway = GalioTGateway(
            trio, FS, detector="universal", use_edge=False, backhaul=link
        )
        # Two packets far enough apart to produce two separate segments
        # (segment span is 2x the largest frame, which is LoRa's).
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 1.0)
        builder.add_packet(by["xbee"], b"seg-one", 40_000, 12, rng, snr_mode="capture")
        builder.add_packet(by["xbee"], b"seg-two", 700_000, 12, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        report = gateway.process(capture, rng)
        assert len(report.segments) >= 2
        assert report.dropped_segments >= 1

    def test_quiet_capture_ships_nothing(self, trio, rng):
        gateway = GalioTGateway(trio, FS, detector="universal", use_edge=False)
        noise = (rng.normal(size=400_000) + 1j * rng.normal(size=400_000)) / 2
        report = gateway.process(noise, rng)
        assert report.shipped_bits < 0.2 * report.raw_bits

    def test_empty_report_saving_is_one(self):
        # Regression: 0 raw bits used to divide by zero. An empty pass
        # saved nothing and wasted nothing.
        report = GatewayReport()
        assert report.backhaul_saving == 1.0
        report.raw_bits = 100
        assert report.backhaul_saving == float("inf")  # detected nothing

    def test_drops_are_counted_in_telemetry(self, trio, rng):
        telemetry = Telemetry()
        link = BackhaulLink(rate_bps=1e3, max_queue_s=0.01)
        gateway = GalioTGateway(
            trio,
            FS,
            detector="universal",
            use_edge=False,
            backhaul=link,
            telemetry=telemetry,
        )
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 1.0)
        builder.add_packet(by["xbee"], b"seg-one", 40_000, 12, rng, snr_mode="capture")
        builder.add_packet(by["xbee"], b"seg-two", 700_000, 12, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        report = gateway.process(capture, rng)
        counters = telemetry.snapshot()["counters"]
        assert report.dropped_segments >= 1
        assert counters["gateway.dropped_segments"] == report.dropped_segments
        assert counters["backhaul.drops"] == report.dropped_segments
        assert counters["gateway.shipped_segments"] == len(report.shipped)


class TestFrameStarts:
    def test_edge_and_cloud_report_the_same_capture_start(self, trio, rng):
        # Both decoders report a frame's start as a capture sample
        # index, not as an offset inside the segment that carried it.
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 1.0)
        builder.add_packet(by["xbee"], b"at-300k", 300_000, 12, rng, snr_mode="capture")
        builder.add_packet(by["zwave"], b"at-600k", 600_000, 12, rng, snr_mode="capture")
        capture, truth = builder.render(rng)
        report = GalioTGateway(trio, FS, use_edge=True).process(capture)
        cloud = CloudService(trio, FS)
        cloud_starts = {
            r.payload: r.start
            for segment in report.segments
            for r in cloud.process_segment(segment)
        }
        edge_starts = {r.payload: r.start for r in report.edge_results}
        assert edge_starts == cloud_starts
        assert set(edge_starts) == {p.payload for p in truth.packets}
        for packet in truth.packets:
            assert abs(edge_starts[packet.payload] - packet.start) <= 2


class TestRepeatedProcess:
    def test_each_process_is_a_new_front_end_stream(self, trio, rng):
        # Sample gaps sit at absolute stream samples; one process() call
        # is one capture, so a second pass over the same capture must
        # meet the same gap, not a cursor already past it.
        gaps = FaultPlan(sample_gaps=(SampleGap(30_000, 60_000),))
        front = RtlSdrModel(faults=gaps)
        gateway = GalioTGateway(trio, FS, front_end=front, use_edge=False)
        capture, _ = _scene(trio, rng)
        runs = []
        for _ in range(2):
            report = gateway.process(capture)
            events = [(e.index, e.score) for e in report.events]
            runs.append((events, front.dropped_samples))
        assert runs[0] == runs[1]
        assert runs[0][1] == 60_000


class _FloorRise:
    """Jamming-detector stand-in: one constant noise-floor rise."""

    telemetry = NULL

    def __init__(self, rise_db):
        self.rise_db = rise_db

    def reset(self):
        pass

    def feed(self, samples):
        return []

    def flush(self):
        return []

    def drain_events(self):
        return []

    def rise_at(self, at_time):
        return self.rise_db


class TestJammingAdmission:
    def test_energy_admission_ignores_capture_scale(self, trio):
        rng = np.random.default_rng(3)
        capture, truth = _scene(trio, rng, snr=20)
        noise = (rng.normal(size=100_000) + 1j * rng.normal(size=100_000)) * np.sqrt(
            truth.noise_power / 2
        )
        admitted = []
        for scale in (0.5, 1.0, 2.0):
            probe = EnergyDetector()
            threshold = probe.calibrate(noise * scale)
            kwargs = dict(detector="energy", use_edge=False, threshold=threshold)
            clean = GalioTGateway(trio, FS, **kwargs).process(capture * scale)
            jammed = GalioTGateway(trio, FS, jamming=_FloorRise(3.0), **kwargs)
            events = jammed.process(capture * scale).events
            assert clean.events
            assert events == [e for e in clean.events if e.score >= 10**0.3]
            admitted.append([e.index for e in events])
        assert admitted[0] == admitted[1] == admitted[2]

    def test_detectors_compare_in_their_own_units(self, trio):
        # Energy scores are power over the power threshold: a 3 dB rise
        # asks for a power ratio of 10**0.3 ~ 1.995.
        energy = EnergyDetector()
        assert energy.clears_floor(DetectionEvent(0, 2.0, "energy"), 3.0)
        assert not energy.clears_floor(DetectionEvent(0, 1.99, "energy"), 3.0)
        # Correlation scores are amplitudes: the frozen threshold scales
        # by 10**0.15 ~ 1.413; a technology without one is not gated.
        bank = PreambleBankDetector(trio, FS, threshold={"lora": 10.0})
        lora = DetectionEvent(0, 14.2, "preamble-bank", "lora")
        weak = DetectionEvent(0, 14.0, "preamble-bank", "lora")
        assert bank.clears_floor(lora, 3.0)
        assert not bank.clears_floor(weak, 3.0)
        assert bank.clears_floor(DetectionEvent(0, 0.1, "preamble-bank", "xbee"), 3.0)
