"""Tests for Algorithm 1 (CloudDecoder) and the cloud pipeline."""

import pytest

from repro.cloud import classify, sic
from repro.cloud.decoder import CloudDecoder
from repro.cloud.pipeline import CloudService
from repro.dsp import correlation
from repro.errors import ConfigurationError
from repro.gateway.compression import SegmentCodec
from repro.net.scene import SceneBuilder
from repro.net.traffic import collision_scene
from repro.types import Segment

from .test_fastcorr import _fallback_accumulate

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
        report = CloudDecoder.galiot(trio, FS).decode(capture)
        assert _got(report) == _want(truth)
        assert report.results[0].method == "sic"

    def test_empty_segment(self, trio, rng):
        noise = (rng.normal(size=150_000) + 1j * rng.normal(size=150_000)) / 2
        report = CloudDecoder.galiot(trio, FS).decode(noise)
        assert report.results == []


class TestCollisionDecoding:
    def test_css_fsk_equal_power(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, truth = collision_scene(
            [by["lora"], by["xbee"]], [12, 12], FS, rng, payload_len=10
        )
        report = CloudDecoder.galiot(trio, FS).decode(capture)
        assert _got(report) >= _want(truth)

    def test_sic_baseline_stops_on_failure(self, trio, rng):
        # Same-class FSK pair at equal power: nothing decodes, and the
        # strict baseline must not loop forever trying.
        by = {m.name: m for m in trio}
        capture, truth = collision_scene(
            [by["xbee"], by["zwave"]], [12, 12], FS, rng, payload_len=10
        )
        report = CloudDecoder.sic_baseline(trio, FS).decode(capture)
        assert len(report.results) <= 1

    def test_galiot_beats_baseline_with_cfo(self, trio, rng):
        # The headline mechanism: under per-packet CFO the baseline's
        # reconstruction leaves residue; GalioT's estimation-free kill
        # filters do not care.
        by = {m.name: m for m in trio}
        wins = 0
        trials = 3
        for _ in range(trials):
            capture, truth = collision_scene(
                [by["lora"], by["xbee"]],
                [10, 10],
                FS,
                rng,
                payload_len=10,
                snr_mode="capture",
                cfo_ppm_range=2.0,
            )
            want = _want(truth)
            galiot = _got(CloudDecoder.galiot(trio, FS).decode(capture))
            sic = _got(CloudDecoder.sic_baseline(trio, FS).decode(capture))
            wins += len(galiot & want) >= len(sic & want)
        assert wins == trials

    def test_kill_filter_method_reported(self, trio, rng):
        by = {m.name: m for m in trio}
        found_kill = False
        for _ in range(4):
            capture, truth = collision_scene(
                [by["lora"], by["xbee"]],
                [6, 6],
                FS,
                rng,
                payload_len=10,
                snr_mode="capture",
                cfo_ppm_range=2.0,
            )
            report = CloudDecoder.galiot(trio, FS).decode(capture)
            if any(r.method.startswith("kill-") for r in report.results):
                found_kill = True
                break
        assert found_kill

    def test_decode_order_is_power_based(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, truth = collision_scene(
            [by["lora"], by["xbee"]],
            [25, 10],
            FS,
            rng,
            payload_len=10,
            snr_mode="capture",
        )
        report = CloudDecoder.galiot(trio, FS).decode(capture)
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
        report = CloudDecoder.galiot([oq, ble], fs).decode(capture)
        assert _got(report) >= _want(truth)

    def test_iteration_bound_respected(self, trio, rng):
        noise = (rng.normal(size=200_000) + 1j * rng.normal(size=200_000)) / 2
        decoder = CloudDecoder.galiot(trio, FS, max_iterations=2)
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
            collision_scene(
                [by["lora"], by["xbee"]], [12, 12], FS, rng, payload_len=8
            )[0]
        )
        on_reports = [CloudDecoder.galiot(trio, FS).decode(c) for c in captures]
        for module in (classify, sic, correlation):
            monkeypatch.setattr(
                module,
                "correlate_accumulate",
                lambda x, bank, specs, telemetry=None: _fallback_accumulate(
                    x, bank, specs
                ),
            )
        off_decoder = CloudDecoder.galiot(trio, FS)
        for capture, on_report in zip(captures, on_reports, strict=True):
            off_report = off_decoder.decode(capture)
            assert on_report.results
            assert on_report.results == off_report.results
            assert on_report.sic_cancellations == off_report.sic_cancellations
            assert on_report.kill_invocations == off_report.kill_invocations


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
        service = CloudService(trio, FS, codec=codec)
        results = service.process_compressed(blob)
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
