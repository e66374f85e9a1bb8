"""Unit tests for the cloud classifier and SIC primitives."""

import numpy as np
import pytest

from repro.cloud.classify import SegmentClassifier
from repro.cloud.sic import reconstruct_and_subtract, try_decode
from repro.dsp.resample import to_rate
from repro.errors import ConfigurationError
from repro.net.scene import SceneBuilder
from repro.net.traffic import packet_scene
from repro.phy.base import FrameResult, Modem, ModulationClass
from repro.telemetry import Telemetry

FS = 1e6


class _BrittleModem(Modem):
    """A modem whose demodulator leaks a bare exception."""

    name = "brittle"
    modulation = ModulationClass.FSK

    @property
    def sample_rate(self):
        return FS

    @property
    def bandwidth(self):
        return 100e3

    @property
    def bit_rate(self):
        return 100e3

    def preamble_waveform(self):
        return np.ones(64, complex)

    def modulate(self, payload):
        return np.ones(256, complex)

    def demodulate(self, iq):
        raise ValueError("index math went negative on this residual")


class TestClassifier:
    def test_single_technology(self, trio, rng):
        xbee = next(m for m in trio if m.name == "xbee")
        builder = SceneBuilder(FS, 0.06)
        builder.add_packet(xbee, b"who-am-i", 3000, 15, rng)
        capture, _ = builder.render(rng)
        found = SegmentClassifier(trio, FS).classify(capture)
        assert found
        assert found[0].technology == "xbee"
        assert abs(found[0].start - 3000) < 256

    def test_collision_finds_both(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, truth = packet_scene(
            [by["lora"], by["zwave"]], [12, 12], FS, rng, payload_len=10
        )
        found = SegmentClassifier(trio, FS).classify(capture)
        techs = {c.technology for c in found}
        assert {"lora", "zwave"} <= techs

    def test_power_ordering(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, _ = packet_scene(
            [by["lora"], by["xbee"]],
            [22, 10],
            FS,
            rng,
            payload_len=10,
            snr_mode="capture",
        )
        found = SegmentClassifier(trio, FS).classify(capture)
        assert found[0].technology == "lora"
        weaker = [c.power for c in found if c.technology == "xbee"]
        if weaker:  # the masked FSK may not always be classified
            assert found[0].power > 2 * max(weaker)

    def test_amplitude_estimate_tracks_scale(self, trio, rng):
        xbee = next(m for m in trio if m.name == "xbee")
        builder = SceneBuilder(FS, 0.06, noise_power=1e-6)
        builder.add_packet(xbee, b"scale", 3000, 60, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        c1 = SegmentClassifier(trio, FS).classify(capture)[0]
        c2 = SegmentClassifier(trio, FS).classify(2 * capture)[0]
        assert abs(c2.amplitude) == pytest.approx(2 * abs(c1.amplitude), rel=0.05)

    def test_center_estimate_tracks_offset(self, trio, rng):
        # The frequency-selective kill filter notches around this
        # estimate, so it must place a channel-offset transmitter in the
        # right channel (notch widths are tens of kHz; a few kHz of
        # modulation-asymmetry bias is immaterial).
        xbee = next(m for m in trio if m.name == "xbee")
        estimates = {}
        for cfo in (0.0, 150e3):
            builder = SceneBuilder(FS, 0.06, noise_power=1e-6)
            builder.add_packet(
                xbee, b"offset", 3000, 40, rng, cfo_hz=cfo,
                snr_mode="capture",
            )
            capture, _ = builder.render(rng)
            found = SegmentClassifier(trio, FS).classify(capture)
            estimates[cfo] = next(
                c.center_hz for c in found if c.technology == "xbee"
            )
        assert estimates[0.0] == pytest.approx(0.0, abs=10e3)
        assert estimates[150e3] == pytest.approx(150e3, abs=10e3)

    def test_pure_noise_mostly_empty(self, trio, rng):
        noise = (rng.normal(size=120_000) + 1j * rng.normal(size=120_000)) / 2
        found = SegmentClassifier(trio, FS).classify(noise)
        assert len(found) <= 2

    def test_empty_modems_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentClassifier([], FS)

    def test_equal_score_ties_keep_lowest_index(self, monkeypatch, rng):
        # The peak re-sort before the per-technology cap is pinned
        # to (score desc, index asc): equal scores must not depend on
        # the peak finder's return order, or FFT rounding could flip
        # the cut on suppression-order accidents.
        modem = _BrittleModem()
        clf = SegmentClassifier([modem], FS)
        tpl_norm = float(np.sqrt(64.0))
        track = np.zeros(1024 - 64 + 1, dtype=complex)
        for idx in (300, 50, 200, 100):  # deliberately unsorted spikes
            track[idx] = 5.0 * tpl_norm

        def fake_correlate_accumulate(
            sig, bank, specs, telemetry=None, previous=None, changed=None
        ):
            assert list(specs) == [0]
            assert specs[0].pairs == (((0, 0), 0),)
            return {0: np.abs(track)}

        monkeypatch.setattr(
            "repro.dsp.correlation.correlate_accumulate",
            fake_correlate_accumulate,
        )
        samples = np.zeros(1024, complex)
        samples[:] = 0.01  # nonzero so amplitude estimation is defined
        found = clf.classify(samples)
        assert [c.start for c in found] == [50, 100]
        assert all(c.score == pytest.approx(5.0) for c in found)


class TestTryDecode:
    def test_success_path(self, trio, rng):
        zwave = next(m for m in trio if m.name == "zwave")
        builder = SceneBuilder(FS, 0.08)
        builder.add_packet(zwave, b"plain", 2000, 15, rng)
        capture, _ = builder.render(rng)
        frame = try_decode(zwave, capture, FS)
        assert frame is not None and frame.payload == b"plain"

    def test_returns_none_on_noise(self, trio, rng):
        noise = (rng.normal(size=100_000) + 1j * rng.normal(size=100_000)) / 2
        for modem in trio:
            assert try_decode(modem, noise, FS) is None

    def test_bare_modem_exception_is_a_miss(self, rng):
        # Regression: only ReproError was caught, so a demodulator
        # leaking ValueError/IndexError on a heavily-killed residual
        # crashed the whole serial CloudService segment.
        noise = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) / 2
        telemetry = Telemetry()
        assert (
            try_decode(_BrittleModem(), noise, FS, telemetry=telemetry)
            is None
        )
        assert telemetry.counters["cloud.decode_errors"] == 1

    def test_repro_errors_are_not_counted_as_decode_errors(self, trio, rng):
        noise = (rng.normal(size=100_000) + 1j * rng.normal(size=100_000)) / 2
        telemetry = Telemetry()
        for modem in trio:
            try_decode(modem, noise, FS, telemetry=telemetry)
        assert "cloud.decode_errors" not in telemetry.counters

    def test_sync_retries_unshadow_a_spoofed_preamble(self, trio, rng):
        # A louder valid preamble with a garbage body wins the sync
        # search; without retries the real frame behind it is invisible.
        zwave = next(m for m in trio if m.name == "zwave")
        legit = zwave.modulate(b"the-real-one")
        pre = zwave.sync_reference()
        body = len(legit) - len(pre)
        garbage = (rng.normal(size=body) + 1j * rng.normal(size=body)) / np.sqrt(2)
        rms = float(np.sqrt(np.mean(np.abs(legit[len(pre):]) ** 2)))
        spoof = np.concatenate([pre, garbage * rms]) * 2.0
        gap = np.zeros(4000, dtype=complex)
        capture = np.concatenate([spoof, gap, legit])
        capture = capture + (
            rng.normal(size=len(capture)) + 1j * rng.normal(size=len(capture))
        ) * 0.01
        telemetry = Telemetry()
        assert try_decode(zwave, capture, zwave.sample_rate) is None
        frame = try_decode(
            zwave, capture, zwave.sample_rate,
            telemetry=telemetry, sync_retries=2,
        )
        assert frame is not None and frame.payload == b"the-real-one"
        assert telemetry.counters["cloud.sync_retries"] >= 1


class TestReconstruction:
    def test_deep_cancellation_without_cfo(self, trio, rng):
        lora = next(m for m in trio if m.name == "lora")
        builder = SceneBuilder(FS, 0.1, noise_power=1e-9)
        builder.add_packet(lora, b"cancel-me", 2000, 60, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        frame = try_decode(lora, capture, FS)
        residual, report = reconstruct_and_subtract(capture, FS, lora, frame)
        assert report.cancelled_db > 30
        packet_len = len(lora.modulate(b"cancel-me"))
        left = residual[2000 : 2000 + packet_len]
        assert np.mean(np.abs(left) ** 2) < 1e-6

    def test_cfo_limits_cancellation(self, trio, rng):
        # The strawman-SIC weakness the kill filters exploit.
        lora = next(m for m in trio if m.name == "lora")
        builder = SceneBuilder(FS, 0.1, noise_power=1e-9)
        builder.add_packet(
            lora, b"drifting", 2000, 60, rng, cfo_hz=900.0, snr_mode="capture"
        )
        capture, _ = builder.render(rng)
        frame = try_decode(lora, capture, FS)
        assert frame is not None  # the demodulator corrects CFO...
        _, report = reconstruct_and_subtract(capture, FS, lora, frame)
        # ...but the CFO-blind reconstruction cannot cancel deeply.
        assert report.cancelled_db < 15

    def test_reveals_weaker_signal(self, trio, rng):
        by = {m.name: m for m in trio}
        capture, truth = packet_scene(
            [by["lora"], by["xbee"]],
            [25, 10],
            FS,
            rng,
            payload_len=10,
            snr_mode="capture",
        )
        frame = try_decode(by["lora"], capture, FS)
        assert frame is not None
        residual, _ = reconstruct_and_subtract(capture, FS, by["lora"], frame)
        weak = try_decode(by["xbee"], residual, FS)
        assert weak is not None
        xbee_truth = next(p for p in truth.packets if p.technology == "xbee")
        assert weak.payload == xbee_truth.payload

    def test_short_frame_still_aligns(self, rng):
        # Regression: a frame shorter than one scoring block scored 0.0
        # at every candidate offset, so the alignment search silently
        # snapped to ``start - 16`` and the subtraction smeared the
        # frame instead of cancelling it.
        from repro.phy import create_modem

        ble = create_modem("ble")
        fs = ble.sample_rate
        wave = ble.modulate(b"x")
        assert len(wave) < max(int(0.25e-3 * fs), 128)  # the premise
        builder = SceneBuilder(fs, 0.002, noise_power=1e-9)
        builder.add_packet(ble, b"x", 2000, 60, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        frame = try_decode(ble, capture, fs)
        assert frame is not None
        residual, report = reconstruct_and_subtract(capture, fs, ble, frame)
        assert report.cancelled_db > 30
        left = residual[2000 : 2000 + len(wave)]
        assert np.mean(np.abs(left) ** 2) < 1e-6

    def test_high_ratio_alignment_window_scales(self, trio):
        # Regression: the alignment search probed a fixed ``start +- 16``
        # in *segment-rate* samples. At a segment rate well above the
        # modem's native rate, a chirp timing bias of a few *native*
        # samples exceeds that window, the search pins to its edge, and
        # the subtraction smears the frame instead of cancelling it.
        lora = next(m for m in trio if m.name == "lora")
        ratio = 8
        fs = ratio * lora.sample_rate
        wave = to_rate(lora.modulate(b"hi-rate"), lora.sample_rate, fs)
        samples = np.zeros(len(wave) + 8192, complex)
        pos = 4096
        samples[pos : pos + len(wave)] = wave
        # A start estimate biased 3 native samples early = 24 segment
        # samples: inside the rate-scaled window, outside the old one.
        bias_native = 3
        start_native = pos // ratio - bias_native
        frame = FrameResult(payload=b"hi-rate", crc_ok=True, start=start_native)
        residual, report = reconstruct_and_subtract(samples, fs, lora, frame)
        assert report.cancelled_db > 30
        left = residual[pos : pos + len(wave)]
        assert np.mean(np.abs(left) ** 2) < 1e-6

    def test_frame_outside_segment_is_noop(self, trio):
        lora = next(m for m in trio if m.name == "lora")
        from repro.phy.base import FrameResult

        fake = FrameResult(payload=b"x", crc_ok=True, start=10_000_000)
        samples = np.ones(1000, complex)
        residual, report = reconstruct_and_subtract(samples, FS, lora, fake)
        assert np.array_equal(residual, samples)
        assert report.cancelled_db == 0.0
