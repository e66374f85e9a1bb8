"""Unit tests for the Sec.-5 kill filters."""

import numpy as np
import pytest

from repro.cloud.classify import ClassifiedSignal, SegmentClassifier
from repro.cloud.kill_filters import (
    KillCodes,
    KillCss,
    KillFrequency,
    kill_filter_for,
)
from repro.cloud.sic import try_decode
from repro.dsp.channel import signal_power
from repro.errors import ConfigurationError
from repro.net.scene import SceneBuilder
from repro.phy import create_modem

FS = 1e6


def _clean_packet(modem, payload, rng, snr=60, fs=FS, duration=0.12):
    builder = SceneBuilder(fs, duration, noise_power=1e-9)
    builder.add_packet(modem, payload, 2000, snr, rng, snr_mode="capture")
    capture, truth = builder.render(rng)
    return capture, truth.packets[0]


class TestDispatch:
    def test_filter_per_modulation(self):
        assert isinstance(kill_filter_for(create_modem("xbee")), KillFrequency)
        assert isinstance(kill_filter_for(create_modem("zwave")), KillFrequency)
        assert isinstance(kill_filter_for(create_modem("sigfox")), KillFrequency)
        assert isinstance(kill_filter_for(create_modem("lora")), KillCss)
        assert isinstance(kill_filter_for(create_modem("oqpsk154")), KillCodes)

    def test_wrong_class_rejected(self):
        with pytest.raises(ConfigurationError):
            KillFrequency(create_modem("lora"))
        with pytest.raises(ConfigurationError):
            KillCss(create_modem("xbee"))
        with pytest.raises(ConfigurationError):
            KillCodes(create_modem("zwave"))


class TestKillFrequency:
    def test_suppresses_fsk_target(self, rng):
        xbee = create_modem("xbee")
        capture, _ = _clean_packet(xbee, b"victim", rng)
        filtered = KillFrequency(xbee).apply(capture, FS)
        assert signal_power(filtered) < 0.12 * signal_power(capture)

    def test_bands_cover_both_tones(self):
        kill = KillFrequency(create_modem("zwave"))
        bands = kill.bands()
        centers = sorted((lo + hi) / 2 for lo, hi in bands)
        assert centers[0] == pytest.approx(-20e3, abs=1e3)
        assert centers[1] == pytest.approx(+20e3, abs=1e3)

    def test_psk_band_is_single(self):
        kill = KillFrequency(create_modem("sigfox"))
        assert len(kill.bands()) == 1

    def test_offset_target_notched_at_its_center(self, rng):
        # Regression: ``apply`` used to drop its ``target`` argument and
        # always notch baseband, so a victim sitting off its nominal
        # center (neighbouring channel, large CFO) was never removed.
        xbee = create_modem("xbee")
        builder = SceneBuilder(FS, 0.12, noise_power=1e-9)
        builder.add_packet(
            xbee, b"shifted", 2000, 60, rng, cfo_hz=150e3, snr_mode="capture"
        )
        capture, _ = builder.render(rng)
        kill = KillFrequency(xbee)
        target = ClassifiedSignal(
            "xbee", start=2000, score=1.0, amplitude=1.0, center_hz=150e3
        )
        on_target = kill.apply(capture, FS, target)
        assert signal_power(on_target) < 0.12 * signal_power(capture)
        # The baseband notches demonstrably miss this transmission.
        baseband = kill.apply(capture, FS)
        assert signal_power(baseband) > 0.5 * signal_power(capture)

    def test_css_bystander_survives(self, rng):
        lora = create_modem("lora")
        xbee = create_modem("xbee")
        lora_cap, lora_truth = _clean_packet(lora, b"survivor", rng)
        filtered = KillFrequency(xbee).apply(lora_cap, FS)
        # LoRa loses only the notched slice of its band (CSS immunity)...
        assert signal_power(filtered) > 0.25 * signal_power(lora_cap)
        # ...and still decodes.
        frame = try_decode(lora, filtered, FS)
        assert frame is not None and frame.payload == b"survivor"

    def test_functional_rescue_of_blocked_lora(self, rng):
        # The Algorithm-1 use case: an FSK transmitter ~15 dB above a
        # LoRa packet blocks it; notching the FSK tones unblocks it.
        from repro.net.traffic import packet_scene

        lora = create_modem("lora")
        xbee = create_modem("xbee")
        rescued = 0
        trials = 4
        for _ in range(trials):
            cap, truth = packet_scene(
                [xbee, lora], [22.0, 8.0], FS, rng,
                payload_len=10, snr_mode="capture",
            )
            lora_truth = next(
                p for p in truth.packets if p.technology == "lora"
            )
            filtered = KillFrequency(xbee).apply(cap, FS)
            frame = try_decode(lora, filtered, FS)
            rescued += (
                frame is not None and frame.payload == lora_truth.payload
            )
        assert rescued >= 2


class TestKillCss:
    def test_suppresses_lora_target(self, rng, trio):
        lora = create_modem("lora")
        capture, truth = _clean_packet(lora, b"chirps", rng)
        victim = SegmentClassifier(trio, FS).classify(capture)[0]
        assert victim.technology == "lora"
        filtered = KillCss(lora).apply(capture, FS, victim)
        region = slice(truth.start, truth.end)
        before = signal_power(capture[region])
        after = signal_power(filtered[region])
        assert after < 0.12 * before

    def test_fsk_bystander_survives(self, rng, trio):
        lora = create_modem("lora")
        xbee = create_modem("xbee")
        xbee_cap, _ = _clean_packet(xbee, b"bystander", rng)
        victim = ClassifiedSignal("lora", start=2000, score=1.0, amplitude=1.0)
        filtered = KillCss(lora).apply(xbee_cap, FS, victim)
        assert signal_power(filtered) > 0.8 * signal_power(xbee_cap)
        frame = try_decode(xbee, filtered, FS)
        assert frame is not None and frame.payload == b"bystander"

    def test_wrong_rate_rejected(self, rng):
        lora = create_modem("lora")
        victim = ClassifiedSignal("lora", 0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            KillCss(lora).apply(np.ones(4096, complex), 2e6, victim)

    def test_misaligned_start_still_suppresses(self, rng):
        # The classifier start can be off by fractions of a symbol.
        lora = create_modem("lora")
        capture, truth = _clean_packet(lora, b"offset", rng)
        victim = ClassifiedSignal("lora", start=2000 + 300, score=1.0, amplitude=1.0)
        filtered = KillCss(lora).apply(capture, FS, victim)
        region = slice(truth.start, truth.end)
        assert signal_power(filtered[region]) < 0.35 * signal_power(
            capture[region]
        )


class TestKillCodes:
    def test_suppresses_dsss_target(self, rng):
        oq = create_modem("oqpsk154")
        fs = oq.sample_rate
        capture, truth = _clean_packet(oq, b"spread", rng, fs=fs, duration=0.01)
        victim = ClassifiedSignal("oqpsk154", start=2000, score=1.0, amplitude=1.0)
        filtered = KillCodes(oq).apply(capture, fs, victim)
        region = slice(truth.start, truth.end)
        assert signal_power(filtered[region]) < 0.2 * signal_power(capture[region])

    def test_enables_decoding_collided_partner(self, rng):
        # Two DSSS-class... no: kill the O-QPSK out of an
        # O-QPSK + BLE collision at the O-QPSK native rate.
        oq = create_modem("oqpsk154")
        ble = create_modem("ble")
        fs = oq.sample_rate
        builder = SceneBuilder(fs, 0.004, noise_power=1e-6)
        builder.add_packet(oq, b"loud-dsss", 1000, 40, rng, snr_mode="capture")
        builder.add_packet(ble, b"quiet-ble", 1200, 20, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        blocked = try_decode(ble, capture, fs)
        victim = ClassifiedSignal("oqpsk154", start=1000, score=1.0, amplitude=1.0)
        filtered = KillCodes(oq).apply(capture, fs, victim)
        freed = try_decode(ble, filtered, fs)
        assert freed is not None and freed.payload == b"quiet-ble"
        # (blocked may occasionally succeed; the guarantee is about freed)

    def test_wrong_rate_rejected(self):
        oq = create_modem("oqpsk154")
        victim = ClassifiedSignal("oqpsk154", 0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            KillCodes(oq).apply(np.ones(1024, complex), 1e6, victim)
