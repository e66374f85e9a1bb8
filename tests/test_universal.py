"""Unit tests for the universal preamble (the paper's Sec. 4 core)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gateway.detection import detection_ratio
from repro.gateway.universal import UniversalPreamble, UniversalPreambleDetector
from repro.net.scene import SceneBuilder
from repro.phy import create_modem

FS = 1e6


@pytest.fixture(scope="module")
def universal(trio=None):
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    return UniversalPreamble.build(modems, FS)


class TestConstruction:
    def test_length_is_max_preamble(self, universal, trio):
        longest = max(
            len(m.preamble_waveform()) for m in trio
        )
        assert universal.length == longest

    def test_default_profiles_stay_apart(self, universal):
        # At their authentic rates (XBee 25 kb/s vs Z-Wave 40 kb/s) the
        # 0x55 preamble waveforms correlate poorly and are NOT common,
        # so each keeps its own representative; LoRa stands alone.
        groups = {frozenset(g) for g in universal.groups}
        assert frozenset({"lora"}) in groups
        assert len(universal.groups) == 3

    def test_coalesces_truly_common_preambles(self):
        # The paper's coalescing step: configure XBee at the Z-Wave R2
        # rate/deviation so their 0x55 preambles ARE the same waveform —
        # they must merge into one group with the shortest (XBee,
        # 4-byte) preamble as the representative.
        xbee_like = create_modem(
            "xbee", bit_rate=40e3, sps=25, deviation_hz=20e3, bt=None
        )
        zwave = create_modem("zwave")
        lora = create_modem("lora")
        up = UniversalPreamble.build([lora, xbee_like, zwave], FS)
        groups = {frozenset(g) for g in up.groups}
        assert frozenset({"xbee", "zwave"}) in groups
        merged = next(g for g in up.groups if set(g) == {"xbee", "zwave"})
        assert merged[0] == "xbee"  # shortest representative

    def test_shortest_is_representative(self, universal, trio):
        by = {m.name: m for m in trio}
        for group in universal.groups:
            rep = group[0]
            for other in group[1:]:
                assert len(by[rep].preamble_waveform()) <= len(
                    by[other].preamble_waveform()
                )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            UniversalPreamble.build([], FS)

    def test_response_spike_for_every_technology(self, universal, trio):
        # The paper's analysis: C(P_j, P) shows a distinct spike for
        # each registered technology. Group representatives respond at
        # full strength; coalesced members respond through their
        # representative at reduced (but usable) strength — the
        # "universal more susceptible than individual preambles"
        # observation of Sec. 7.
        representatives = {g[0] for g in universal.groups}
        for modem in trio:
            wave = modem.preamble_waveform()
            wave = wave / np.sqrt(np.sum(np.abs(wave) ** 2))
            response = universal.response_to(wave)
            floor = 0.4 if modem.name in representatives else 0.25
            assert response > floor, modem.name

    def test_single_technology_build(self):
        lora = create_modem("lora")
        up = UniversalPreamble.build([lora], FS)
        assert up.groups == [["lora"]]


class TestDetector:
    def _scene(self, rng, snr, techs=("lora", "xbee", "zwave")):
        builder = SceneBuilder(FS, 0.4)
        for i, tech in enumerate(techs):
            builder.add_packet(
                create_modem(tech),
                b"universal!",
                start=40_000 + i * 110_000,
                snr_db=snr,
                rng=rng,
                snr_mode="capture",
            )
        return builder.render(rng)

    def test_single_correlation_regardless_of_bank(self, universal):
        assert UniversalPreambleDetector(universal).n_correlations == 1

    def test_detects_all_three_technologies(self, universal, rng):
        capture, truth = self._scene(rng, snr=5)
        detector = UniversalPreambleDetector(universal)
        events = detector.detect(capture)
        ratio = detection_ratio(events, truth.packets, gate=universal.length)
        assert ratio == 1.0

    def test_detects_below_noise_floor(self, universal, rng):
        capture, truth = self._scene(rng, snr=-10)
        events = UniversalPreambleDetector(universal).detect(capture)
        ratio = detection_ratio(events, truth.packets, gate=universal.length)
        assert ratio == 1.0

    def test_distinct_peaks_for_collision(self, universal, rng):
        # Two technologies overlapping in time: the paper requires
        # "multiple distinct peaks" from the single correlation.
        builder = SceneBuilder(FS, 0.3)
        builder.add_packet(
            create_modem("lora"), b"first", 30_000, 8, rng, snr_mode="capture"
        )
        builder.add_packet(
            create_modem("xbee"), b"second", 45_000, 8, rng, snr_mode="capture"
        )
        capture, truth = builder.render(rng)
        events = UniversalPreambleDetector(universal).detect(capture)
        detected, _ = __import__(
            "repro.gateway.detection", fromlist=["match_events"]
        ).match_events(events, truth.packets, gate=universal.length)
        assert detected == {0, 1}

    def test_silent_on_pure_noise(self, universal, rng):
        noise = (rng.normal(size=300_000) + 1j * rng.normal(size=300_000)) / 2
        events = UniversalPreambleDetector(universal).detect(noise)
        assert len(events) <= 2

    def test_short_capture_returns_empty(self, universal):
        assert UniversalPreambleDetector(universal).detect(
            np.zeros(100, complex)
        ) == []

    def test_scales_to_new_technology(self):
        # The "software update": adding BLE is just rebuilding the sum.
        modems = [create_modem(n) for n in ("lora", "xbee", "zwave", "sigfox")]
        up = UniversalPreamble.build(modems, FS)
        assert UniversalPreambleDetector(up).n_correlations == 1
        assert any("sigfox" in g for g in up.groups)
