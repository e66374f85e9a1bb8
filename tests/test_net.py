"""Tests for the network substrate: devices, traffic, scenes, MAC, energy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.device import Device, EnergyProfile
from repro.net.mac import MacState
from repro.net.scene import SceneBuilder
from repro.net.traffic import packet_scene, poisson_scene

FS = 1e6


def _device(modem, device_id=0, interval=0.2, snr=12.0):
    return Device(
        device_id=device_id,
        technology=modem.name,
        modem=modem,
        mean_interval_s=interval,
        payload_range=(6, 10),
        snr_db=snr,
    )


class TestDevice:
    def test_payload_size_range(self, xbee, rng):
        dev = _device(xbee)
        sizes = {len(dev.draw_payload(rng)) for _ in range(60)}
        assert sizes <= set(range(6, 11))
        assert len(sizes) > 1

    def test_poisson_arrival_rate(self, xbee, rng):
        dev = _device(xbee, interval=0.05)
        times = dev.draw_arrivals(50.0, rng)
        assert len(times) == pytest.approx(1000, rel=0.15)
        assert np.all(np.diff(times) > 0)

    def test_payload_exceeding_modem_rejected(self, sigfox):
        with pytest.raises(ConfigurationError):
            Device(0, "sigfox", sigfox, payload_range=(1, 20))

    def test_invalid_interval_rejected(self, xbee):
        with pytest.raises(ConfigurationError):
            Device(0, "xbee", xbee, mean_interval_s=0)

    def test_energy_profile(self):
        profile = EnergyProfile(tx_power_w=0.1, battery_j=1000.0)
        assert profile.tx_energy(0.5) == pytest.approx(0.05)


class TestSceneBuilder:
    def test_truth_records_extent(self, xbee, rng):
        builder = SceneBuilder(FS, 0.1)
        truth = builder.add_packet(xbee, b"extent", 5000, 10, rng)
        assert truth.start == 5000
        assert truth.length == pytest.approx(
            xbee.frame_airtime(6) * FS, abs=2
        )
        assert truth.end == truth.start + truth.length

    def test_inband_snr_honoured(self, xbee, rng):
        builder = SceneBuilder(FS, 0.1, noise_power=1.0)
        builder.add_packet(xbee, b"snr", 5000, 10, rng, snr_mode="inband")
        capture, truth = builder.render(rng)
        p = truth.packets[0]
        sig = capture[p.start : p.end]
        measured = np.mean(np.abs(sig) ** 2) - 1.0  # remove noise power
        in_band_noise = 1.0 * xbee.bandwidth / FS
        snr = 10 * np.log10(measured / in_band_noise)
        assert snr == pytest.approx(10.0, abs=1.0)

    def test_capture_snr_honoured(self, xbee, rng):
        builder = SceneBuilder(FS, 0.1, noise_power=1.0)
        builder.add_packet(xbee, b"snr", 5000, 0, rng, snr_mode="capture")
        capture, truth = builder.render(rng)
        p = truth.packets[0]
        sig_plus_noise = np.mean(np.abs(capture[p.start : p.end]) ** 2)
        assert sig_plus_noise == pytest.approx(2.0, rel=0.15)

    def test_unknown_snr_mode_rejected(self, xbee, rng):
        builder = SceneBuilder(FS, 0.05)
        with pytest.raises(ConfigurationError):
            builder.add_packet(xbee, b"x", 0, 0, rng, snr_mode="erp")

    def test_collisions_listed(self, xbee, zwave, rng):
        builder = SceneBuilder(FS, 0.2)
        builder.add_packet(xbee, b"a", 10_000, 10, rng)
        builder.add_packet(zwave, b"b", 12_000, 10, rng)
        builder.add_packet(xbee, b"c", 150_000, 10, rng)
        _, truth = builder.render(rng)
        pairs = truth.collisions()
        assert [(a.packet_id, b.packet_id) for a, b in pairs] == [(0, 1)]

    def test_noiseless_scene(self, xbee, rng):
        builder = SceneBuilder(FS, 0.05, noise_power=0.0)
        builder.add_packet(xbee, b"clean", 1000, 10, rng)
        capture, _ = builder.render(rng)
        assert np.all(capture[:1000] == 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_rate_hz": float("nan")},
            {"sample_rate_hz": float("inf")},
            {"duration_s": float("nan")},
            {"duration_s": float("inf")},
            {"noise_power": float("nan")},
        ],
    )
    def test_non_finite_scene_parameters_rejected(self, kwargs):
        # NaN slipped through the ``<= 0`` checks and failed later in
        # int() with ValueError; inf failed with OverflowError.
        args = {"sample_rate_hz": FS, "duration_s": 0.05, **kwargs}
        with pytest.raises(ConfigurationError):
            SceneBuilder(**args)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snr_rejected(self, xbee, rng, snr_db):
        # A NaN SNR rendered an all-NaN capture, which a drill then
        # scored as 100 % survival of an empty baseline.
        builder = SceneBuilder(FS, 0.05)
        with pytest.raises(ConfigurationError):
            builder.add_packet(xbee, b"x", 0, snr_db, rng, snr_mode="capture")


class TestTrafficGenerators:
    def test_poisson_scene_truth(self, trio, rng):
        devices = [
            _device(m, device_id=i, interval=0.1) for i, m in enumerate(trio)
        ]
        capture, truth = poisson_scene(devices, FS, 0.5, rng)
        assert truth.n_samples == int(0.5 * FS)
        assert len(truth.packets) > 0
        assert {p.device_id for p in truth.packets} <= {0, 1, 2}

    def test_collision_scene_full_overlap(self, trio, rng):
        capture, truth = packet_scene(trio[:2], [10, 10], FS, rng)
        assert truth.packets[0].start == truth.packets[1].start
        assert [(a.packet_id, b.packet_id) for a, b in truth.collisions()] == [(0, 1)]

    def test_collision_scene_no_overlap(self, trio, rng):
        capture, truth = packet_scene(
            trio[:2], [10, 10], FS, rng, overlap=0.0
        )
        assert not truth.collisions()

    def test_mismatched_lengths_rejected(self, trio, rng):
        with pytest.raises(ConfigurationError):
            packet_scene(trio[:2], [10.0], FS, rng)

    def test_partial_overlap_slides_by_preceding_airtime(self, trio, rng):
        # Pinned semantics: packet i+1 starts (1 - overlap) of packet
        # i's *own* airtime after packet i, so every consecutive pair
        # of heterogeneous technologies overlaps by the same fraction
        # of the earlier frame (the docstring used to claim the slide
        # was a fraction of the *first* airtime).
        overlap = 0.5
        payload_len = 16
        capture, truth = packet_scene(
            trio, [10, 10, 10], FS, rng,
            payload_len=payload_len, overlap=overlap,
        )
        airtimes = [m.frame_airtime(payload_len) for m in trio]
        starts = sorted(p.start for p in truth.packets)
        for i in range(2):
            expected_gap = airtimes[i] * (1.0 - overlap)
            gap_s = (starts[i + 1] - starts[i]) / FS
            assert gap_s == pytest.approx(expected_gap, abs=2 / FS)
        # The three technologies have distinct airtimes, so the slide
        # visibly differs from a first-airtime rule for packet 2.
        assert airtimes[0] != pytest.approx(airtimes[1])


class TestMac:
    def test_delivery_flow(self, rng):
        mac = MacState(max_attempts=3)
        frame = mac.new_frame(0, b"pkt")
        (sent,) = mac.take_round(rng)
        assert sent.attempts == 1
        mac.report(sent, delivered=True)
        assert mac.delivered == 1
        assert mac.queue == []

    def test_retransmission_until_drop(self, rng):
        mac = MacState(max_attempts=2)
        mac.new_frame(0, b"pkt")
        for expected_attempt in (1, 2):
            (frame,) = mac.take_round(rng)
            assert frame.attempts == expected_attempt
            mac.report(frame, delivered=False)
        assert mac.dropped == 1
        assert mac.take_round(rng) == []

    def test_attempts_per_delivery(self, rng):
        mac = MacState(max_attempts=4)
        mac.new_frame(0, b"a")
        (f,) = mac.take_round(rng)
        mac.report(f, delivered=False)
        (f,) = mac.take_round(rng)
        mac.report(f, delivered=True)
        assert mac.attempts_per_delivery == pytest.approx(2.0)

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ConfigurationError):
            MacState(max_attempts=0)
