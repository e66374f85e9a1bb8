"""Tests for the multi-technology wireless sensing extension."""

import numpy as np
import pytest

from repro.cloud.sic import try_decode
from repro.errors import ConfigurationError
from repro.net.scene import SceneBuilder
from repro.sensing.features import ChannelSnapshot, snapshot_from_frame
from repro.sensing.occupancy import OccupancyDetector

FS = 1e6


def _snapshot_at(rng, modem, amplitude, time_s, device_id=0):
    """Render a packet through a channel of the given amplitude and
    extract its snapshot."""
    builder = SceneBuilder(FS, modem.frame_airtime(8) + 0.01, noise_power=1e-6)
    builder.add_packet(modem, b"sens-pkt", 2000, 40, rng, snr_mode="capture")
    capture, _ = builder.render(rng)
    capture = capture * amplitude
    frame = try_decode(modem, capture, FS)
    assert frame is not None
    return snapshot_from_frame(
        capture, FS, modem, frame, time_s=time_s, device_id=device_id
    )


class TestSnapshots:
    def test_amplitude_estimate(self, xbee, rng):
        snap = _snapshot_at(rng, xbee, amplitude=1.0, time_s=0.0)
        snap2 = _snapshot_at(rng, xbee, amplitude=2.0, time_s=1.0)
        assert snap2.amplitude == pytest.approx(2 * snap.amplitude, rel=0.2)

    def test_technology_recorded(self, zwave, rng):
        snap = _snapshot_at(rng, zwave, 1.0, 0.0, device_id=7)
        assert snap.technology == "zwave"
        assert snap.device_id == 7

    def test_frame_outside_segment_rejected(self, xbee):
        from repro.phy.base import FrameResult

        fake = FrameResult(payload=b"x", crc_ok=True, start=10_000_000)
        with pytest.raises(ConfigurationError):
            snapshot_from_frame(np.ones(100, complex), FS, xbee, fake)


class TestOccupancy:
    def _stream(self, jump_at=30, n=60, jump=1.6, rng=None):
        """Synthetic snapshots from 3 heterogeneous devices; the channel
        amplitude of every device shifts at ``jump_at``."""
        rng = rng or np.random.default_rng(4)
        snaps = []
        for i in range(n):
            dev = i % 3
            base = [1.0, 0.6, 1.4][dev]
            level = base * (jump if i >= jump_at else 1.0)
            level *= 1 + 0.01 * rng.normal()
            snaps.append(
                ChannelSnapshot(
                    time_s=float(i),
                    technology=["lora", "xbee", "zwave"][dev],
                    device_id=dev,
                    amplitude=level,
                    phase_rad=0.0,
                )
            )
        return snaps

    def test_detects_pooled_change(self):
        detector = OccupancyDetector(window_s=6.0, threshold=2.5)
        events = detector.detect(self._stream())
        assert events
        first = events[0]
        # The event window may begin up to window_s before the true
        # change (pre-jump snapshots share the window with the first
        # post-jump outliers).
        assert 30 - detector.window_s <= first.start_s <= 40

    def test_quiet_channel_no_events(self):
        detector = OccupancyDetector(window_s=6.0, threshold=2.5)
        events = detector.detect(self._stream(jump=1.0))
        assert events == []

    def test_unordered_snapshots_rejected(self):
        detector = OccupancyDetector()
        snaps = self._stream()[::-1]
        with pytest.raises(ConfigurationError):
            detector.detect(snaps)

    def test_baseline_period_silent(self):
        # Events cannot fire before MIN_BASELINE snapshots per device.
        detector = OccupancyDetector()
        events = detector.detect(self._stream(jump_at=0, n=10))
        assert all(e.start_s >= 3 for e in events)

    def test_merges_contiguous_events(self):
        detector = OccupancyDetector(window_s=6.0, threshold=2.0)
        events = detector.detect(self._stream(jump=2.0))
        # One sustained change = one (merged) event, not dozens.
        assert len(events) <= 2
