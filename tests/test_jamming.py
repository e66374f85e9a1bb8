"""Tests for the jamming detector (repro.sensing.jamming)."""

import numpy as np
import pytest

from repro.dsp.jam import cw_tone, pulsed_noise, swept_tone
from repro.errors import ConfigurationError
from repro.sensing import JammingDetector
from repro.telemetry import Telemetry

FS = 1e6
NAN, INF = float("nan"), float("inf")


def _noise(n, rng, power=1.0):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.sqrt(power / 2)


def _detector(**kwargs):
    return JammingDetector(FS, **kwargs)


class TestValidation:
    def test_rejects_bad_config(self):
        # NaN used to escape as a bare ValueError and inf as an
        # OverflowError, both from the block-length rounding.
        for rate in (0.0, -1e6, NAN, INF):
            with pytest.raises(ConfigurationError):
                JammingDetector(rate)


class TestGeneratorValidation:
    # Each of these returned NaN samples, or a waveform at an infinite
    # rate, instead of raising.
    @pytest.mark.parametrize(
        "args",
        [(64, NAN, 1e3), (64, INF, 1e3), (64, FS, NAN), (64, FS, 1e3, NAN)],
        ids=["rate-nan", "rate-inf", "freq-nan", "phase-nan"],
    )
    def test_cw_tone(self, args):
        with pytest.raises(ConfigurationError):
            cw_tone(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (64, NAN, -1e3, 1e3, 0.01),
            (64, INF, -1e3, 1e3, 0.01),
            (64, FS, -1e3, 1e3, NAN),
            (64, FS, -1e3, 1e3, INF),
            (64, FS, NAN, 1e3, 0.01),
            (64, FS, -1e3, 1e3, 0.01, INF),
        ],
        ids=["rate-nan", "rate-inf", "period-nan", "period-inf", "span-nan", "phase-inf"],
    )
    def test_swept_tone(self, args):
        with pytest.raises(ConfigurationError):
            swept_tone(*args)

    @pytest.mark.parametrize(
        "args",
        [(64, INF, 0.01, 0.5), (64, NAN, 0.01, 0.5), (64, FS, NAN, 0.5), (64, FS, INF, 0.5)],
        ids=["rate-inf", "rate-nan", "period-nan", "period-inf"],
    )
    def test_pulsed_noise(self, args, rng):
        with pytest.raises(ConfigurationError):
            pulsed_noise(*args, rng)


class TestDetection:
    def test_clean_noise_produces_no_events(self):
        rng = np.random.default_rng(0)
        det = _detector()
        det.feed(_noise(400_000, rng))
        det.flush()
        assert det.drain_events() == []
        assert det.pressure_at(0.2) == 0.0

    def test_wideband_burst_is_detected(self):
        rng = np.random.default_rng(0)
        det = _detector()
        quiet = _noise(100_000, rng)
        jam = quiet[:].copy()
        burst = _noise(60_000, rng, power=16.0)
        capture = np.concatenate([quiet, burst + _noise(60_000, rng), jam])
        det.feed(capture)
        det.flush()
        events = det.drain_events()
        assert len(events) == 1
        (event,) = events
        assert event.start_s == pytest.approx(0.1, abs=0.01)
        assert event.end_s == pytest.approx(0.16, abs=0.01)
        assert event.floor_rise_db > 2.0
        assert 0.0 < event.score <= 1.0

    def test_cw_tone_is_detected_via_peak(self):
        # A CW tone moves neither the robust floor nor the occupancy
        # much; the single-bin peak statistic must still catch it.
        rng = np.random.default_rng(0)
        det = _detector()
        tone = cw_tone(80_000, FS, 150e3) * np.sqrt(4.0)
        capture = np.concatenate(
            [_noise(80_000, rng), tone + _noise(80_000, rng), _noise(80_000, rng)]
        )
        det.feed(capture)
        det.flush()
        assert len(det.drain_events()) == 1

    def test_pulsed_jammer_accumulates_into_one_event(self):
        # 25 %-duty bursts are off for 3 of every 4 blocks; the gap
        # tolerance must still fuse them into a single sustained event.
        rng = np.random.default_rng(0)
        det = _detector()
        pulses = pulsed_noise(300_000, FS, 0.020, 0.25, rng) * np.sqrt(16.0)
        capture = np.concatenate(
            [_noise(60_000, rng), pulses + _noise(300_000, rng), _noise(60_000, rng)]
        )
        det.feed(capture)
        det.flush()
        events = det.drain_events()
        assert len(events) == 1
        assert events[0].n_blocks >= 5

    def test_lone_loud_frame_is_not_an_event(self):
        rng = np.random.default_rng(0)
        det = _detector()
        blip = _noise(3_000, rng, power=30.0)  # one frame's airtime
        capture = np.concatenate(
            [_noise(100_000, rng), blip, _noise(100_000, rng)]
        )
        det.feed(capture)
        det.flush()
        assert det.drain_events() == []

    def test_telemetry_counts_events(self):
        rng = np.random.default_rng(0)
        telemetry = Telemetry()
        det = _detector(telemetry=telemetry)
        capture = np.concatenate(
            [_noise(80_000, rng), _noise(60_000, rng, power=16.0)]
        )
        det.feed(capture)
        det.flush()
        assert telemetry.counters["attack.jamming_events"] == 1


class TestStreamingParity:
    def test_chunked_equals_monolithic(self):
        rng = np.random.default_rng(1)
        jam = pulsed_noise(200_000, FS, 0.020, 0.25, rng) * np.sqrt(16.0)
        capture = np.concatenate(
            [_noise(90_000, rng), jam + _noise(200_000, rng), _noise(90_000, rng)]
        )

        def events_with_chunk(chunk):
            det = _detector()
            for lo in range(0, len(capture), chunk):
                det.feed(capture[lo : lo + chunk])
            det.flush()
            return det.drain_events()

        mono = events_with_chunk(len(capture))
        assert mono == events_with_chunk(37_777)
        assert mono == events_with_chunk(5_000)

    def test_reset_forgets_everything(self):
        rng = np.random.default_rng(1)
        det = _detector()
        det.feed(_noise(100_000, rng, power=16.0))
        det.reset()
        assert det.drain_events() == []
        assert det.pressure_at(0.05) == 0.0
        det.feed(_noise(200_000, rng))
        det.flush()
        assert det.drain_events() == []


class TestPressureAndGate:
    def test_pressure_rises_under_jam_and_decays_after(self):
        rng = np.random.default_rng(2)
        det = _detector()
        capture = np.concatenate(
            [
                _noise(100_000, rng),
                _noise(100_000, rng, power=16.0),
                _noise(100_000, rng),
            ]
        )
        det.feed(capture)
        assert det.pressure_at(0.05) == 0.0
        assert det.pressure_at(0.15) > 0.5
        assert det.pressure_at(0.29) == 0.0

    def test_moderate_jam_severity_stays_below_ladder_bar(self):
        # Calibration contract: a tone or moderate burst must not cross
        # the DegradationLadder's 0.6 escalation threshold — degrading
        # decodable frames would be a self-inflicted outage.
        rng = np.random.default_rng(2)
        det = _detector()
        capture = np.concatenate(
            [_noise(100_000, rng), _noise(100_000, rng, power=3.0)]
        )
        det.feed(capture)
        assert 0.0 < det.pressure_at(0.15) < 0.6

    def test_gate_rise_needs_persistence(self):
        rng = np.random.default_rng(2)
        det = _detector()
        block = det.block
        # Baseline, then exactly three anomalous blocks: enough to open
        # an event (min_blocks=3) but below the gate's persistence bar.
        capture = np.concatenate(
            [_noise(10 * block, rng), _noise(3 * block, rng, power=16.0)]
        )
        det.feed(capture)
        assert det.rise_at(12.5 * block / FS) == 0.0
        # A long run does raise the gate.
        det2 = _detector()
        det2.feed(
            np.concatenate(
                [_noise(10 * block, rng), _noise(10 * block, rng, power=16.0)]
            )
        )
        assert det2.rise_at(18.5 * block / FS) > 0.0
        # Out-of-range queries answer 0 (causal signal).
        assert det2.rise_at(-1.0) == 0.0
        assert det2.rise_at(100.0) == 0.0
