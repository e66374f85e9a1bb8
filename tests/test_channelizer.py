"""Tests for the FFT channelizer (all-channels-at-once front end)."""

import numpy as np
import pytest

from repro.dsp.filters import frequency_shift
from repro.dsp.resample import to_rate
from repro.gateway.channelizer import Channelizer
from repro.gateway.hopping import ChannelPlan, HoppingFrontend
from repro.phy import create_modem

WIDE_FS = 4e6
CH_BW = 1e6


@pytest.fixture(scope="module")
def plan():
    return ChannelPlan.uniform(WIDE_FS, CH_BW, 4)


def _tone_on_channel(plan, channel, offset_hz, n):
    freq = plan.centers_hz[channel] + offset_hz
    return np.exp(2j * np.pi * freq * np.arange(n) / plan.wide_fs)


class TestFftMode:
    def test_energy_lands_on_the_right_channel(self, plan):
        wide = _tone_on_channel(plan, 2, 100e3, 40_000)
        channels = Channelizer(plan).split(wide)
        powers = {c: float(np.mean(np.abs(x) ** 2)) for c, x in channels.items()}
        assert powers[2] > 100 * max(powers[c] for c in (0, 1, 3))

    def test_baseband_frequency_is_relative(self, plan):
        wide = _tone_on_channel(plan, 1, 150e3, 40_000)
        channels = Channelizer(plan).split(wide)
        x = channels[1]
        freqs = np.fft.fftfreq(len(x), 1.0 / plan.channel_bw)
        peak = freqs[np.argmax(np.abs(np.fft.fft(x)))]
        assert peak == pytest.approx(150e3, abs=plan.channel_bw / len(x))

    def test_frame_decodes_from_channel(self, plan):
        xbee = create_modem("xbee")
        wave = to_rate(xbee.modulate(b"channelized"), xbee.sample_rate, WIDE_FS)
        wave = frequency_shift(wave, plan.centers_hz[3], WIDE_FS)
        wide = np.zeros(len(wave) + 8000, complex)
        wide[4000 : 4000 + len(wave)] = wave
        channels = Channelizer(plan).split(wide)
        frame = xbee.demodulate(channels[3])
        assert frame.crc_ok and frame.payload == b"channelized"

    def test_output_rate(self, plan):
        wide = np.zeros(40_000, complex)
        channels = Channelizer(plan).split(wide)
        assert all(len(x) == 10_000 for x in channels.values())

    def test_each_channel_is_the_tuners_cut(self, plan):
        # The channelizer and the hopping tuner cut a channel one way.
        rng = np.random.default_rng(7)
        wide = rng.normal(size=40_000) + 1j * rng.normal(size=40_000)
        wide += _tone_on_channel(plan, 0, -200e3, len(wide))
        channels = Channelizer(plan).split(wide)
        tuner = HoppingFrontend(plan)
        assert sorted(channels) == list(range(plan.n_channels))
        for c, x in channels.items():
            assert np.array_equal(x, tuner.tune(wide, c, 0, len(wide)))
