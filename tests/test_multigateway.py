"""Tests for multi-gateway coherent combining (the Charm extension)."""

import numpy as np
import pytest

from repro.dsp.correlation import cross_correlate
from repro.errors import ConfigurationError
from repro.net.multigateway import (
    ALIGN_SEARCH,
    combine_segments,
    receive_at_gateways,
    selection_diversity,
)
from repro.cloud.sic import try_decode


class TestReceive:
    def test_one_copy_per_gateway(self, xbee, rng):
        copies = receive_at_gateways(xbee, b"multi", [5.0, 0.0, -3.0], rng)
        assert [c.gateway_id for c in copies] == [0, 1, 2]
        assert all(len(c.samples) > 0 for c in copies)

    def test_copies_have_independent_noise(self, xbee, rng):
        copies = receive_at_gateways(xbee, b"multi", [0.0, 0.0], rng)
        assert not np.allclose(copies[0].samples, copies[1].samples)

    def test_empty_rejected(self, xbee, rng):
        with pytest.raises(ConfigurationError):
            receive_at_gateways(xbee, b"x", [], rng)


class TestCombining:
    def test_combining_raises_effective_snr(self, lora, rng):
        # Per-gateway in-band SNR too low for LoRa's FSK... for LoRa
        # the per-sample SNR here is direct; pick a level where a single
        # copy decodes rarely but four combined do.
        payload = b"deep-fade"
        fs = lora.sample_rate
        snr = -13.0  # per-gateway, below LoRa's single-copy threshold
        copies = receive_at_gateways(lora, payload, [snr] * 4, rng)
        single = selection_diversity(copies, lora, fs)
        combined = combine_segments(copies, lora.sync_waveform())
        frame = try_decode(lora, combined, fs)
        assert frame is not None and frame.payload == payload
        # (single may occasionally succeed; the guarantee is combined.)

    def test_combining_beats_best_single_power(self, xbee, rng):
        payload = b"mrc-check"
        fs = xbee.sample_rate
        copies = receive_at_gateways(xbee, payload, [6.0, 6.0, 6.0], rng)
        combined = combine_segments(copies, xbee.sync_waveform())
        frame = try_decode(xbee, combined, fs)
        assert frame is not None and frame.payload == payload

    def test_single_copy_combining_is_identity_like(self, xbee, rng):
        payload = b"solo"
        fs = xbee.sample_rate
        copies = receive_at_gateways(xbee, payload, [15.0], rng)
        combined = combine_segments(copies, xbee.sync_waveform())
        frame = try_decode(xbee, combined, fs)
        assert frame is not None and frame.payload == payload

    def test_empty_rejected(self, xbee):
        with pytest.raises(ConfigurationError):
            combine_segments([], xbee.sync_waveform())

    def test_search_window_bounds_alignment(self, xbee, rng):
        # Regression: the alignment peak used to be the *global* argmax
        # of each copy's correlation, silently ignoring the search window. A
        # strong burst far from the true position (here: a loud echo of
        # the sync waveform injected into one copy's leading noise,
        # ~1900 samples before the frame) hijacked that copy's
        # alignment, corrupting the MRC sum.
        payload = b"window-check"
        fs = xbee.sample_rate
        copies = receive_at_gateways(xbee, payload, [6.0, 6.0, 6.0], rng)
        sync = xbee.sync_waveform()
        decoy = copies[1]
        true_peak = int(
            np.argmax(np.abs(cross_correlate(decoy.samples, sync)))
        )
        bogus = true_peak - len(sync) - 40  # ends before the frame
        assert bogus > 0 and true_peak - bogus > ALIGN_SEARCH
        decoy.samples[bogus : bogus + len(sync)] += 50.0 * sync
        combined = combine_segments(copies, sync)
        frame = try_decode(xbee, combined, fs)
        assert frame is not None and frame.payload == payload


class TestSelectionBaseline:
    def test_picks_a_working_gateway(self, zwave, rng):
        payload = b"best-of-n"
        fs = zwave.sample_rate
        copies = receive_at_gateways(zwave, payload, [-20.0, 18.0], rng)
        frame = selection_diversity(copies, zwave, fs)
        assert frame is not None and frame.payload == payload

    def test_none_when_all_too_weak(self, zwave, rng):
        fs = zwave.sample_rate
        copies = receive_at_gateways(zwave, b"gone", [-25.0, -25.0], rng)
        assert selection_diversity(copies, zwave, fs) is None
