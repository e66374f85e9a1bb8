"""Simulator parameter behaviours: backoff randomization."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.mac import MacState


class TestRetransmitBackoff:
    def test_fresh_frames_always_transmit(self, rng):
        mac = MacState(max_attempts=4)
        for i in range(6):
            mac.new_frame(i, bytes([i]))
        frames = mac.take_round(rng, tx_prob=0.01)
        assert len(frames) == 6  # attempts == 0 bypasses the coin flip

    def test_retries_are_spread_over_rounds(self):
        rng = np.random.default_rng(3)
        mac = MacState(max_attempts=10)
        for i in range(40):
            mac.new_frame(i, bytes([i]))
        first = mac.take_round(rng, tx_prob=0.5)
        for frame in first:
            mac.report(frame, delivered=False)
        second = mac.take_round(rng, tx_prob=0.5)
        # Roughly half the retries back off this round.
        assert 5 <= len(second) <= 35
        held = 40 - len(second)
        assert held >= 5

    def test_held_frames_do_not_age(self):
        rng = np.random.default_rng(4)
        mac = MacState(max_attempts=2)
        mac.new_frame(0, b"x")
        (frame,) = mac.take_round(rng, tx_prob=1.0)
        mac.report(frame, delivered=False)
        # Force a hold by zero-ish probability draw loop:
        for _ in range(20):
            sent = mac.take_round(rng, tx_prob=0.05)
            if sent:
                break
        # Whether held or sent, attempts never exceeded max.
        assert frame.attempts <= 2

    def test_invalid_probability_rejected(self, rng):
        mac = MacState()
        with pytest.raises(ConfigurationError):
            mac.take_round(rng, tx_prob=0.0)
        with pytest.raises(ConfigurationError):
            mac.take_round(rng, tx_prob=1.5)
