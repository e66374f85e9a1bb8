"""Unit tests for repro.dsp.correlation."""

import numpy as np
import pytest

from repro.dsp.correlation import (
    cross_correlate,
    find_peaks_above,
    segmented_correlation,
    segmented_peak,
)
from repro.dsp.impairments import apply_cfo
from repro.errors import ConfigurationError


def _template(rng, n=256):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


class TestCrossCorrelate:
    def test_peak_at_true_offset(self, rng):
        tpl = _template(rng)
        x = np.concatenate([np.zeros(100, complex), tpl, np.zeros(50, complex)])
        corr = cross_correlate(x, tpl)
        assert int(np.argmax(np.abs(corr))) == 100

    def test_output_length(self, rng):
        tpl = _template(rng, 32)
        x = np.zeros(100, complex)
        assert len(cross_correlate(x, tpl)) == 100 - 32 + 1

    def test_template_longer_than_signal_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            cross_correlate(np.zeros(10, complex), _template(rng, 20))

    def test_scale_invariance_of_peak_position(self, rng):
        tpl = _template(rng)
        x = np.concatenate([np.zeros(40, complex), 0.01 * tpl])
        corr = cross_correlate(x, tpl)
        assert int(np.argmax(np.abs(corr))) == 40


class TestNormalizedCorrelation:
    """The coherent normalized correlation: ``segmented_correlation``
    with one block, ``|c[n]| / (||t|| * ||x[n : n+L]||)``."""

    def test_perfect_match_scores_one(self, rng):
        tpl = _template(rng)
        x = np.concatenate([np.zeros(80, complex), 3.7 * tpl, np.zeros(80, complex)])
        scores = segmented_correlation(x, tpl, len(tpl))
        assert scores[80] == pytest.approx(1.0, abs=1e-6)

    def test_noise_scores_low(self, rng):
        tpl = _template(rng)
        noise = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        scores = segmented_correlation(noise, tpl, len(tpl))
        assert scores.max() < 0.35

    def test_zero_padding_does_not_blow_up(self, rng):
        # Regression: all-zero windows used to divide dust by dust.
        tpl = _template(rng, 64)
        x = np.concatenate([np.zeros(500, complex), tpl, np.zeros(500, complex)])
        scores = segmented_correlation(x, tpl, len(tpl))
        assert scores.max() <= 1.0 + 1e-9
        assert int(np.argmax(scores)) == 500

    def test_phase_rotation_invariant(self, rng):
        tpl = _template(rng)
        x = np.concatenate([np.zeros(10, complex), tpl * np.exp(1j * 2.2)])
        scores = segmented_correlation(x, tpl, len(tpl))
        assert scores[10] == pytest.approx(1.0, abs=1e-6)


class TestSegmentedCorrelation:
    def test_perfect_match_scores_one(self, rng):
        tpl = _template(rng, 256)
        x = np.concatenate([np.zeros(64, complex), tpl, np.zeros(64, complex)])
        scores = segmented_correlation(x, tpl, block=32)
        assert scores[64] == pytest.approx(1.0, abs=1e-3)

    def test_cfo_robustness_vs_coherent(self, rng):
        tpl = _template(rng, 512)
        x = np.concatenate([np.zeros(100, complex), tpl, np.zeros(100, complex)])
        # CFO of 0.005 cycles/sample rotates 2.5 turns across the template.
        x_cfo = apply_cfo(x, 0.005, 1.0)
        coherent = segmented_correlation(x_cfo, tpl, len(tpl))
        segmented = segmented_correlation(x_cfo, tpl, block=32)
        assert segmented[100] > 2 * coherent.max()
        assert int(np.argmax(segmented)) == 100

    def test_block_larger_than_template_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            segmented_correlation(np.zeros(100, complex), _template(rng, 16), 32)

    def test_invalid_block_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            segmented_correlation(np.zeros(100, complex), _template(rng, 16), 0)


class TestSegmentedPeak:
    """``segmented_peak`` is ``(argmax, max)`` of
    ``segmented_correlation``, or a proven upper bound below the
    threshold."""

    def _oracle(self, x, tpl, block):
        scores = segmented_correlation(x, tpl, block)
        best = int(np.argmax(scores))
        return best, float(scores[best])

    def test_planted_template_is_the_exact_peak(self, rng):
        tpl = _template(rng, 512)
        x = rng.normal(size=6000) + 1j * rng.normal(size=6000)
        x[1234 : 1234 + 512] += 0.5 * apply_cfo(tpl, 0.002, 1.0)
        oracle = self._oracle(x, tpl, 32)
        assert oracle[1] >= 0.35
        assert segmented_peak(x, tpl, 32, 0.35) == oracle
        assert segmented_peak(x, tpl, 32, 0.0) == oracle

    def test_noise_is_rejected_with_an_upper_bound(self, rng):
        tpl = _template(rng, 512)
        x = rng.normal(size=6000) + 1j * rng.normal(size=6000)
        _, best = self._oracle(x, tpl, 32)
        index, bound = segmented_peak(x, tpl, 32, 0.35)
        assert index is None
        assert best <= bound < 0.35

    def test_ties_go_to_the_first_index(self, rng):
        # Two copies of one frame score the same bits; argmax keeps the
        # first, and so must the candidates' exact pass.
        tpl = _template(rng, 256)
        frame = np.concatenate([tpl, np.zeros(300, complex)])
        x = np.concatenate([np.zeros(100, complex), frame, frame])
        best, score = self._oracle(x, tpl, 32)
        assert best == 100
        assert segmented_peak(x, tpl, 32, 0.5) == (best, score)

    def test_validation_matches_segmented_correlation(self, rng):
        with pytest.raises(ConfigurationError):
            segmented_peak(np.zeros(100, complex), _template(rng, 16), 32, 0.3)
        with pytest.raises(ConfigurationError):
            segmented_peak(np.zeros(100, complex), _template(rng, 200), 32, 0.3)


class TestFindPeaks:
    def test_simple_peaks(self):
        scores = np.zeros(100)
        scores[10] = 1.0
        scores[50] = 0.9
        assert find_peaks_above(scores, 0.5, 5) == [10, 50]

    def test_min_distance_suppression(self):
        scores = np.zeros(100)
        scores[10] = 1.0
        scores[12] = 0.9  # suppressed: too close to the stronger peak
        scores[40] = 0.8
        assert find_peaks_above(scores, 0.5, 5) == [10, 40]

    def test_threshold_respected(self):
        scores = np.full(50, 0.1)
        assert find_peaks_above(scores, 0.5, 5) == []

    def test_greedy_keeps_strongest(self):
        scores = np.zeros(100)
        scores[20] = 0.6
        scores[22] = 1.0  # stronger wins within the exclusion zone
        assert find_peaks_above(scores, 0.5, 5) == [22]

    def test_invalid_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            find_peaks_above(np.zeros(10), 0.5, 0)


class TestFindPeaksTieOrder:
    """Pin the greedy order exactly: descending score, ties broken by
    *higher index first* (a reversed stable sort). StreamingGateway
    replays this suppression incrementally across chunk joins, so the
    order is load-bearing — changing it silently desynchronizes the
    streamed and monolithic event lists."""

    def test_tie_prefers_higher_index(self):
        scores = np.zeros(30)
        scores[[10, 13]] = 1.0  # equal scores within one exclusion zone
        assert find_peaks_above(scores, 0.5, 5) == [13]

    def test_tie_cascade(self):
        # Three equal candidates, 4 apart, min_distance 5: the highest
        # index (18) wins first and knocks out 14; 10 then survives.
        scores = np.zeros(30)
        scores[[10, 14, 18]] = 1.0
        assert find_peaks_above(scores, 0.5, 5) == [10, 18]

    def test_plateau_resolves_to_last_sample(self):
        scores = np.zeros(40)
        scores[10:20] = 1.0  # dense plateau: every sample is a candidate
        assert find_peaks_above(scores, 0.5, 100) == [19]

    def test_tie_heavy_matches_reference(self, rng):
        # Differential pin against the original O(P^2) greedy loop over
        # tracks quantized to few levels (maximally tie-heavy).
        def reference(scores, threshold, min_distance):
            candidates = np.flatnonzero(scores >= threshold)
            order = np.argsort(scores[candidates], kind="stable")[::-1]
            accepted = []
            for idx in candidates[order]:
                if all(abs(idx - p) >= min_distance for p in accepted):
                    accepted.append(int(idx))
            return sorted(accepted)

        for _ in range(200):
            n = int(rng.integers(1, 200))
            levels = int(rng.integers(1, 4))
            scores = rng.integers(0, levels + 1, size=n) / levels
            threshold = float(rng.choice([0.0, 0.5, 1.0]))
            min_distance = int(rng.integers(1, 20))
            assert find_peaks_above(scores, threshold, min_distance) == (
                reference(scores, threshold, min_distance)
            )


class TestFindPeaksLocalMax:
    def test_default_keeps_every_above_threshold_sample(self):
        # The docstring contract: candidates are NOT restricted to local
        # maxima — a monotone ramp's top wins, but a sample on the
        # rising flank survives when the summit is suppressed.
        scores = np.array([0.0, 0.6, 0.7, 0.8, 0.9, 1.0, 0.0])
        assert find_peaks_above(scores, 0.5, 3) == [2, 5]
