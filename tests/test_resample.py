"""Unit tests for repro.dsp.resample."""

import numpy as np
import pytest
import scipy.signal as sp_signal

from repro.dsp.resample import (
    NativeRateCache,
    clear_resample_plan_cache,
    resample_plan_builds,
    to_rate,
)
from repro.errors import ConfigurationError


def _tone(freq, fs, n):
    return np.exp(2j * np.pi * freq * np.arange(n) / fs)


class TestToRate:
    def test_identity(self):
        x = np.arange(8, dtype=complex)
        assert np.array_equal(to_rate(x, 1e6, 1e6), x)

    def test_downrate_4m_to_1m(self):
        x = _tone(50e3, 4e6, 4096)
        y = to_rate(x, 4e6, 1e6)
        assert len(y) == 1024
        ref = _tone(50e3, 1e6, 1024)
        assert np.max(np.abs(y[50:-50] - ref[50:-50])) < 0.05

    def test_uprate_16k_to_1m(self):
        x = np.ones(160, complex)
        y = to_rate(x, 16e3, 1e6)
        assert len(y) == 10_000

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            to_rate(np.ones(4, complex), 0, 1e6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e6])
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_non_finite_or_nonpositive_rate_is_configuration_error(self, bad, side):
        # Regression: NaN slipped past a ``<= 0`` check and inf reached
        # Fraction(), escaping as ValueError/OverflowError.
        rates = (bad, 1e6) if side == "in" else (1e6, bad)
        with pytest.raises(ConfigurationError):
            to_rate(np.ones(4, complex), *rates)


class TestResamplePlanCache:
    # Each modem pair in a decode session hits the same (fs_in, fs_out)
    # over and over; the memoized ratio must be invisible except in speed.

    def test_plan_output_bit_identical_to_resample_poly(self, rng):
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        for (fs_in, fs_out), (up, down) in [
            ((1e6, 4e6), (4, 1)),
            ((4e6, 1e6), (1, 4)),
            ((1e6, 16e3), (2, 125)),
            ((16e3, 1e6), (125, 2)),
            ((2e6, 250e3), (1, 8)),
        ]:
            direct = sp_signal.resample_poly(x, up, down)
            assert np.array_equal(to_rate(x, fs_in, fs_out), direct), (fs_in, fs_out)

    def test_to_rate_unchanged_by_cache(self, rng):
        # Cold and warm calls give what resample_poly gives.
        x = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        clear_resample_plan_cache()
        cold = to_rate(x, 1e6, 250e3)
        warm = to_rate(x, 1e6, 250e3)
        direct = sp_signal.resample_poly(x, 1, 4)
        assert np.array_equal(cold, direct)
        assert np.array_equal(warm, direct)

    def test_cache_hit_on_repeat(self):
        # One ratio reduction per rate pair until the cache is cleared.
        x = np.ones(64, complex)
        clear_resample_plan_cache()
        before = resample_plan_builds()
        to_rate(x, 1e6, 4e6)
        to_rate(x, 1e6, 4e6)
        to_rate(x, 1e6, 1e6)
        assert resample_plan_builds() == before + 2
        clear_resample_plan_cache()
        to_rate(x, 1e6, 4e6)
        assert resample_plan_builds() == before + 3

    def test_identity_plan(self):
        x = np.arange(8, dtype=complex)
        y = to_rate(x, 1e6, 1e6)
        assert np.array_equal(y, x)
        y[0] = 99  # must not alias the input
        assert x[0] == 0

    def test_extreme_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            to_rate(np.ones(4, complex), 1e6, 1e-3)


class TestNativeRateCache:
    def test_identity_view_is_zero_copy(self):
        x = np.arange(64, dtype=complex)
        cache = NativeRateCache(x, 1e6)
        view = cache.view(1e6)
        assert np.array_equal(view, x)
        assert view.base is x or np.shares_memory(view, x)

    def test_views_are_read_only(self):
        cache = NativeRateCache(np.ones(128, complex), 1e6)
        view = cache.view(250e3)
        with pytest.raises(ValueError):
            view[0] = 0

    def test_repeat_view_is_cached(self):
        cache = NativeRateCache(np.ones(128, complex), 1e6)
        assert cache.view(4e6) is cache.view(4e6)

    def test_view_matches_to_rate(self, rng):
        x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        cache = NativeRateCache(x, 1e6)
        assert np.array_equal(cache.view(16e3), to_rate(x, 1e6, 16e3))
