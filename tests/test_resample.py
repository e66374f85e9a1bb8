"""Unit tests for repro.dsp.resample."""

import numpy as np
import pytest
import scipy.signal as sp_signal

from repro.dsp.resample import (
    NativeRateCache,
    clear_resample_plan_cache,
    decimate_integer,
    fractional_delay,
    resample_plan,
    resample_plan_cache_info,
    resample_rational,
    to_rate,
    upsample_integer,
)
from repro.errors import ConfigurationError


def _tone(freq, fs, n):
    return np.exp(2j * np.pi * freq * np.arange(n) / fs)


class TestIntegerResampling:
    def test_upsample_length(self):
        assert len(upsample_integer(np.ones(100, complex), 4)) == 400

    def test_decimate_length(self):
        assert len(decimate_integer(np.ones(400, complex), 4)) == 100

    def test_factor_one_is_copy(self):
        x = np.arange(10, dtype=complex)
        y = upsample_integer(x, 1)
        assert np.array_equal(x, y)
        y[0] = 99  # must not alias the input
        assert x[0] == 0

    def test_tone_preserved_through_up_down(self):
        fs = 100e3
        x = _tone(5e3, fs, 2048)
        y = decimate_integer(upsample_integer(x, 4), 4)
        # Compare away from filter edges.
        err = np.abs(y[200:-200] - x[200:-200])
        assert np.max(err) < 0.02

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            upsample_integer(np.ones(4, complex), 0)


class TestRational:
    def test_4_over_5(self):
        x = np.ones(1000, complex)
        y = resample_rational(x, 4, 5)
        assert len(y) == 800

    def test_aliasing_protected(self):
        fs = 1e6
        x = _tone(300e3, fs, 8192)  # above the output Nyquist of 250 kHz
        y = resample_rational(x, 1, 2)
        assert np.mean(np.abs(y[100:-100]) ** 2) < 0.01


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
    # over and over; the plan cache must be invisible except in speed.

    def test_plan_output_bit_identical_to_resample_poly(self, rng):
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        for fs_in, fs_out in [
            (1e6, 4e6), (4e6, 1e6), (1e6, 16e3), (16e3, 1e6), (2e6, 250e3)
        ]:
            plan = resample_plan(fs_in, fs_out)
            direct = sp_signal.resample_poly(x, plan.up, plan.down)
            assert np.array_equal(plan.apply(x), direct), (fs_in, fs_out)

    def test_to_rate_unchanged_by_cache(self, rng):
        # Cold and warm plans give what resample_poly designs itself.
        x = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        clear_resample_plan_cache()
        cold = to_rate(x, 1e6, 250e3)
        warm = to_rate(x, 1e6, 250e3)
        direct = sp_signal.resample_poly(x, 1, 4)
        assert np.array_equal(cold, direct)
        assert np.array_equal(warm, direct)

    def test_cache_hit_on_repeat(self):
        clear_resample_plan_cache()
        resample_plan(1e6, 4e6)
        before = resample_plan_cache_info().hits
        plan = resample_plan(1e6, 4e6)
        info = resample_plan_cache_info()
        assert info.hits == before + 1
        assert (plan.up, plan.down) == (4, 1)

    def test_identity_plan(self):
        plan = resample_plan(1e6, 1e6)
        assert plan.identity
        x = np.arange(8, dtype=complex)
        assert np.array_equal(plan.apply(x), x)

    def test_extreme_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            resample_plan(1e6, 1e-3)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            resample_plan(0, 1e6)


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


class TestFractionalDelay:
    def test_integer_part(self):
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        y = fractional_delay(x, 2.0)
        assert np.allclose(y, [0, 0, 1, 2])

    def test_half_sample(self):
        x = np.array([0.0, 1.0, 1.0, 1.0], dtype=complex)
        y = fractional_delay(x, 0.5)
        assert y[1] == pytest.approx(0.5)

    def test_length_preserved(self):
        x = np.ones(10, complex)
        assert len(fractional_delay(x, 3.7)) == 10

    def test_delay_past_end(self):
        x = np.ones(5, complex)
        assert np.all(fractional_delay(x, 10.0) == 0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            fractional_delay(np.ones(5, complex), -1.0)
