"""Sample-rate conversion.

Modems run at their native oversampling of the symbol rate; the scene
composer and the cloud decoders move signals between a modem's native
rate and the gateway capture rate (1 MHz) with these helpers.

Two caches keep the cloud's hot path from repeating work:

* a process-wide **resample-plan cache** (:func:`resample_plan`)
  memoizing the reduced polyphase ratio and the designed anti-alias FIR
  per ``(fs_in, fs_out)`` pair, so :func:`to_rate` skips the
  ``Fraction`` reduction and ``firwin`` design that otherwise run on
  every call;
* a per-buffer **native-rate view cache** (:class:`NativeRateCache`)
  memoizing read-only resampled views of one working buffer, so one
  Algorithm-1 iteration resamples the residual to each modem's native
  rate once instead of once per classify/decode/kill call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy import signal as sp_signal

from ..contracts import ensure_iq
from ..errors import ConfigurationError

__all__ = [
    "upsample_integer",
    "decimate_integer",
    "resample_rational",
    "fractional_delay",
    "to_rate",
    "ResamplePlan",
    "resample_plan",
    "resample_plan_cache_info",
    "resample_plan_builds",
    "reset_resample_plan_builds",
    "clear_resample_plan_cache",
    "NativeRateCache",
]


def upsample_integer(x: np.ndarray, factor: int) -> np.ndarray:
    """Interpolate by an integer factor (polyphase, anti-image filtered)."""
    if factor < 1:
        raise ConfigurationError("factor must be >= 1")
    if factor == 1:
        return x.copy()
    return sp_signal.resample_poly(x, factor, 1)


def decimate_integer(x: np.ndarray, factor: int) -> np.ndarray:
    """Decimate by an integer factor (polyphase, anti-alias filtered)."""
    if factor < 1:
        raise ConfigurationError("factor must be >= 1")
    if factor == 1:
        return x.copy()
    return sp_signal.resample_poly(x, 1, factor)


def resample_rational(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Rational resampling by ``up / down`` (polyphase)."""
    if up < 1 or down < 1:
        raise ConfigurationError("up and down must be >= 1")
    return sp_signal.resample_poly(x, up, down)


@dataclass(frozen=True)
class ResamplePlan:
    """A memoized polyphase resampling recipe for one rate pair.

    Attributes:
        up: Interpolation factor (already reduced by the gcd).
        down: Decimation factor.
        window: The anti-alias FIR coefficients ``resample_poly`` would
            design for this ratio (``None`` for the identity plan) —
            unscaled, exactly as ``firwin`` returns them; ``resample_poly``
            applies its own ``up`` gain.
    """

    up: int
    down: int
    window: np.ndarray | None

    @property
    def identity(self) -> bool:
        """True when the plan is a pure copy (``up == down``)."""
        return self.up == self.down

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Resample ``x`` by this plan (always returns a new array)."""
        if self.identity:
            return x.copy()
        window = self.window
        if window is not None and np.issubdtype(x.dtype, np.inexact):
            # Mirror resample_poly's own dtype cast of the designed
            # filter so cached and uncached outputs match bit for bit.
            window = window.astype(x.dtype)
        return sp_signal.resample_poly(x, self.up, self.down, window=window)


def _design_window(up: int, down: int) -> np.ndarray:
    """The FIR ``resample_poly`` designs for ``up/down`` (unscaled)."""
    max_rate = max(up, down)
    half_len = 10 * max_rate
    window = sp_signal.firwin(
        2 * half_len + 1, 1.0 / max_rate, window=("kaiser", 5.0)
    )
    window.flags.writeable = False
    return window


@lru_cache(maxsize=256)
def _cached_plan(fs_in: float, fs_out: float) -> ResamplePlan:
    return _build_plan(fs_in, fs_out)


#: Count of full plan constructions (ratio reduction + FIR design) since
#: the last reset. Benchmarks read this to report how much work the plan
#: cache actually avoids on a given path — hits/misses alone say nothing
#: about the cost of the misses.
_PLAN_BUILDS = 0


def resample_plan_builds() -> int:
    """Number of plan constructions since :func:`reset_resample_plan_builds`."""
    return _PLAN_BUILDS


def reset_resample_plan_builds() -> None:
    """Zero the plan-construction counter (benchmarks)."""
    global _PLAN_BUILDS
    _PLAN_BUILDS = 0


def _build_plan(fs_in: float, fs_out: float) -> ResamplePlan:
    from fractions import Fraction

    global _PLAN_BUILDS
    _PLAN_BUILDS += 1
    if abs(fs_in - fs_out) < 1e-9 * fs_in:
        return ResamplePlan(up=1, down=1, window=None)
    ratio = Fraction(fs_out / fs_in).limit_denominator(1_000_000)
    if ratio.numerator == 0:
        raise ConfigurationError("rate ratio too extreme to resample")
    achieved = fs_in * ratio.numerator / ratio.denominator
    if abs(achieved - fs_out) > 1e-6 * fs_out:
        raise ConfigurationError(
            f"rates {fs_in} -> {fs_out} are not commensurate"
        )
    up, down = ratio.numerator, ratio.denominator
    return ResamplePlan(up=up, down=down, window=_design_window(up, down))


def resample_plan(fs_in: float, fs_out: float) -> ResamplePlan:
    """The memoized plan converting ``fs_in`` to ``fs_out``.

    Raises:
        ConfigurationError: if a rate is not a positive finite number,
            or the rates are incommensurate (denominator above 1e6).
    """
    # Written so NaN fails too: every comparison with NaN is false.
    if not (0 < fs_in < math.inf and 0 < fs_out < math.inf):
        raise ConfigurationError("sample rates must be positive and finite")
    return _cached_plan(float(fs_in), float(fs_out))


def resample_plan_cache_info() -> Any:
    """``functools.lru_cache`` statistics of the plan cache (a
    ``CacheInfo`` named tuple: hits, misses, maxsize, currsize)."""
    return _cached_plan.cache_info()


def clear_resample_plan_cache() -> None:
    """Drop every memoized plan (tests, benchmarks)."""
    _cached_plan.cache_clear()


def to_rate(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Resample ``x`` from ``fs_in`` to ``fs_out`` (rational polyphase).

    The rate ratio is reduced to a small rational; rates must be
    commensurate to within 1e-9 relative error. The reduced ratio and
    the anti-alias filter design are memoized per rate pair (see
    :func:`resample_plan`), so repeated conversions between the same
    rates skip straight to the polyphase convolution.

    Raises:
        ConfigurationError: if a rate is not a positive finite number,
            or the ratio cannot be expressed as a rational with
            denominator <= 1e6.
    """
    return resample_plan(fs_in, fs_out).apply(x)


class NativeRateCache:
    """Memoized read-only resampled views of one working buffer.

    Algorithm 1 re-classifies the residual after every cancellation, and
    each classify pass (plus each decode and kill attempt) needs the
    working buffer at some modem's native rate. One cache instance wraps
    one immutable snapshot of the buffer; :meth:`view` resamples at most
    once per distinct output rate. Views are marked non-writeable —
    callers needing to mutate must copy.

    Build a fresh cache whenever the working buffer changes (SIC
    subtraction replaces it rather than mutating in place, so staleness
    is impossible by construction).
    """

    def __init__(
        self, samples: npt.NDArray[np.complex128], sample_rate_hz: float
    ) -> None:
        self.samples = ensure_iq(samples)
        self.sample_rate_hz = float(sample_rate_hz)
        self._views: dict[float, np.ndarray] = {}

    def view(self, fs_out: float) -> np.ndarray:
        """``samples`` resampled to ``fs_out`` (cached, read-only)."""
        key = float(fs_out)
        cached = self._views.get(key)
        if cached is None:
            if abs(key - self.sample_rate_hz) < 1e-9 * self.sample_rate_hz:
                cached = self.samples.view()
            else:
                cached = to_rate(self.samples, self.sample_rate_hz, key)
            cached.flags.writeable = False
            self._views[key] = cached
        return cached

    def __len__(self) -> int:
        return len(self.samples)


def fractional_delay(x: np.ndarray, delay: float) -> np.ndarray:
    """Delay ``x`` by a (possibly fractional) number of samples.

    Integer part is a zero-padded shift; the fractional part uses linear
    interpolation. Output has the same length as the input.
    """
    if delay < 0:
        raise ConfigurationError("delay must be non-negative")
    n = len(x)
    whole = int(np.floor(delay))
    frac = delay - whole
    out = np.zeros(n, dtype=x.dtype)
    if whole >= n:
        return out
    shifted = x[: n - whole]
    if frac > 0:
        interp = np.empty_like(shifted)
        interp[0] = shifted[0] * (1 - frac)
        interp[1:] = (1 - frac) * shifted[1:] + frac * shifted[:-1]
        shifted = interp
    out[whole:] = shifted
    return out
