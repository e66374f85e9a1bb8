"""Sample-rate conversion.

Modems run at their native oversampling of the symbol rate; the scene
composer and the cloud decoders move signals between a modem's native
rate and the gateway capture rate (1 MHz) with :func:`to_rate`, a
rational polyphase resampler (``scipy.signal.resample_poly``).

Two memos keep the cloud's hot path from repeating work:

* a process-wide **ratio memo** holding the reduced polyphase ratio per
  ``(fs_in, fs_out)`` pair, so :func:`to_rate` skips the ``Fraction``
  reduction on every call after the first; ``resample_poly`` designs
  its own anti-alias filter;
* a per-buffer **native-rate view cache** (:class:`NativeRateCache`)
  memoizing read-only resampled views of one working buffer, so one
  Algorithm-1 iteration resamples the residual to each modem's native
  rate once instead of once per classify/decode/kill call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import numpy.typing as npt
from scipy import signal as sp_signal

from ..contracts import ensure_iq
from ..errors import ConfigurationError

__all__ = [
    "to_rate",
    "resample_plan_builds",
    "clear_resample_plan_cache",
    "NativeRateCache",
]

#: Count of ratio reductions (ratio-memo misses) since the process
#: started. Benchmarks read it to report how often a conversion paid
#: for a fresh reduction.
_PLAN_BUILDS = 0


@lru_cache(maxsize=256)
def _ratio(fs_in: float, fs_out: float) -> tuple[int, int]:
    """The reduced ``(up, down)`` ratio converting ``fs_in`` to ``fs_out``."""
    global _PLAN_BUILDS
    _PLAN_BUILDS += 1
    if abs(fs_in - fs_out) < 1e-9 * fs_in:
        return 1, 1
    ratio = Fraction(fs_out / fs_in).limit_denominator(1_000_000)
    if ratio.numerator == 0:
        raise ConfigurationError("rate ratio too extreme to resample")
    achieved = fs_in * ratio.numerator / ratio.denominator
    if abs(achieved - fs_out) > 1e-6 * fs_out:
        raise ConfigurationError(
            f"rates {fs_in} -> {fs_out} are not commensurate"
        )
    return ratio.numerator, ratio.denominator


def resample_plan_builds() -> int:
    """Number of ratio reductions the memo has run (benchmarks)."""
    return _PLAN_BUILDS


def clear_resample_plan_cache() -> None:
    """Drop every memoized ratio (tests, benchmarks)."""
    _ratio.cache_clear()


def to_rate(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Resample ``x`` from ``fs_in`` to ``fs_out`` (rational polyphase).

    The rate ratio is reduced to a small rational, memoized per rate
    pair; rates must be commensurate to within 1e-6 relative error.
    Equal rates return a copy. Always returns a new array.

    Raises:
        ConfigurationError: if a rate is not a positive finite number,
            or the ratio cannot be expressed as a rational with
            denominator <= 1e6.
    """
    # Written so NaN fails too: every comparison with NaN is false.
    if not (0 < fs_in < math.inf and 0 < fs_out < math.inf):
        raise ConfigurationError("sample rates must be positive and finite")
    up, down = _ratio(float(fs_in), float(fs_out))
    if up == down:
        return x.copy()
    return sp_signal.resample_poly(x, up, down)


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
