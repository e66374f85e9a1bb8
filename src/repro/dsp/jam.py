"""Jammer waveform synthesis primitives.

The adversarial scenario pack (:mod:`repro.net.adversary`) injects three
classic interference shapes into simulated captures — the same shapes
the SDR penetration-testing literature throws at BLE/Zigbee stacks and
ChirpOTLE scripts against LoRaWAN channels:

* a **continuous-wave (CW) tone** parked on one frequency — the cheapest
  jammer there is, and the one a kill filter can notch;
* a **swept tone** sawtooth-chirping across a band — harder to notch,
  periodically clobbering every narrowband channel in its span;
* **pulsed wideband noise** — duty-cycled broadband bursts that look
  like a sudden noise-floor rise to any receiver underneath.

These are pure waveform generators: deterministic functions of their
arguments (the pulsed jammer additionally of the generator handed in),
returning unit-structure complex128 I/Q that the caller scales to the
desired jam power. Attack *placement* (when, how strong, against whom)
lives in :class:`repro.net.adversary.AttackPlan`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError

__all__ = ["cw_tone", "swept_tone", "pulsed_noise"]


def _require_positive_finite(name: str, value: float) -> None:
    # Written so NaN fails too: every comparison with NaN is false.
    if not (0 < value < math.inf):
        raise ConfigurationError(f"{name} must be positive and finite")


def cw_tone(
    n_samples: int,
    sample_rate_hz: float,
    freq_hz: float,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """A unit-amplitude complex exponential at ``freq_hz``.

    Args:
        n_samples: Length of the burst in samples.
        sample_rate_hz: Sample rate of the target capture.
        freq_hz: Tone frequency (baseband offset from the capture
            centre); must fit inside the capture's Nyquist band.
        phase_rad: Initial carrier phase.

    Raises:
        ConfigurationError: for a rate that is not positive and finite, a
            negative length, a non-finite phase, or a tone that is NaN or
            outside the representable band.
    """
    _require_positive_finite("sample_rate_hz", sample_rate_hz)
    if n_samples < 0:
        raise ConfigurationError("n_samples must be >= 0")
    if not math.isfinite(phase_rad):
        raise ConfigurationError("phase_rad must be finite")
    if not abs(freq_hz) <= sample_rate_hz / 2:
        raise ConfigurationError(
            f"tone at {freq_hz:g} Hz is outside the ±{sample_rate_hz / 2:g} Hz band"
        )
    n = np.arange(n_samples)
    return np.exp(1j * (2 * np.pi * freq_hz * n / sample_rate_hz + phase_rad))


def swept_tone(
    n_samples: int,
    sample_rate_hz: float,
    f_lo_hz: float,
    f_hi_hz: float,
    period_s: float,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """A unit-amplitude sawtooth sweep from ``f_lo_hz`` to ``f_hi_hz``.

    The instantaneous frequency ramps linearly across the span every
    ``period_s`` seconds and snaps back (a sawtooth, not a triangle —
    the shape ChirpOTLE-style channel jammers use). The phase is the
    exact integral of the instantaneous frequency, so the waveform is
    continuous within each sweep.

    Raises:
        ConfigurationError: for a rate or period that is not positive and
            finite, a negative length, a non-finite phase, an empty or
            NaN span, or a span outside the representable band.
    """
    _require_positive_finite("sample_rate_hz", sample_rate_hz)
    if n_samples < 0:
        raise ConfigurationError("n_samples must be >= 0")
    if not f_lo_hz < f_hi_hz:
        raise ConfigurationError("need f_lo_hz < f_hi_hz")
    _require_positive_finite("period_s", period_s)
    if not math.isfinite(phase_rad):
        raise ConfigurationError("phase_rad must be finite")
    if abs(f_lo_hz) > sample_rate_hz / 2 or abs(f_hi_hz) > sample_rate_hz / 2:
        raise ConfigurationError(
            f"sweep span [{f_lo_hz:g}, {f_hi_hz:g}] Hz exceeds the "
            f"±{sample_rate_hz / 2:g} Hz band"
        )
    t = np.arange(n_samples) / sample_rate_hz
    tau = np.mod(t, period_s)  # time within the current sweep
    rate = (f_hi_hz - f_lo_hz) / period_s
    # phase(tau) = 2*pi * (f_lo*tau + rate*tau^2/2), restarted per sweep.
    phase = 2 * np.pi * (f_lo_hz * tau + 0.5 * rate * tau**2)
    return np.exp(1j * (phase + phase_rad))


def pulsed_noise(
    n_samples: int,
    sample_rate_hz: float,
    period_s: float,
    duty: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Duty-cycled bursts of unit-power complex white noise.

    Each period ``[k*period, (k+1)*period)`` starts with ``duty*period``
    seconds of noise at unit mean power; the rest of the period is
    silent. The *on*-window power is unit regardless of duty, so the
    caller's scale factor sets the in-burst jam power directly.

    Args:
        rng: Noise source. Hand in a generator seeded from the attack
            plan so the burst is bit-identical across runs.

    Raises:
        ConfigurationError: for a rate or period that is not positive and
            finite, a negative length, or a duty outside ``[0, 1]``.
    """
    _require_positive_finite("sample_rate_hz", sample_rate_hz)
    if n_samples < 0:
        raise ConfigurationError("n_samples must be >= 0")
    _require_positive_finite("period_s", period_s)
    if not 0.0 <= duty <= 1.0:
        raise ConfigurationError("duty must be in [0, 1]")
    if duty == 0.0 or n_samples == 0:
        return np.zeros(n_samples, dtype=complex)
    noise = (
        rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    ) / np.sqrt(2)
    t = np.arange(n_samples) / sample_rate_hz
    gate = np.mod(t, period_s) < duty * period_s
    return noise * gate
