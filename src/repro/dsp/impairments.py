"""Hardware impairment models for cheap SDR front-ends.

The paper's gateway is an RTL-SDR: an 8-bit ADC behind a consumer tuner.
These helpers model the impairments that matter for detection and joint
decoding: carrier frequency offset (crystal ppm error), static phase,
IQ gain/phase imbalance, DC offset (the RTL-SDR's well-known centre
spike) and ADC quantization/clipping.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError

__all__ = [
    "apply_cfo",
    "apply_phase",
    "apply_iq_imbalance",
    "apply_dc_offset",
    "quantize",
    "output_buffer",
    "cfo_from_ppm",
]


def output_buffer(
    out: np.ndarray | None, shape: tuple[int, ...], dtype: npt.DTypeLike
) -> np.ndarray:
    """``out`` checked to be a contiguous ``dtype`` array of ``shape``,
    or a new one when ``out`` is ``None``.

    Raises:
        ConfigurationError: for an ``out`` of another shape or dtype, or
            one that is not contiguous.
    """
    if out is None:
        return np.empty(shape, dtype)
    if (
        not isinstance(out, np.ndarray)
        or out.shape != shape
        or out.dtype != dtype
        or not out.flags.c_contiguous
    ):
        raise ConfigurationError(
            f"out must be a contiguous {np.dtype(dtype)} array of shape "
            f"{shape}, got {getattr(out, 'dtype', type(out).__name__)} "
            f"{getattr(out, 'shape', '')}"
        )
    return out


def cfo_from_ppm(ppm: float, carrier_hz: float) -> float:
    """Carrier frequency offset in Hz for a crystal error in ppm."""
    return ppm * 1e-6 * carrier_hz


def apply_cfo(x: np.ndarray, cfo_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Rotate ``x`` by a constant frequency offset."""
    n = np.arange(len(x))
    return x * np.exp(2j * np.pi * cfo_hz * n / sample_rate_hz)


def apply_phase(x: np.ndarray, phase_rad: float) -> np.ndarray:
    """Apply a static phase rotation."""
    return x * np.exp(1j * phase_rad)


def apply_iq_imbalance(
    x: np.ndarray, gain_db: float = 0.0, phase_deg: float = 0.0
) -> np.ndarray:
    """Model receiver IQ imbalance.

    Args:
        gain_db: Amplitude mismatch of the Q rail relative to I.
        phase_deg: Quadrature error in degrees.

    Uses the standard model ``y = mu * x + nu * conj(x)`` with
    ``mu = (1 + g e^{j phi}) / 2`` and ``nu = (1 - g e^{j phi}) / 2``.
    """
    g = 10 ** (gain_db / 20)
    phi = np.deg2rad(phase_deg)
    mu = 0.5 * (1 + g * np.exp(1j * phi))
    nu = 0.5 * (1 - g * np.exp(1j * phi))
    return mu * x + nu * np.conj(x)


def apply_dc_offset(x: np.ndarray, dc: complex) -> np.ndarray:
    """Add a constant complex DC offset (RTL-SDR centre spike)."""
    return x + dc


def quantize(
    x: np.ndarray,
    n_bits: int,
    full_scale: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Quantize I and Q to ``n_bits`` with clipping at ``full_scale``.

    Models a mid-rise uniform ADC: values are clipped to
    ``[-full_scale, +full_scale]`` then rounded to ``2**n_bits`` levels.

    Every rail gets ``(floor(clip(v) / step) + 0.5) * step``, bit for
    bit, at the precision of ``x`` and ``full_scale`` (complex64 samples
    and a float full scale stay complex64). The clip reads a contiguous
    complex input's interleaved I/Q samples where they lie (any other
    input is converted once) into the one output buffer; the other
    steps run in place on that buffer's interleaved real view.

    Args:
        out: Where to write the result (a contiguous array of ``x``'s
            shape and the result's dtype, such as a view of a larger
            buffer); a new array by default.

    Raises:
        ConfigurationError: for a bit depth below 1, a full scale that
            is not positive and finite, or an ``out`` of another shape
            or dtype, or not contiguous.
    """
    if n_bits < 1:
        raise ConfigurationError("n_bits must be >= 1")
    if not (0 < full_scale < math.inf):
        raise ConfigurationError(
            f"full_scale must be positive and finite, got {full_scale!r}"
        )
    levels = 1 << n_bits
    step = 2 * full_scale / levels
    low, high = -full_scale, full_scale - step / 2
    x = np.asarray(x)
    dtype = np.result_type(x.real, low, high, step, 1j)
    real = np.finfo(dtype).dtype
    out = output_buffer(out, x.shape, dtype)
    rails = out.reshape(-1).view(real)
    samples = np.asarray(x, dtype, order="C").reshape(-1).view(real)
    np.clip(samples, low, high, out=rails)
    np.divide(rails, step, out=rails)
    np.floor(rails, out=rails)
    np.add(rails, 0.5, out=rails)
    np.multiply(rails, step, out=rails)
    return out
