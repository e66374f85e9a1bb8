"""Hardware impairment models for cheap SDR front-ends.

The paper's gateway is an RTL-SDR: an 8-bit ADC behind a consumer tuner.
These helpers model the impairments that matter for detection and joint
decoding: carrier frequency offset (crystal ppm error), static phase,
IQ gain/phase imbalance, DC offset (the RTL-SDR's well-known centre
spike) and ADC quantization/clipping.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "apply_cfo",
    "apply_phase",
    "apply_iq_imbalance",
    "apply_dc_offset",
    "quantize",
    "cfo_from_ppm",
]


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


def quantize(x: np.ndarray, n_bits: int, full_scale: float) -> np.ndarray:
    """Quantize I and Q to ``n_bits`` with clipping at ``full_scale``.

    Models a mid-rise uniform ADC: values are clipped to
    ``[-full_scale, +full_scale]`` then rounded to ``2**n_bits`` levels.

    Raises:
        ConfigurationError: for a non-positive bit depth or full scale.
    """
    if n_bits < 1:
        raise ConfigurationError("n_bits must be >= 1")
    if full_scale <= 0:
        raise ConfigurationError("full_scale must be positive")
    levels = 1 << n_bits
    step = 2 * full_scale / levels

    def _quant(real: np.ndarray) -> np.ndarray:
        clipped = np.clip(real, -full_scale, full_scale - step / 2)
        return (np.floor(clipped / step) + 0.5) * step

    return _quant(x.real) + 1j * _quant(x.imag)
