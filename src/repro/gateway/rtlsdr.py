"""RTL-SDR front-end model.

The paper's gateway is a ~10$ RTL-SDR dongle: an 8-bit ADC behind a
consumer tuner, capturing 1 MHz of complex baseband. This model applies
the impairments that matter for detection and joint decoding, in the
order they occur in the real signal path:

    tuner CFO (crystal ppm) -> IQ imbalance -> DC offset
    -> front-end thermal noise -> AGC scaling -> 8-bit quantization

The output is what the Raspberry Pi sees and what the gateway's
detectors operate on.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..dsp.impairments import (
    apply_cfo,
    apply_dc_offset,
    apply_iq_imbalance,
    cfo_from_ppm,
    output_buffer,
    quantize,
)
from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..faults import FaultPlan

__all__ = ["RtlSdrConfig", "RtlSdrModel"]

#: The :class:`RtlSdrConfig` fields that must be finite (complex for
#: ``dc_offset``): a NaN or inf in any of them turns every captured
#: sample into NaN, which the detectors would score as silence.
_FINITE_FIELDS = (
    "sample_rate",
    "carrier_hz",
    "ppm",
    "iq_gain_db",
    "iq_phase_deg",
    "dc_offset",
    "noise_floor",
    "agc_headroom_db",
)


@dataclass(frozen=True)
class RtlSdrConfig:
    """Front-end parameters.

    Attributes:
        sample_rate: Complex capture rate (the paper uses 1 MHz).
        carrier_hz: Tuned carrier (868 MHz ISM band).
        adc_bits: ADC resolution (8 for the RTL2832U).
        ppm: Crystal frequency error in parts-per-million.
        iq_gain_db: IQ amplitude imbalance.
        iq_phase_deg: IQ quadrature error.
        dc_offset: Residual DC as a fraction of full scale.
        noise_floor: Added front-end noise power (0 to disable; scenes
            usually carry their own channel noise already).
        agc_headroom_db: Backoff between the signal's RMS and ADC full
            scale; models the dongle's gain staging.

    Raises:
        ConfigurationError: for a NaN or infinite value, a non-positive
            sample rate, fewer than 1 ADC bit, or a negative noise floor
            or AGC headroom.
    """

    sample_rate: float = 1e6
    carrier_hz: float = 868e6
    adc_bits: int = 8
    ppm: float = 0.0
    iq_gain_db: float = 0.0
    iq_phase_deg: float = 0.0
    dc_offset: complex = 0.0
    noise_floor: float = 0.0
    agc_headroom_db: float = 12.0

    def __post_init__(self) -> None:
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")
        if self.adc_bits < 1:
            raise ConfigurationError("adc_bits must be >= 1")
        if self.noise_floor < 0:
            raise ConfigurationError("noise_floor must be >= 0")
        if self.agc_headroom_db < 0:
            raise ConfigurationError("agc_headroom_db must be >= 0")


class RtlSdrModel:
    """Applies the RTL-SDR signal path to a clean baseband stream.

    Args:
        config: Front-end parameters.
        faults: Optional :class:`~repro.faults.FaultPlan` whose
            ``sample_gaps`` are applied to the capture (zeroed ranges,
            modelling USB drops / front-end dropouts). Gap positions are
            absolute stream samples: the model keeps a cursor across
            successive :meth:`capture` calls so chunked (streaming) and
            monolithic captures see identical dropouts; call
            :meth:`reset_stream` between streams. ``None`` (default)
            costs a single ``is None`` check.
    """

    def __init__(
        self,
        config: RtlSdrConfig | None = None,
        faults: "FaultPlan | None" = None,
    ):
        self.config = config or RtlSdrConfig()
        self.faults = faults
        self._cursor = 0
        self.dropped_samples = 0

    def reset_stream(self) -> None:
        """Rewind the absolute-sample cursor used for fault placement."""
        self._cursor = 0
        self.dropped_samples = 0

    @property
    def cfo_hz(self) -> float:
        """Tuner CFO implied by the configured ppm error."""
        return cfo_from_ppm(self.config.ppm, self.config.carrier_hz)

    def capture(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run ``x`` through the modelled front end.

        Args:
            x: Clean complex baseband at ``config.sample_rate``.
            rng: Needed only when ``config.noise_floor`` > 0.
            out: Where to write the capture (see
                :func:`~repro.dsp.impairments.quantize`), zero power and
                dropouts included; a new array by default.

        Returns:
            The quantized capture, scaled back so sample values are
            comparable with the input (the AGC gain is undone after
            quantization, leaving only quantization error and clipping);
            ``out`` when given.

        Raises:
            ConfigurationError: when ``noise_floor`` > 0 and ``rng`` is
                missing, when a NaN or infinite sample leaves the AGC
                no finite full scale, or for an ``out`` of another shape
                or dtype than the capture's.
        """
        cfg = self.config
        y = x
        if cfg.ppm:
            y = apply_cfo(y, self.cfo_hz, cfg.sample_rate)
        if cfg.iq_gain_db or cfg.iq_phase_deg:
            y = apply_iq_imbalance(y, cfg.iq_gain_db, cfg.iq_phase_deg)
        if cfg.noise_floor > 0:
            if rng is None:
                raise ConfigurationError("rng required when noise_floor > 0")
            scale = np.sqrt(cfg.noise_floor / 2)
            y = y + rng.normal(scale=scale, size=len(y)) + 1j * rng.normal(
                scale=scale, size=len(y)
            )
        rms = 0.0
        if len(y):
            power = np.abs(y)
            rms = float(np.sqrt(np.mean(np.square(power, out=power))))
        if rms <= 0:
            if out is None:
                out = np.zeros_like(x)
            else:
                y = np.asarray(y)
                out = output_buffer(out, y.shape, np.result_type(y.real, 1j))
                out[...] = 0
        else:
            full_scale = rms * (10 ** (cfg.agc_headroom_db / 20))
            if cfg.dc_offset:
                y = apply_dc_offset(y, cfg.dc_offset * full_scale)
            out = quantize(y, cfg.adc_bits, full_scale, out=out)
        # A silent capture's dropouts count too: the count must not
        # depend on how the stream is chunked.
        if self.faults is not None:
            out = self._apply_gaps(out)
        self._cursor += len(x)
        return out

    def _apply_gaps(self, out: np.ndarray) -> np.ndarray:
        """Zero the scheduled dropout ranges overlapping this capture."""
        lo = self._cursor
        hi = lo + len(out)
        for gap in self.faults.gaps_overlapping(lo, hi):
            a = max(gap.start, lo) - lo
            b = min(gap.end, hi) - lo
            out[a:b] = 0
            self.dropped_samples += b - a
        return out
