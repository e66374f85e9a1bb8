"""DSP substrate: chirps, filters, correlation, channels, impairments.

All functions operate on one-dimensional complex numpy arrays (complex
baseband I/Q) and take explicit sample rates; there is no global state
and every random operation takes an explicit ``numpy.random.Generator``.
"""

from .channel import (
    add_at,
    noise_for_band_snr,
    scale_to_snr,
    signal_power,
)
from .chirp import (
    base_downchirp,
    base_upchirp,
    lora_symbol,
)
from .correlation import (
    ScoreBank,
    cross_correlate,
    find_peaks_above,
    segmented_correlation,
)
from .fastcorr import (
    SpectrumPlan,
    TemplateBank,
    TrackSpec,
    blocked_bank,
    correlate_accumulate,
    correlate_many,
    spectrum_plan,
)
from .filters import (
    design_lowpass_fir,
    fft_bandpass,
    fft_notch,
    fir_filter,
    frequency_shift,
    gaussian_pulse,
    half_sine_pulse,
    moving_average,
)
from .fm import instantaneous_frequency, quadrature_demod
from .impairments import (
    apply_cfo,
    apply_dc_offset,
    apply_iq_imbalance,
    apply_phase,
    cfo_from_ppm,
    quantize,
)
from .jam import cw_tone, pulsed_noise, swept_tone
from .measure import occupied_bandwidth
from .resample import to_rate

__all__ = [
    # channel
    "add_at",
    "noise_for_band_snr",
    "scale_to_snr",
    "signal_power",
    # chirp
    "base_downchirp",
    "base_upchirp",
    "lora_symbol",
    # correlation
    "ScoreBank",
    "cross_correlate",
    "find_peaks_above",
    "segmented_correlation",
    # fastcorr
    "SpectrumPlan",
    "TemplateBank",
    "TrackSpec",
    "blocked_bank",
    "correlate_accumulate",
    "correlate_many",
    "spectrum_plan",
    # filters
    "design_lowpass_fir",
    "fft_bandpass",
    "fft_notch",
    "fir_filter",
    "frequency_shift",
    "gaussian_pulse",
    "half_sine_pulse",
    "moving_average",
    # fm
    "instantaneous_frequency",
    "quadrature_demod",
    # impairments
    "apply_cfo",
    "apply_dc_offset",
    "apply_iq_imbalance",
    "apply_phase",
    "cfo_from_ppm",
    "quantize",
    # jam
    "cw_tone",
    "pulsed_noise",
    "swept_tone",
    # measure
    "occupied_bandwidth",
    # resample
    "to_rate",
]
