"""DSP substrate: chirps, filters, correlation, channels, impairments.

All functions operate on one-dimensional complex numpy arrays (complex
baseband I/Q) and take explicit sample rates; there is no global state
and every random operation takes an explicit ``numpy.random.Generator``.
"""

from .channel import (
    add_at,
    awgn,
    complex_gain,
    noise_for_band_snr,
    scale_to_snr,
    signal_power,
)
from .chirp import (
    base_downchirp,
    base_upchirp,
    linear_chirp,
    lora_symbol,
    oversampling_factor,
)
from .correlation import (
    cross_correlate,
    find_peaks_above,
    normalized_correlation,
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
    apply_clock_drift,
    apply_dc_offset,
    apply_iq_imbalance,
    apply_phase,
    cfo_from_ppm,
    quantize,
)
from .jam import cw_tone, pulsed_noise, swept_tone
from .measure import (
    estimate_noise_floor,
    estimate_snr_db,
    occupied_bandwidth,
    papr_db,
    power,
    power_db,
    rms,
)
from .resample import (
    to_rate,
    decimate_integer,
    fractional_delay,
    resample_rational,
    upsample_integer,
)
from .spectrum import dominant_tones, stft, welch_psd

__all__ = [
    # channel
    "add_at",
    "awgn",
    "complex_gain",
    "noise_for_band_snr",
    "scale_to_snr",
    "signal_power",
    # chirp
    "base_downchirp",
    "base_upchirp",
    "linear_chirp",
    "lora_symbol",
    "oversampling_factor",
    # correlation
    "cross_correlate",
    "find_peaks_above",
    "normalized_correlation",
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
    "apply_clock_drift",
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
    "estimate_noise_floor",
    "estimate_snr_db",
    "occupied_bandwidth",
    "papr_db",
    "power",
    "power_db",
    "rms",
    # resample
    "decimate_integer",
    "fractional_delay",
    "resample_rational",
    "upsample_integer",
    "to_rate",
    # spectrum
    "dominant_tones",
    "stft",
    "welch_psd",
]
