"""The "kill" filters of Sec. 5 — one per modulation class.

Each filter removes (kills) one technology's contribution from a
collision so the *other* technologies become decodable; the killed
technology itself is recovered afterwards by SIC. Dispatch is purely on
the modulation class of the technology to kill:

* :class:`KillFrequency` — FSK/PSK. Those modulations pile their energy
  onto a handful of narrow tones (FSK: carrier ± deviation; PSK: a
  narrow band at the carrier). Brick-wall-notching the tone bands wipes
  the signal while costing a co-channel spread-spectrum signal only the
  notched fraction of its band.
* :class:`KillCss` — LoRa-class CSS. Multiplying by the conjugate chirp
  per symbol window turns every chirp into a tone; nulling the dominant
  FFT bin(s) per window and re-chirping surgically removes the LoRa
  signal, leaving other signals untouched except for ~2/N of their
  energy per symbol. The windows do not overlap, so all of them go
  through one batched FFT as the rows of one matrix.
* :class:`KillCodes` — DSSS. Each 32-chip symbol of the detected code
  sequence is projected out (per-symbol least-squares reconstruction of
  the spread waveform, subtracted in the time domain).

All filters implement ``apply(samples, sample_rate_hz, target) -> np.ndarray`` where
``target`` is the classifier's :class:`~repro.cloud.classify.ClassifiedSignal`
for the technology to remove, with sample indices at rate ``sample_rate_hz``.
"""

from __future__ import annotations

import numpy as np

from ..contracts import iq_contract
from ..dsp.chirp import base_downchirp, base_upchirp
from ..dsp.filters import blocked_ls_subtract, fft_notch
from ..errors import ConfigurationError
from ..phy.base import Modem, ModulationClass
from ..phy.fsk import FskModem
from .classify import ClassifiedSignal
from .sic import GAIN_BLOCK_S

__all__ = [
    "KillFrequency",
    "KillCss",
    "KillCodes",
    "kill_filter_for",
]

#: Half-width of each frequency notch as a fraction of the bit rate.
NOTCH_WIDTH_FACTOR = 0.8
#: FFT bins nulled on each side of a dechirped CSS peak.
CSS_GUARD_BINS = 2


class KillFrequency:
    """Notch out the tone bands of an FSK (or the band of a PSK) signal.

    Each notch is :data:`NOTCH_WIDTH_FACTOR` bit rates wide on each
    side of its tone. An :class:`~repro.phy.fsk.FskModem` places its
    tones at ±``deviation_hz``; any other FSK-class modem is taken to
    place them at ±``bandwidth / 2``.

    Args:
        modem: The technology to kill (defines tones and widths).
    """

    name = "kill-frequency"

    def __init__(self, modem: Modem):
        if modem.modulation not in (ModulationClass.FSK, ModulationClass.PSK):
            raise ConfigurationError(
                "KillFrequency applies to FSK/PSK technologies only"
            )
        self.modem = modem

    def bands(self, center_hz: float = 0.0) -> list[tuple[float, float]]:
        """The frequency bands this filter notches."""
        rate = self.modem.bit_rate
        width = NOTCH_WIDTH_FACTOR * rate
        if self.modem.modulation is ModulationClass.FSK:
            deviation = (
                self.modem.deviation_hz
                if isinstance(self.modem, FskModem)
                else self.modem.bandwidth / 2
            )
            # Cap the half-width at the deviation: a notch wider
            # than the tone spacing stops being surgical and swallows a
            # co-channel spread-spectrum bystander along with the FSK.
            width = min(width, deviation)
            return [
                (center_hz - deviation - width, center_hz - deviation + width),
                (center_hz + deviation - width, center_hz + deviation + width),
            ]
        # PSK: energy concentrated in one band at the carrier.
        half = max(self.modem.bandwidth / 2, width)
        return [(center_hz - half, center_hz + half)]

    @iq_contract("samples")
    def apply(
        self, samples: np.ndarray, sample_rate_hz: float, target: ClassifiedSignal | None = None
    ) -> np.ndarray:
        """Notch the target's tone bands out of ``samples``.

        The notches are centred on ``target.center_hz`` (the
        classifier's carrier-offset estimate), so a victim sitting off
        baseband — a neighbouring channel, a large CFO — is removed
        where it actually is. With no target the baseband assumption
        applies.
        """
        center_hz = float(target.center_hz) if target is not None else 0.0
        return fft_notch(samples, sample_rate_hz, self.bands(center_hz))


class KillCss:
    """Dechirp-null-rechirp removal of a LoRa-class CSS signal.

    The filter needs the LoRa frame's start (from the classifier) so its
    processing windows align with the interferer's symbol boundaries.
    Preamble/data windows are dechirped with the downchirp; the 2.25-
    symbol SFD is dechirped with the upchirp. In every window the
    dominant FFT bin — wherever it is, so no demodulation is required —
    is nulled together with :data:`CSS_GUARD_BINS` neighbours on each
    side and its wrap-around alias, then the window is re-chirped.

    Args:
        modem: The LoRa modem describing sf/bw/oversampling/frame shape.
    """

    name = "kill-css"

    def __init__(self, modem: Modem):
        if modem.modulation is not ModulationClass.CSS:
            raise ConfigurationError("KillCss applies to CSS technologies only")
        self.modem = modem

    @iq_contract("samples")
    def apply(
        self, samples: np.ndarray, sample_rate_hz: float, target: ClassifiedSignal
    ) -> np.ndarray:
        """Remove the CSS signal starting near ``target.start``.

        ``target.start`` must be expressed at rate ``sample_rate_hz`` and ``sample_rate_hz`` must
        equal the modem's native rate (the cloud pipeline arranges this).

        The whole symbol windows from the start on form the rows of one
        matrix: each row is dechirped, all rows go through one FFT, and
        two row-wise ``argmax`` passes null each window's two strongest
        bins. When the processing grid is misaligned with the
        interferer's symbol boundaries (the classifier's start estimate
        is only sample-accurate), each window holds *two* tone segments,
        hence two peaks, each nulled with its guard neighbours and its
        ``±2^SF`` wrap-around aliases. One inverse FFT and a re-chirp
        restore the rows.
        """
        if abs(sample_rate_hz - self.modem.sample_rate) > 1e-6 * sample_rate_hz:
            raise ConfigurationError(
                "KillCss must run at the CSS modem's native sample rate"
            )
        out = samples.copy()
        n_sym = self.modem.samples_per_symbol
        start = max(int(target.start), 0)
        n_windows = max((len(out) - start) // n_sym, 0)
        if n_windows == 0:
            return out
        stop = start + n_windows * n_sym
        # Frame layout: preamble + 2 sync (upchirps), 2.25 SFD downchirps,
        # then data upchirps until the end of the segment. SFD windows
        # dechirp with the upchirp, every other window with the downchirp.
        sfd_start = start + (self.modem.preamble_len + 2) * n_sym
        sfd_end = sfd_start + n_sym * 9 // 4
        positions = start + n_sym * np.arange(n_windows)
        in_sfd = (positions >= sfd_start) & (positions < sfd_end)
        refs = np.where(
            in_sfd[:, None],
            base_upchirp(self.modem.sf, self.modem.oversample),
            base_downchirp(self.modem.sf, self.modem.oversample),
        )
        spectrum = np.fft.fft(out[start:stop].reshape(n_windows, n_sym) * refs, axis=1)
        magnitude = np.abs(spectrum)
        n_chips = 1 << self.modem.sf
        spread = np.arange(-CSS_GUARD_BINS, CSS_GUARD_BINS + 1)
        rows = np.arange(n_windows)[:, None]
        for _ in range(2):
            peak = np.argmax(magnitude, axis=1)
            bases = np.stack((peak, peak - n_chips, peak + n_chips), axis=1)
            nulled = (bases[:, :, None] + spread).reshape(n_windows, -1) % n_sym
            spectrum[rows, nulled] = 0
            magnitude[rows, nulled] = 0
        out[start:stop] = (np.fft.ifft(spectrum, axis=1) * np.conj(refs)).reshape(-1)
        # The partial quarter-SFD symbol and any trailing fraction are
        # left untouched; they carry <1 symbol of residual energy.
        return out


class KillCodes:
    """Project out a DSSS signal by reconstructing its chip stream.

    The received segment is chip-sliced from the detected frame start,
    each 32-chip block is snapped to the nearest code sequence (the
    "apply the well-known orthogonal code" step — hard decisions are
    dominated by the signal being killed), and the *continuous* waveform
    of that chip stream is regenerated and subtracted with per-block
    least-squares gains over :data:`~repro.cloud.sic.GAIN_BLOCK_S`
    blocks. Rebuilding one continuous waveform matters: O-QPSK half-sine
    pulses straddle symbol boundaries, so per-window subtraction would
    leave a comb of edge residuals.

    Args:
        modem: The DSSS modem (defines chip rate, pulse and codes).
    """

    name = "kill-codes"

    def __init__(self, modem: Modem):
        if modem.modulation is not ModulationClass.DSSS:
            raise ConfigurationError("KillCodes applies to DSSS technologies only")
        self.modem = modem

    @iq_contract("samples")
    def apply(
        self, samples: np.ndarray, sample_rate_hz: float, target: ClassifiedSignal
    ) -> np.ndarray:
        """Remove the DSSS signal starting near ``target.start``."""
        if abs(sample_rate_hz - self.modem.sample_rate) > 1e-6 * sample_rate_hz:
            raise ConfigurationError(
                "KillCodes must run at the DSSS modem's native sample rate"
            )
        from ..phy.dsss import chips_to_oqpsk, despread_chips, oqpsk_to_chips, spread_symbols

        sps = self.modem.sps
        start = max(int(target.start), 0)
        available = len(samples) - start - sps  # keep the Q-rail tail in range
        n_symbols = available // (32 * sps)
        if n_symbols < 1:
            return samples.copy()
        n_chips = n_symbols * 32
        region = np.asarray(samples[start : start + n_chips * sps + sps])
        # Phase-align before hard chip decisions (O-QPSK is coherent):
        # try a bank of rotations and keep the one whose despread
        # distances are smallest.
        probe_chips = min(n_chips, 128)
        best_phi = 0.0
        best_dist = None
        for k in range(16):
            phi = k * 2 * np.pi / 16
            c = oqpsk_to_chips(region * np.exp(-1j * phi), probe_chips, sps)
            _, dists = despread_chips(c)
            total = int(dists.sum())
            if best_dist is None or total < best_dist:
                best_dist = total
                best_phi = phi
        aligned = region * np.exp(-1j * best_phi)
        chips = oqpsk_to_chips(aligned, n_chips, sps)
        symbols, _ = despread_chips(chips)
        clean_chips = spread_symbols(symbols)
        wave = chips_to_oqpsk(clean_chips, sps) * np.exp(1j * best_phi)
        # Per-block LS subtraction of the reconstructed stream.
        out = samples.copy()
        block = max(int(GAIN_BLOCK_S * sample_rate_hz), 64)
        stop = min(start + len(wave), len(out))
        out[start:stop] = blocked_ls_subtract(
            wave[: stop - start], out[start:stop], block
        )
        return out


def kill_filter_for(modem: Modem) -> KillFrequency | KillCss | KillCodes:
    """Pick the kill filter class for a technology's modulation."""
    if modem.modulation in (ModulationClass.FSK, ModulationClass.PSK):
        return KillFrequency(modem)
    if modem.modulation is ModulationClass.CSS:
        return KillCss(modem)
    if modem.modulation is ModulationClass.DSSS:
        return KillCodes(modem)
    raise ConfigurationError(
        f"no kill filter for modulation {modem.modulation.value}"
    )
