"""LoRa CSS modem.

Structure of an uplink frame (matching the SX1276 the paper transmits
with):

    N_pre upchirps | 2 sync-word chirps | 2.25 downchirps (SFD) | data

Data symbols come from the encode chain in
:mod:`repro.phy.lora.encoding`. The modem natively oversamples the chirp
bandwidth so frames drop straight into a wider capture: the default
(SF7, BW 125 kHz, oversample 8) emits at the paper's 1 MHz RTL-SDR rate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ...dsp.chirp import base_downchirp, base_upchirp, lora_symbol
from ...errors import ConfigurationError, DecodeError
from ...phy.base import FrameResult, Modem, ModulationClass
from ...phy.css import dechirp, demodulate_symbols, modulate_symbols
from ...phy.frames import checked_sync_threshold, sample_sync
from . import encoding

__all__ = ["LoRaModem"]


@lru_cache(maxsize=64)
def _index_ramp(n: int) -> np.ndarray:
    """Cached read-only ``arange(n)``: the per-length half of the phasor
    ramp, reused by every derotation of one spreading factor's frames."""
    ramp = np.arange(n, dtype=np.float64)
    ramp.flags.writeable = False
    return ramp


def _derotate(iq: np.ndarray, freq_hz: float, sample_rate_hz: float) -> np.ndarray:
    """``iq * exp(-2j pi freq_hz/sample_rate_hz * arange(len(iq)))``."""
    rotation = (-2j * np.pi * freq_hz / sample_rate_hz) * _index_ramp(len(iq))
    return iq * np.exp(rotation)


def _fine_sync_metrics(
    iq: np.ndarray,
    ref: np.ndarray,
    lo: int,
    n_candidates: int,
    block: int,
    n_blocks: int,
) -> np.ndarray:
    """Non-coherent blocked correlation metric for a run of candidates.

    ``metric[c] = sum_b |vdot(ref[b*block:(b+1)*block],
    iq[lo+c+b*block : lo+c+(b+1)*block])|`` for ``c`` in
    ``0..n_candidates-1``, as one sliding-window einsum. The caller
    guarantees ``lo + n_candidates - 1 + n_blocks*block <= len(iq)``.
    """
    used = n_blocks * block
    region = np.asarray(iq[lo : lo + n_candidates - 1 + used], dtype=np.complex128)
    ref_blocks = np.conj(np.asarray(ref[:used], dtype=np.complex128)).reshape(
        n_blocks, block
    )
    windows = np.lib.stride_tricks.sliding_window_view(region, used)
    stacked = windows.reshape(n_candidates, n_blocks, block)
    per_block = np.einsum("cbk,bk->cb", stacked, ref_blocks)
    return np.abs(per_block).sum(axis=1)


class LoRaModem(Modem):
    """CSS modem with the full LoRa encode chain.

    Args:
        sf: Spreading factor, 5..12.
        bw: Chirp bandwidth in Hz.
        oversample: Integer native oversampling (fs = bw * oversample).
        cr: Coding-rate index 1..4 (codeword length 4 + cr).
        preamble_len: Number of preamble upchirps.
        sync_word: One-byte network sync word.
        sync_threshold: Normalized correlation needed to declare sync.
    """

    name = "lora"
    modulation = ModulationClass.CSS

    def __init__(
        self,
        sf: int = 7,
        bw: float = 125e3,
        oversample: int = 8,
        cr: int = 4,
        preamble_len: int = 8,
        sync_word: int = 0x12,
        sync_threshold: float = 0.30,
    ):
        if not 5 <= sf <= 12:
            raise ConfigurationError("sf must be in 5..12")
        if cr not in (1, 2, 3, 4):
            raise ConfigurationError("cr must be in 1..4")
        if oversample < 1:
            raise ConfigurationError("oversample must be >= 1")
        if preamble_len < 4:
            raise ConfigurationError("preamble must be at least 4 chirps")
        self.sf = sf
        self.bw = float(bw)
        self.oversample = int(oversample)
        self.cr = cr
        self.preamble_len = int(preamble_len)
        self.sync_word = int(sync_word) & 0xFF
        self._threshold = checked_sync_threshold(sync_threshold)

    # -- characteristics -----------------------------------------------------

    @property
    def sample_rate(self) -> float:
        return self.bw * self.oversample

    @property
    def bandwidth(self) -> float:
        return self.bw

    @property
    def bit_rate(self) -> float:
        # sf bits per symbol, 2**sf / bw symbol duration, FEC rate 4/(4+cr).
        return self.sf * (self.bw / (1 << self.sf)) * 4 / (4 + self.cr)

    @property
    def max_payload(self) -> int:
        return 255

    @property
    def samples_per_symbol(self) -> int:
        """Native samples per chirp symbol."""
        return (1 << self.sf) * self.oversample

    @property
    def sync_block(self) -> int:
        """Quarter-symbol coherent blocks tolerate ppm-scale CFO."""
        return max(self.samples_per_symbol // 4, 64)

    @property
    def sync_decimation(self) -> int:
        """CSS synchronizes at chip rate; fine sync absorbs the error."""
        return self.oversample

    # -- waveforms -------------------------------------------------------------

    def _sync_symbols(self) -> tuple[int, int]:
        high = ((self.sync_word >> 4) & 0x0F) << 3
        low = (self.sync_word & 0x0F) << 3
        return high, low

    def preamble_waveform(self) -> np.ndarray:
        """The run of ``preamble_len`` base upchirps."""
        up = base_upchirp(self.sf, self.oversample)
        return np.tile(up, self.preamble_len)

    def _sfd_waveform(self) -> np.ndarray:
        down = base_downchirp(self.sf, self.oversample)
        quarter = down[: len(down) // 4]
        return np.concatenate([down, down, quarter])

    def sync_waveform(self) -> np.ndarray:
        """Preamble + sync chirps + SFD — the full frame prefix."""
        s1, s2 = self._sync_symbols()
        sync = np.concatenate(
            [
                lora_symbol(s1, self.sf, self.oversample),
                lora_symbol(s2, self.sf, self.oversample),
            ]
        )
        return np.concatenate([self.preamble_waveform(), sync, self._sfd_waveform()])

    def modulate(self, payload: bytes) -> np.ndarray:
        symbols = encoding.encode_to_symbols(payload, self.sf, self.cr)
        data = modulate_symbols(symbols, self.sf, self.oversample)
        return np.concatenate([self.sync_reference(), data])

    # -- demodulation --------------------------------------------------------------

    def _tone_bin(self, iq: np.ndarray, start: int, n_symbols: int, up: bool) -> float:
        """Fractional dechirped-tone bin averaged over ``n_symbols``.

        Returns a signed bin offset in (-N/2, N/2]; 0 means the tone sits
        exactly where a perfectly-synchronized symbol-0 chirp would.
        """
        n = 1 << self.sf
        n_sym = self.samples_per_symbol
        stop = start + n_symbols * n_sym
        if start < 0 or stop > len(iq):
            return 0.0
        tones = dechirp(
            iq[start:stop], self.sf, self.oversample, self.bw, up=up
        )
        spectra = np.abs(np.fft.fft(tones.reshape(n_symbols, n), axis=1))
        mean = spectra.mean(axis=0)
        peak = int(np.argmax(mean))
        # Parabolic interpolation for the fractional bin.
        left = mean[(peak - 1) % n]
        right = mean[(peak + 1) % n]
        centre = mean[peak]
        denom = left - 2 * centre + right
        frac = 0.0 if denom == 0 else 0.5 * (left - right) / denom
        value = peak + frac
        if value > n / 2:
            value -= n
        return float(value)

    def _combined_offset_hz(self, iq: np.ndarray, start: int) -> float:
        """Combined CFO + timing offset as seen by the dechirp FFT.

        A carrier offset and a (sub-symbol) timing error both shift the
        dechirped tone of *every* upchirp window by the same constant
        number of bins when processing stays on one fixed sample grid.
        Measuring that shift on the preamble and derotating the whole
        segment therefore compensates both at once for the data symbols
        — the trick that makes this demodulator tolerate the crystal
        offsets of real transmitters.
        """
        bins = self._tone_bin(iq, start, min(self.preamble_len, 4), up=True)
        return bins * self.bw / (1 << self.sf)

    def _coarse_sync(self, iq: np.ndarray) -> tuple[int, float]:
        """CFO-tolerant sync at chip rate.

        Correlating the 12+-symbol sync reference at the oversampled
        capture rate costs dozens of segment-length FFTs; striding both
        the segment and the reference down to one sample per chip
        (``sample_sync``'s ``stride``) cuts that by ~oversample^2 while
        keeping all of the correlation's processing gain. The resulting
        timing quantization (one chip) is absorbed by the combined
        CFO+timing estimator that runs right after.
        """
        os_ = self.oversample
        ref = self.sync_reference()
        coarse, score = sample_sync(
            iq,
            ref,
            self._threshold,
            block=max((1 << self.sf) // 4, 32) * os_,
            stride=os_,
        )
        if os_ == 1:
            return coarse, score
        # Local full-rate refinement: a fractional-chip timing error
        # cannot be absorbed by derotation (the wrapped halves of each
        # chirp interfere destructively), so recover exact-sample timing
        # by scanning +-1 chip around the chip-rate peak. Non-coherent
        # per-block combining keeps the refinement CFO-proof.
        block = max((1 << self.sf) // 4 * os_, 64)
        n_blocks = max(len(ref) // block, 1)
        lo = max(coarse - os_, 0)
        # Candidates whose full-reference window would run past the
        # segment cannot be scored.
        hi = min(coarse + os_, len(iq) - len(ref))
        if hi < lo:
            return coarse, score
        metrics = _fine_sync_metrics(iq, ref, lo, hi - lo + 1, block, n_blocks)
        # Ties keep the earliest candidate.
        return lo + int(np.argmax(metrics)), score

    def _frame_span(self) -> int:
        """Upper bound on sync + data samples one frame can occupy."""
        max_body = encoding.HEADER_BYTES + self.max_payload + 2
        n_data = encoding.symbols_for_body(max_body, self.sf, self.cr)
        return len(self.sync_reference()) + n_data * self.samples_per_symbol

    def demodulate(self, iq: np.ndarray) -> FrameResult:
        iq = np.asarray(iq, dtype=np.complex128)
        start, score = self._coarse_sync(iq)
        # Work on the sync+frame span only. Rebasing the index origin to
        # the frame start adds a constant phase to the derotated
        # samples, which the magnitude-domain dechirp FFT cannot see.
        iq = iq[start : start + self._frame_span()]
        # Both offsets come from the 4-symbol preamble probe, and each
        # read derotates only the prefix it consumes: the work is
        # O(frame read), not O(span).
        probe = iq[: min(self.preamble_len, 4) * self.samples_per_symbol]
        offsets: list[float] = []
        cfo_hz = self._combined_offset_hz(probe, 0)
        if abs(cfo_hz) > 1e-3:
            offsets.append(cfo_hz)
            # One refinement pass: the first estimate is biased by
            # spectral leakage at half-bin offsets.
            residual = self._combined_offset_hz(
                _derotate(probe, cfo_hz, self.sample_rate), 0
            )
            if abs(residual) > 1e-3:
                offsets.append(residual)
                cfo_hz += residual
        data_at = len(self.sync_reference())
        block = 4 + self.cr
        n_sym = self.samples_per_symbol

        def _read(n_symbols: int) -> np.ndarray:
            needed = data_at + n_symbols * n_sym
            if needed > len(iq):
                raise DecodeError("segment too short for the LoRa frame")
            prefix = iq[:needed]
            for offset_hz in offsets:
                prefix = _derotate(prefix, offset_hz, self.sample_rate)
            symbols, _ = demodulate_symbols(
                prefix[data_at:], n_symbols, self.sf, self.oversample, self.bw
            )
            return symbols

        first = _read(block)
        length = encoding.decode_header(first, self.sf, self.cr)
        body_len = encoding.HEADER_BYTES + length + 2
        total_symbols = encoding.symbols_for_body(body_len, self.sf, self.cr)
        symbols = _read(total_symbols)
        payload, crc_ok, corrected, bad = encoding.decode_symbols(
            symbols, self.sf, self.cr
        )
        return FrameResult(
            payload=payload,
            crc_ok=crc_ok,
            start=start,
            sync_score=score,
            corrected_errors=corrected,
            extra={
                "uncorrectable": bad,
                "n_symbols": int(total_symbols),
                "cfo_hz": cfo_hz,
            },
        )
