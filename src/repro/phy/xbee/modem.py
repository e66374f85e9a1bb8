"""XBee-868 modem: 2-GFSK, 802.15.4-SUN-FSK style framing.

The paper's prototype drives a TI CC1310 configured for the XBee 868 MHz
profile. The XBee-PRO 868 radio runs 24 kbit/s 2-GFSK with ±25 kHz
deviation (modulation index ~2); this model uses 25 kbit/s so a bit is
an integer 40 samples at the 1 MHz capture rate. The high modulation
index concentrates energy near the two FSK tones — the property
KILL-FREQUENCY exploits. The frame follows the 802.15.4 SUN-FSK layout:

    preamble (4 x 0x55) | SFD 0x904E | PHR (1 byte length) | PSDU

where the PSDU is the payload plus CRC-16-CCITT, whitened with the PN9
sequence. Bits go out MSB first. The PHR is sent unwhitened so the
receiver can size the frame before de-whitening.
"""

from __future__ import annotations

import numpy as np

from ...errors import ChecksumError, ConfigurationError
from ...phy.base import FrameResult, Modem, ModulationClass
from ...phy.frames import checked_sync_threshold, sample_sync
from ...phy.fsk import (
    fsk_demodulate_bits,
    fsk_frequency_track,
    fsk_modulate,
    track_margin,
)
from ...utils.bits import bits_to_bytes, bits_to_int, bytes_to_bits, int_to_bits
from ...utils.crc import CRC16_CCITT
from ...utils.whitening import Pn9Whitener

__all__ = ["XBeeModem"]

_PREAMBLE = bytes([0x55] * 4)
_SFD = bytes([0x90, 0x4E])


class XBeeModem(Modem):
    """XBee-868 style GFSK modem.

    Args:
        bit_rate: On-air rate (default 25 kbit/s ≈ the XBee-PRO 868's
            24 kbit/s, rounded for an integer samples-per-bit).
        sps: Samples per bit (default 40 → 1 MHz native rate, matching
            the paper's RTL-SDR capture bandwidth).
        deviation_hz: Peak frequency deviation.
        bt: Gaussian bandwidth-time product.
        sync_threshold: Normalized correlation needed to declare sync.
    """

    name = "xbee"
    modulation = ModulationClass.FSK

    def __init__(
        self,
        bit_rate: float = 25e3,
        sps: int = 40,
        deviation_hz: float = 25e3,
        bt: float = 0.5,
        sync_threshold: float = 0.35,
    ):
        if sps < 2:
            raise ConfigurationError("sps must be >= 2")
        self._bit_rate = float(bit_rate)
        self._sps = int(sps)
        self._deviation = float(deviation_hz)
        self._bt = None if bt is None else float(bt)
        self._threshold = checked_sync_threshold(sync_threshold)
        self._whitener = Pn9Whitener()

    # -- characteristics ---------------------------------------------------

    @property
    def sample_rate(self) -> float:
        return self._bit_rate * self._sps

    @property
    def bandwidth(self) -> float:
        # Carson's rule for 2-FSK: 2 * (deviation + bit_rate / 2).
        return 2 * (self._deviation + self._bit_rate / 2)

    @property
    def bit_rate(self) -> float:
        return self._bit_rate

    @property
    def sps(self) -> int:
        """Samples per bit at the native rate."""
        return self._sps

    @property
    def sync_block(self) -> int:
        """2-bit coherent blocks tolerate ppm-scale CFO."""
        return 2 * self._sps


    @property
    def sync_decimation(self) -> int:
        """FSK sync/classification may run at a few samples per bit."""
        return max(self._sps // 10, 1)

    @property
    def max_payload(self) -> int:
        return 125  # PHR length covers payload + CRC, capped at 127

    # -- waveforms -----------------------------------------------------------

    def _wave(self, bits) -> np.ndarray:
        return fsk_modulate(
            bits, self._sps, self._deviation, self.sample_rate, bt=self._bt
        )

    def preamble_waveform(self) -> np.ndarray:
        """Waveform of the 4-byte 0x55 preamble."""
        return self._wave(bytes_to_bits(_PREAMBLE))

    def sync_waveform(self) -> np.ndarray:
        """Waveform of preamble + SFD (used for frame sync/classify)."""
        return self._wave(bytes_to_bits(_PREAMBLE + _SFD))

    def modulate(self, payload: bytes) -> np.ndarray:
        payload = bytes(payload)
        if len(payload) > self.max_payload:
            raise ConfigurationError(
                f"payload of {len(payload)} exceeds {self.max_payload} bytes"
            )
        psdu = self._whitener.whiten_bytes(CRC16_CCITT.append(payload))
        phr = int_to_bits(len(payload) + 2, 8)
        bits = np.concatenate(
            [bytes_to_bits(_PREAMBLE + _SFD), phr, bytes_to_bits(psdu)]
        )
        return self._wave(bits)

    # -- demodulation ----------------------------------------------------------

    def _estimate_cfo(self, track: np.ndarray, start: int) -> float:
        """Mean frequency over the alternating preamble = carrier offset."""
        window = track[start : start + 8 * len(_PREAMBLE) * self._sps]
        return float(np.mean(window)) if len(window) else 0.0

    def demodulate(self, iq: np.ndarray) -> FrameResult:
        iq = np.asarray(iq, dtype=np.complex128)
        start, score = sample_sync(
            iq,
            self.sync_reference(),
            self._threshold,
            block=2 * self._sps,
            stride=max(self._sps // 10, 1),
        )
        iq = iq[start:]
        margin = track_margin(self._sps)
        phr_at = 8 * (len(_PREAMBLE) + len(_SFD)) * self._sps
        psdu_at = phr_at + 8 * self._sps
        # Two discriminator passes, each over only what its reads need:
        # the header track feeds the CFO estimate and the PHR read, and
        # the frame track, sized by the PHR, feeds the PSDU read.
        head = iq[: psdu_at + margin]
        head_track = fsk_frequency_track(
            head, self.sample_rate, self._sps, self.bandwidth
        )
        cfo = self._estimate_cfo(head_track, 0)
        phr = fsk_demodulate_bits(
            head, phr_at, 8, self._sps, self.sample_rate,
            threshold_hz=cfo, bandwidth_hz=self.bandwidth, track=head_track,
        )
        psdu_len = bits_to_int(phr)
        if psdu_len < 2 or psdu_len > self.max_payload + 2:
            raise ChecksumError(f"implausible PHR length {psdu_len}")
        frame = iq[: psdu_at + 8 * psdu_len * self._sps + margin]
        frame_track = fsk_frequency_track(
            frame, self.sample_rate, self._sps, self.bandwidth
        )
        psdu_bits = fsk_demodulate_bits(
            frame, psdu_at, 8 * psdu_len, self._sps, self.sample_rate,
            threshold_hz=cfo, bandwidth_hz=self.bandwidth, track=frame_track,
        )
        psdu = self._whitener.whiten_bytes(bits_to_bytes(psdu_bits))
        crc_ok = CRC16_CCITT.check(psdu)
        return FrameResult(
            payload=psdu[:-2],
            crc_ok=crc_ok,
            start=start,
            sync_score=score,
            extra={"psdu_len": psdu_len, "cfo_hz": cfo},
        )
