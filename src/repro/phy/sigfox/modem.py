"""SigFox-style ultra-narrow-band D-BPSK modem (100 bit/s).

SigFox uplinks are 100 bit/s differential BPSK in a ~100 Hz channel —
the extreme low-power end of Table 1. The frame here is a simplified
but self-consistent equivalent of the SigFox uplink:

    preamble (2 x 0xAA) | sync 0xB227 | length (1) | payload | CRC16

The whole frame is one differential bit stream (the preamble's
alternating bits double as the differential reference), payload and CRC
are PN9-scrambled, and the pulse shaping bounds occupied bandwidth to a
few times the bit rate.

SigFox is an *extension* technology: its sub-noise narrowband signals
are exactly the kind an energy detector misses, so it appears in the
detector-scaling ablation.
"""

from __future__ import annotations

import numpy as np

from ...errors import ChecksumError, ConfigurationError
from ...phy.base import FrameResult, Modem, ModulationClass
from ...phy.frames import checked_sync_threshold, sample_sync
from ...phy.psk import bpsk_modulate, dbpsk_demodulate_bits, dbpsk_encode
from ...utils.bits import bits_to_bytes, bits_to_int, bytes_to_bits
from ...utils.crc import CRC16_CCITT
from ...utils.whitening import Pn9Whitener

__all__ = ["SigfoxModem"]

_PREAMBLE = bytes([0xAA] * 2)
_SYNC = bytes([0xB2, 0x27])


class SigfoxModem(Modem):
    """Ultra-narrow-band D-BPSK modem."""

    name = "sigfox"
    modulation = ModulationClass.PSK

    def __init__(
        self,
        bit_rate: float = 100.0,
        sps: int = 160,
        sync_threshold: float = 0.40,
    ):
        if sps < 8:
            raise ConfigurationError("sps must be >= 8 for UNB shaping")
        self._bit_rate = float(bit_rate)
        self._sps = int(sps)
        self._threshold = checked_sync_threshold(sync_threshold)
        self._whitener = Pn9Whitener()

    @property
    def sample_rate(self) -> float:
        return self._bit_rate * self._sps

    @property
    def bandwidth(self) -> float:
        # UNB BPSK: main lobe approximately twice the bit rate.
        return 2 * self._bit_rate

    @property
    def bit_rate(self) -> float:
        return self._bit_rate

    @property
    def sps(self) -> int:
        """Samples per bit at the native rate."""
        return self._sps

    @property
    def max_payload(self) -> int:
        return 12  # the SigFox uplink payload limit

    # -- waveforms ----------------------------------------------------------

    def _frame_bits(self, payload: bytes) -> np.ndarray:
        body = self._whitener.whiten_bytes(CRC16_CCITT.append(payload))
        return np.concatenate(
            [
                bytes_to_bits(_PREAMBLE + _SYNC),
                bytes_to_bits(bytes([len(payload)])),
                bytes_to_bits(body),
            ]
        )

    def _wave(self, frame_bits) -> np.ndarray:
        return bpsk_modulate(dbpsk_encode(frame_bits), self._sps)

    def preamble_waveform(self) -> np.ndarray:
        """Waveform of the alternating preamble (differentially encoded)."""
        return self._wave(bytes_to_bits(_PREAMBLE))

    def sync_waveform(self) -> np.ndarray:
        """Waveform of preamble + sync word."""
        return self._wave(bytes_to_bits(_PREAMBLE + _SYNC))

    def modulate(self, payload: bytes) -> np.ndarray:
        payload = bytes(payload)
        if len(payload) > self.max_payload:
            raise ConfigurationError(
                f"payload of {len(payload)} exceeds {self.max_payload} bytes"
            )
        return self._wave(self._frame_bits(payload))

    # -- demodulation -----------------------------------------------------------

    def demodulate(self, iq: np.ndarray) -> FrameResult:
        iq = np.asarray(iq, dtype=np.complex128)
        start, score = sample_sync(iq, self.sync_reference(), self._threshold)
        header_bits = 8 * (len(_PREAMBLE) + len(_SYNC))
        len_at = start + header_bits * self._sps
        length_bits = dbpsk_demodulate_bits(iq, len_at, 8, self._sps)
        length = bits_to_int(length_bits)
        if length > self.max_payload:
            raise ChecksumError(f"implausible SigFox length {length}")
        body_at = len_at + 8 * self._sps
        body_bits = dbpsk_demodulate_bits(
            iq, body_at, 8 * (length + 2), self._sps
        )
        body = self._whitener.whiten_bytes(bits_to_bytes(body_bits))
        crc_ok = CRC16_CCITT.check(body)
        return FrameResult(
            payload=body[:-2],
            crc_ok=crc_ok,
            start=start,
            sync_score=score,
            extra={"length": length},
        )
