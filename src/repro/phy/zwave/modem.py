"""Z-Wave modem: ITU-T G.9959 R2 (40 kb/s NRZ BFSK, ±20 kHz).

Frame layout (simplified MPDU):

    preamble (n x 0x55) | SOF 0xF0 | MPDU

    MPDU = home_id (4) | src (1) | frame_ctrl (2) | length (1) |
           dst (1) | payload (n) | checksum (1)

``length`` counts the whole MPDU including the checksum; the checksum is
the XOR of all preceding MPDU bytes seeded with 0xFF. Bits go MSB first.
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
from ...utils.bits import bits_to_bytes, bits_to_int, bytes_to_bits
from ...utils.crc import xor_checksum

__all__ = ["ZWaveModem"]

_SOF = 0xF0
_MPDU_OVERHEAD = 4 + 1 + 2 + 1 + 1 + 1  # home, src, fc, length, dst, checksum


class ZWaveModem(Modem):
    """G.9959 BFSK modem (R2 data rate).

    Args:
        bit_rate: On-air bit rate.
        sps: Samples per bit.
        deviation_hz: Peak frequency deviation.
        preamble_bytes: Number of 0x55 preamble bytes (>= 10 per spec).
        home_id: 4-byte network identifier placed in every frame; a
            frame carrying another one is not CRC-clean.
        sync_threshold: Normalized correlation needed to declare sync.
    """

    name = "zwave"
    modulation = ModulationClass.FSK

    def __init__(
        self,
        bit_rate: float = 40e3,
        sps: int = 25,
        deviation_hz: float = 20e3,
        preamble_bytes: int = 10,
        home_id: bytes = b"\xde\xad\xbe\xef",
        src: int = 0x01,
        dst: int = 0x02,
        sync_threshold: float = 0.35,
    ):
        if sps < 2:
            raise ConfigurationError("sps must be >= 2")
        if preamble_bytes < 2:
            raise ConfigurationError("preamble must be at least 2 bytes")
        if len(home_id) != 4:
            raise ConfigurationError("home_id must be 4 bytes")
        self._bit_rate = float(bit_rate)
        self._sps = int(sps)
        self._deviation = float(deviation_hz)
        self._preamble = bytes([0x55] * preamble_bytes)
        self._home_id = bytes(home_id)
        self._src = int(src) & 0xFF
        self._dst = int(dst) & 0xFF
        self._threshold = checked_sync_threshold(sync_threshold)

    # -- characteristics ---------------------------------------------------

    @property
    def sample_rate(self) -> float:
        return self._bit_rate * self._sps

    @property
    def bandwidth(self) -> float:
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
        """2-symbol coherent blocks tolerate ppm-scale CFO."""
        return 2 * self._sps


    @property
    def sync_decimation(self) -> int:
        """Conservative stride: Z-Wave's plain-BFSK sync peak is less
        tolerant of decimation loss than the GFSK profiles."""
        return max(self._sps // 20, 1)

    @property
    def max_payload(self) -> int:
        return 255 - _MPDU_OVERHEAD

    # -- waveforms -----------------------------------------------------------

    def _wave(self, bits) -> np.ndarray:
        return fsk_modulate(bits, self._sps, self._deviation, self.sample_rate, bt=None)

    def _read_bits(
        self,
        iq: np.ndarray,
        at: int,
        n_bits: int,
        cfo: float,
        track: np.ndarray,
    ) -> np.ndarray:
        """Demodulate ``n_bits`` data bits starting at sample ``at``."""
        return fsk_demodulate_bits(
            iq, at, n_bits, self._sps, self.sample_rate,
            threshold_hz=cfo, bandwidth_hz=self.bandwidth, track=track,
        )

    def preamble_waveform(self) -> np.ndarray:
        """Waveform of the 0x55 preamble run."""
        return self._wave(bytes_to_bits(self._preamble))

    def sync_waveform(self) -> np.ndarray:
        """Waveform of preamble + SOF."""
        return self._wave(bytes_to_bits(self._preamble + bytes([_SOF])))

    def modulate(self, payload: bytes) -> np.ndarray:
        payload = bytes(payload)
        if len(payload) > self.max_payload:
            raise ConfigurationError(
                f"payload of {len(payload)} exceeds {self.max_payload} bytes"
            )
        length = _MPDU_OVERHEAD + len(payload)
        body = (
            self._home_id
            + bytes([self._src, 0x41, 0x01, length, self._dst])
            + payload
        )
        mpdu = body + bytes([xor_checksum(body)])
        bits = bytes_to_bits(self._preamble + bytes([_SOF]) + mpdu)
        return self._wave(bits)

    # -- demodulation ----------------------------------------------------------

    def _estimate_cfo(self, track: np.ndarray, start: int) -> float:
        """Mean frequency over the alternating preamble = carrier offset."""
        window = track[start : start + 8 * len(self._preamble) * self._sps]
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
        mpdu_at = 8 * (len(self._preamble) + 1) * self._sps
        # Two discriminator passes, each over only what its reads need:
        # the header track (through the length field) feeds the CFO
        # estimate and the length read, and the frame track, sized by
        # that length, feeds the MPDU read.
        fixed = 4 + 1 + 2 + 1  # home + src + fc + length
        head = iq[: mpdu_at + 8 * fixed * self._sps + margin]
        head_track = fsk_frequency_track(
            head, self.sample_rate, self._sps, self.bandwidth
        )
        cfo = self._estimate_cfo(head_track, 0)
        head_bits = self._read_bits(head, mpdu_at, 8 * fixed, cfo, head_track)
        length = bits_to_int(head_bits[-8:])
        if length < _MPDU_OVERHEAD or length > 255:
            raise ChecksumError(f"implausible MPDU length {length}")
        frame = iq[: mpdu_at + 8 * length * self._sps + margin]
        frame_track = fsk_frequency_track(
            frame, self.sample_rate, self._sps, self.bandwidth
        )
        mpdu_bits = self._read_bits(frame, mpdu_at, 8 * length, cfo, frame_track)
        mpdu = bits_to_bytes(mpdu_bits)
        # A frame of another network is not this network's frame, even
        # when its 8-bit checksum (1 in 256 for any bits) matches.
        crc_ok = xor_checksum(mpdu[:-1]) == mpdu[-1] and mpdu[:4] == self._home_id
        payload = mpdu[fixed + 1 : -1]
        return FrameResult(
            payload=payload,
            crc_ok=crc_ok,
            start=start,
            sync_score=score,
            extra={"home_id": mpdu[:4], "length": length},
        )
