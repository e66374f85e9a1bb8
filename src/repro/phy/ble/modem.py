"""BLE advertising-channel modem (1 Mb/s GFSK).

Implements the LE 1M uncoded PHY shape: 1 Mbit/s GFSK with BT = 0.5 and
±250 kHz deviation, LSB-first bit order, CRC-24 (poly 0x00065B, init
0x555555) and channel-37 data whitening. Frame layout:

    preamble 0xAA | access address 0x8E89BED6 | header (2) | payload | CRC24

Header and payload are whitened; preamble and access address are not.
The whitening keystream uses this package's generic Fibonacci LFSR with
the BLE polynomial (x^7 + x^4 + 1) and the channel-37 seed; it is
self-consistent rather than bit-exact with over-the-air BLE, which no
experiment in the paper depends on.

BLE is an *extension* technology (Table 1 row 4): it is not part of the
paper's three-technology prototype but demonstrates that the universal
preamble and registry scale with software updates.
"""

from __future__ import annotations

import numpy as np

from ...errors import ChecksumError, ConfigurationError
from ...phy.base import FrameResult, Modem, ModulationClass
from ...phy.frames import checked_sync_threshold, sample_sync_strided
from ...phy.fsk import fsk_demodulate_bits, fsk_frequency_track, fsk_modulate
from ...utils.bits import bits_to_bytes, bytes_to_bits
from ...utils.crc import CrcEngine
from ...utils.whitening import LfsrWhitener

__all__ = ["BleModem"]

_PREAMBLE = bytes([0xAA])
_ACCESS_ADDRESS = (0x8E89BED6).to_bytes(4, "little")
_CRC24 = CrcEngine(width=24, poly=0x00065B, init=0x555555)
_WHITEN_SEED_CH37 = 0x65  # bit6 set | channel index 37


class BleModem(Modem):
    """BLE LE-1M style GFSK modem on the advertising channel."""

    name = "ble"
    modulation = ModulationClass.FSK

    def __init__(
        self,
        bit_rate: float = 1e6,
        sps: int = 4,
        deviation_hz: float = 250e3,
        bt: float = 0.5,
        sync_threshold: float = 0.40,
    ):
        if sps < 2:
            raise ConfigurationError("sps must be >= 2")
        self._bit_rate = float(bit_rate)
        self._sps = int(sps)
        self._deviation = float(deviation_hz)
        self._bt = float(bt)
        self._threshold = checked_sync_threshold(sync_threshold)

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
        """4-bit coherent blocks tolerate ppm-scale CFO."""
        return 4 * self._sps

    @property
    def max_payload(self) -> int:
        return 37  # legacy advertising PDU payload limit

    # -- waveforms -------------------------------------------------------

    def _wave(self, bits) -> np.ndarray:
        return fsk_modulate(
            bits, self._sps, self._deviation, self.sample_rate, bt=self._bt
        )

    def _whitener(self) -> LfsrWhitener:
        return LfsrWhitener(taps=(7, 4), seed=_WHITEN_SEED_CH37)

    def preamble_waveform(self) -> np.ndarray:
        """Waveform of the 1-byte alternating preamble."""
        return self._wave(bytes_to_bits(_PREAMBLE, msb_first=False))

    def sync_waveform(self) -> np.ndarray:
        """Waveform of preamble + access address."""
        return self._wave(
            bytes_to_bits(_PREAMBLE + _ACCESS_ADDRESS, msb_first=False)
        )

    def modulate(self, payload: bytes) -> np.ndarray:
        payload = bytes(payload)
        if len(payload) > self.max_payload:
            raise ConfigurationError(
                f"payload of {len(payload)} exceeds {self.max_payload} bytes"
            )
        pdu = bytes([0x02, len(payload)]) + payload  # ADV_NONCONN_IND
        body = self._whitener().whiten_bytes(_CRC24.append(pdu))
        bits = np.concatenate(
            [
                bytes_to_bits(_PREAMBLE + _ACCESS_ADDRESS, msb_first=False),
                bytes_to_bits(body, msb_first=False),
            ]
        )
        return self._wave(bits)

    # -- demodulation ------------------------------------------------------

    def demodulate(self, iq: np.ndarray) -> FrameResult:
        iq = np.asarray(iq, dtype=np.complex128)
        start, score = sample_sync_strided(
            iq,
            self.sync_reference(),
            self._threshold,
            block=4 * self._sps,
            stride=max(self._sps // 4, 1),
        )
        # Frame-sized slice: bound the discriminator's filtering work.
        bound = 8 * (5 + 2 + self.max_payload + 3) * self._sps + self._sps
        iq = iq[start : start + bound]
        frame_start, start = start, 0
        # One discriminator pass over the bound slice feeds both the
        # header read and the full-body read.
        track = fsk_frequency_track(iq, self.sample_rate, self._sps, self.bandwidth)
        body_at = start + 8 * (len(_PREAMBLE) + len(_ACCESS_ADDRESS)) * self._sps
        head_bits = fsk_demodulate_bits(
            iq, body_at, 16, self._sps, self.sample_rate,
            bandwidth_hz=self.bandwidth, track=track,
        )
        header = self._whitener().whiten_bytes(
            bits_to_bytes(head_bits, msb_first=False)
        )
        length = header[1]
        if length > self.max_payload:
            raise ChecksumError(f"implausible BLE PDU length {length}")
        total = 2 + length + 3  # header + payload + CRC24
        body_bits = fsk_demodulate_bits(
            iq, body_at, 8 * total, self._sps, self.sample_rate,
            bandwidth_hz=self.bandwidth, track=track,
        )
        body = self._whitener().whiten_bytes(
            bits_to_bytes(body_bits, msb_first=False)
        )
        crc_ok = _CRC24.check(body)
        return FrameResult(
            payload=body[2:-3],
            crc_ok=crc_ok,
            start=frame_start,
            sync_score=score,
            extra={"pdu_type": body[0], "length": length},
        )
