"""Z-Wave modem: ITU-T G.9959 profiles R1 / R2 / R3.

Frame layout (simplified MPDU, shared by all profiles):

    preamble (n x 0x55) | SOF 0xF0 | MPDU

    MPDU = home_id (4) | src (1) | frame_ctrl (2) | length (1) |
           dst (1) | payload (n) | checksum (1)

``length`` counts the whole MPDU including the checksum; the checksum is
the XOR of all preceding MPDU bytes seeded with 0xFF. Bits go MSB first.

Profiles (G.9959 data-rate classes):

=======  =========  ==========  ===========  ==========
profile  bit rate   deviation   line coding  default sps
=======  =========  ==========  ===========  ==========
R1       9.6 kb/s   ±20 kHz     Manchester   52 (x2 half-bits)
R2       40 kb/s    ±20 kHz     NRZ          25
R3       100 kb/s   ±29 kHz     NRZ          10
=======  =========  ==========  ===========  ==========

R1's Manchester coding doubles the on-air symbol rate; the modem
transparently encodes/decodes it.
"""

from __future__ import annotations

import numpy as np

from ...errors import ChecksumError, ConfigurationError
from ...phy.base import FrameResult, Modem, ModulationClass
from ...phy.frames import sample_sync_strided
from ...phy.fsk import (
    fsk_demodulate_bits,
    fsk_frequency_track,
    fsk_modulate,
    track_margin,
)
from ...utils.bits import as_bit_array, bits_to_bytes, bits_to_int, bytes_to_bits
from ...utils.crc import xor_checksum
from ...utils.line_coding import manchester_decode, manchester_encode

__all__ = ["ZWaveModem", "ZWAVE_PROFILES"]

_SOF = 0xF0
_MPDU_OVERHEAD = 4 + 1 + 2 + 1 + 1 + 1  # home, src, fc, length, dst, checksum

#: G.9959 data-rate profiles: rate, deviation, Manchester?, default sps
#: (sps counts samples per *half-bit* for Manchester profiles).
ZWAVE_PROFILES = {
    "R1": {"bit_rate": 9.6e3, "deviation_hz": 20e3, "manchester": True, "sps": 52},
    "R2": {"bit_rate": 40e3, "deviation_hz": 20e3, "manchester": False, "sps": 25},
    "R3": {"bit_rate": 100e3, "deviation_hz": 29e3, "manchester": False, "sps": 10},
}


class ZWaveModem(Modem):
    """G.9959 BFSK modem (profiles R1/R2/R3).

    Args:
        profile: ``"R1"``, ``"R2"`` (default) or ``"R3"``; sets rate,
            deviation and line coding. Explicit keyword arguments
            override the profile's values.
        bit_rate: On-air *data* rate (before Manchester expansion).
        sps: Samples per on-air symbol (per half-bit for R1).
        deviation_hz: Peak frequency deviation.
        preamble_bytes: Number of 0x55 preamble bytes (>= 10 per spec).
        home_id: 4-byte network identifier placed in every frame.
        sync_threshold: Normalized correlation needed to declare sync.
    """

    name = "zwave"
    modulation = ModulationClass.FSK

    def __init__(
        self,
        profile: str = "R2",
        bit_rate: float | None = None,
        sps: int | None = None,
        deviation_hz: float | None = None,
        preamble_bytes: int = 10,
        home_id: bytes = b"\xde\xad\xbe\xef",
        src: int = 0x01,
        dst: int = 0x02,
        sync_threshold: float = 0.35,
    ):
        if profile not in ZWAVE_PROFILES:
            raise ConfigurationError(f"unknown G.9959 profile {profile!r}")
        defaults = ZWAVE_PROFILES[profile]
        bit_rate = defaults["bit_rate"] if bit_rate is None else bit_rate
        sps = defaults["sps"] if sps is None else sps
        deviation_hz = (
            defaults["deviation_hz"] if deviation_hz is None else deviation_hz
        )
        if sps < 2:
            raise ConfigurationError("sps must be >= 2")
        if preamble_bytes < 2:
            raise ConfigurationError("preamble must be at least 2 bytes")
        if len(home_id) != 4:
            raise ConfigurationError("home_id must be 4 bytes")
        self.profile = profile
        self._manchester = bool(defaults["manchester"])
        self._bit_rate = float(bit_rate)
        self._sps = int(sps)
        self._deviation = float(deviation_hz)
        self._preamble = bytes([0x55] * preamble_bytes)
        self._home_id = bytes(home_id)
        self._src = int(src) & 0xFF
        self._dst = int(dst) & 0xFF
        self._threshold = float(sync_threshold)

    # -- characteristics ---------------------------------------------------

    @property
    def _symbol_rate(self) -> float:
        """On-air symbol rate (half-bits for Manchester profiles)."""
        return self._bit_rate * (2 if self._manchester else 1)

    @property
    def sample_rate(self) -> float:
        return self._symbol_rate * self._sps

    @property
    def bandwidth(self) -> float:
        return 2 * (self._deviation + self._symbol_rate / 2)

    @property
    def bit_rate(self) -> float:
        return self._bit_rate

    @property
    def sps(self) -> int:
        """Samples per on-air symbol at the native rate."""
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

    def _line_encode(self, bits) -> np.ndarray:
        return manchester_encode(bits) if self._manchester else as_bit_array(bits)

    def _wave(self, bits) -> np.ndarray:
        return fsk_modulate(
            self._line_encode(bits),
            self._sps,
            self._deviation,
            self.sample_rate,
            bt=None,
        )

    def _read_bits(
        self,
        iq: np.ndarray,
        at: int,
        n_bits: int,
        cfo: float,
        track: np.ndarray,
    ) -> np.ndarray:
        """Demodulate ``n_bits`` data bits starting at sample ``at``."""
        n_symbols = 2 * n_bits if self._manchester else n_bits
        symbols = fsk_demodulate_bits(
            iq, at, n_symbols, self._sps, self.sample_rate,
            threshold_hz=cfo, bandwidth_hz=self.bandwidth, track=track,
        )
        if self._manchester:
            bits, _violations = manchester_decode(symbols)
            return bits
        return symbols

    def _data_samples(self, n_bits: int) -> int:
        """Samples occupied by ``n_bits`` data bits on air."""
        factor = 2 if self._manchester else 1
        return n_bits * factor * self._sps

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
        window = track[start : start + self._data_samples(8 * len(self._preamble))]
        return float(np.mean(window)) if len(window) else 0.0

    def demodulate(self, iq: np.ndarray) -> FrameResult:
        iq = np.asarray(iq, dtype=np.complex128)
        start, score = sample_sync_strided(
            iq,
            self.sync_reference(),
            self._threshold,
            block=2 * self._sps,
            stride=max(self._sps // 10, 1),
        )
        iq = iq[start:]
        margin = track_margin(self._sps)
        mpdu_at = self._data_samples(8 * (len(self._preamble) + 1))
        # Two discriminator passes, each over only what its reads need:
        # the header track (through the length field) feeds the CFO
        # estimate and the length read, and the frame track, sized by
        # that length, feeds the MPDU read.
        fixed = 4 + 1 + 2 + 1  # home + src + fc + length
        head = iq[: mpdu_at + self._data_samples(8 * fixed) + margin]
        head_track = fsk_frequency_track(
            head, self.sample_rate, self._sps, self.bandwidth
        )
        cfo = self._estimate_cfo(head_track, 0)
        head_bits = self._read_bits(head, mpdu_at, 8 * fixed, cfo, head_track)
        length = bits_to_int(head_bits[-8:])
        if length < _MPDU_OVERHEAD or length > 255:
            raise ChecksumError(f"implausible MPDU length {length}")
        frame = iq[: mpdu_at + self._data_samples(8 * length) + margin]
        frame_track = fsk_frequency_track(
            frame, self.sample_rate, self._sps, self.bandwidth
        )
        mpdu_bits = self._read_bits(frame, mpdu_at, 8 * length, cfo, frame_track)
        mpdu = bits_to_bytes(mpdu_bits)
        crc_ok = xor_checksum(mpdu[:-1]) == mpdu[-1]
        payload = mpdu[fixed + 1 : -1]
        return FrameResult(
            payload=payload,
            crc_ok=crc_ok,
            start=start,
            sync_score=score,
            extra={"home_id": mpdu[:4], "length": length},
        )
