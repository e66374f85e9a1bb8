"""802.15.4 O-QPSK DSSS modem (2.4 GHz PHY).

This is the "orthogonal codes" technology class of the paper's Table 1
(Thread / WirelessHART / Weightless all ride this PHY). Each 4-bit
symbol is spread to one of 16 near-orthogonal 32-chip sequences; chips
are half-sine O-QPSK at 2 Mchip/s. Frame layout per 802.15.4:

    preamble (4 x 0x00 = 8 zero symbols) | SFD 0xA7 | PHR (1) | PSDU

with the PSDU being payload + CRC-16. Bits map to symbols LSB-first
(low nibble first), as in the standard.

The modem performs carrier-phase correction from the sync correlation
before slicing chips, since O-QPSK (unlike the FSK/DBPSK modems) is
phase-coherent.
"""

from __future__ import annotations

import numpy as np

from ...errors import ChecksumError, ConfigurationError
from ...phy.base import FrameResult, Modem, ModulationClass
from ...phy.dsss import (
    bits_to_symbols,
    chips_to_oqpsk,
    despread_chips,
    oqpsk_to_chips,
    spread_symbols,
    symbols_to_bits,
)
from ...phy.frames import checked_sync_threshold, sample_sync
from ...utils.bits import bits_to_bytes, bytes_to_bits
from ...utils.crc import CRC16_CCITT

__all__ = ["OQpsk154Modem"]

_PREAMBLE = bytes(4)  # four zero bytes -> eight zero symbols
_SFD = bytes([0xA7])
_CHIPS_PER_SYMBOL = 32


class OQpsk154Modem(Modem):
    """802.15.4 O-QPSK DSSS modem.

    Args:
        chip_rate: Chips per second (2 Mchip/s standard).
        sps: Samples per chip (even, >= 2).
        sync_threshold: Normalized correlation needed to declare sync.
    """

    name = "oqpsk154"
    modulation = ModulationClass.DSSS

    def __init__(
        self,
        chip_rate: float = 2e6,
        sps: int = 2,
        sync_threshold: float = 0.35,
    ):
        if sps < 2 or sps % 2:
            raise ConfigurationError("sps must be an even integer >= 2")
        self._chip_rate = float(chip_rate)
        self._sps = int(sps)
        self._threshold = checked_sync_threshold(sync_threshold)

    @property
    def sample_rate(self) -> float:
        return self._chip_rate * self._sps

    @property
    def bandwidth(self) -> float:
        # Half-sine O-QPSK main lobe: ~1.5 x chip rate; use the standard
        # 2 MHz channel width at 2 Mchip/s.
        return self._chip_rate

    @property
    def bit_rate(self) -> float:
        # 4 bits per 32 chips.
        return self._chip_rate * 4 / _CHIPS_PER_SYMBOL

    @property
    def sps(self) -> int:
        """Samples per chip at the native rate."""
        return self._sps

    @property
    def max_payload(self) -> int:
        return 125

    # -- waveforms ------------------------------------------------------------

    def _frame_chips(self, payload: bytes) -> np.ndarray:
        psdu = CRC16_CCITT.append(payload)
        phr = bytes([len(psdu)])
        frame_bits = bytes_to_bits(_PREAMBLE + _SFD + phr + psdu, msb_first=False)
        return spread_symbols(bits_to_symbols(frame_bits))

    def _prefix_chips(self) -> np.ndarray:
        bits = bytes_to_bits(_PREAMBLE + _SFD, msb_first=False)
        return spread_symbols(bits_to_symbols(bits))

    def preamble_waveform(self) -> np.ndarray:
        """Waveform of the 8 zero-symbol preamble."""
        bits = bytes_to_bits(_PREAMBLE, msb_first=False)
        return chips_to_oqpsk(spread_symbols(bits_to_symbols(bits)), self._sps)

    def sync_waveform(self) -> np.ndarray:
        """Waveform of preamble + SFD."""
        return chips_to_oqpsk(self._prefix_chips(), self._sps)

    def modulate(self, payload: bytes) -> np.ndarray:
        payload = bytes(payload)
        if len(payload) > self.max_payload:
            raise ConfigurationError(
                f"payload of {len(payload)} exceeds {self.max_payload} bytes"
            )
        return chips_to_oqpsk(self._frame_chips(payload), self._sps)

    # -- demodulation ---------------------------------------------------------------

    def _derotate(self, iq: np.ndarray, start: int) -> np.ndarray:
        """Correct the carrier phase using the known sync waveform."""
        ref = self.sync_reference()
        window = iq[start : start + len(ref)]
        if len(window) < len(ref):
            return iq
        corr = complex(np.vdot(ref, window))
        if abs(corr) == 0:
            return iq
        return iq * np.exp(-1j * np.angle(corr))

    def _read_symbols(
        self, iq: np.ndarray, chips_at: int, n_symbols: int
    ) -> tuple[np.ndarray, int]:
        n_chips = n_symbols * _CHIPS_PER_SYMBOL
        seg = iq[chips_at:]
        needed = n_chips * self._sps + self._sps  # + half-chip Q tail
        if len(seg) < needed:
            raise ChecksumError("segment too short for the 802.15.4 frame")
        chips = oqpsk_to_chips(seg, n_chips, self._sps)
        symbols, dists = despread_chips(chips)
        return symbols, int(dists.sum())

    def demodulate(self, iq: np.ndarray) -> FrameResult:
        iq = np.asarray(iq, dtype=np.complex128)
        start, score = sample_sync(iq, self.sync_reference(), self._threshold)
        iq = self._derotate(iq, start)
        prefix_symbols = len(self._prefix_chips()) // _CHIPS_PER_SYMBOL
        phr_at = start + prefix_symbols * _CHIPS_PER_SYMBOL * self._sps
        phr_symbols, _ = self._read_symbols(iq, phr_at, 2)
        psdu_len = int(bits_to_bytes(symbols_to_bits(phr_symbols), msb_first=False)[0])
        if psdu_len < 2 or psdu_len > self.max_payload + 2:
            raise ChecksumError(f"implausible PHR length {psdu_len}")
        psdu_at = phr_at + 2 * _CHIPS_PER_SYMBOL * self._sps
        psdu_symbols, chip_errors = self._read_symbols(iq, psdu_at, psdu_len * 2)
        psdu = bits_to_bytes(symbols_to_bits(psdu_symbols), msb_first=False)
        crc_ok = CRC16_CCITT.check(psdu)
        return FrameResult(
            payload=psdu[:-2],
            crc_ok=crc_ok,
            start=start,
            sync_score=score,
            extra={"chip_errors": chip_errors, "psdu_len": psdu_len},
        )
