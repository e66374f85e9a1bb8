"""Cyclic redundancy checks used by the implemented IoT PHY layers.

A single table-driven :class:`CrcEngine` covers every polynomial in the
package; the concrete variants used by each technology are exposed as
module-level singletons:

* :data:`CRC16_CCITT` — LoRa payload CRC and XBee/802.15.4-SUN FCS
  (poly 0x1021, init 0x0000, no reflection).
* :data:`CRC16_CCITT_FALSE` — init 0xFFFF variant, used for the LoRa
  explicit-header CRC in some stacks.
* :data:`CRC8_ATM` — BLE-style header check (poly 0x07).

Z-Wave's simple XOR checksum (:func:`xor_checksum`) is kept as a plain
function because it is not a CRC.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigurationError

__all__ = [
    "CrcEngine",
    "CRC16_CCITT",
    "CRC16_CCITT_FALSE",
    "CRC8_ATM",
    "xor_checksum",
]


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@dataclass(frozen=True)
class CrcEngine:
    """Table-driven CRC with the classic Rocksoft parameter model.

    Attributes:
        width: CRC width in bits (8 or 16 here, any value <= 32 works).
        poly: Generator polynomial (normal representation).
        init: Initial register value.
        xor_out: Value XOR-ed into the register after processing.
        reflect_in: Whether each input byte is bit-reflected.
        reflect_out: Whether the final register is bit-reflected.
    """

    width: int
    poly: int
    init: int = 0
    xor_out: int = 0
    reflect_in: bool = False
    reflect_out: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 32:
            raise ConfigurationError("CRC width must be in 1..32")

    @property
    def _mask(self) -> int:
        return (1 << self.width) - 1

    @lru_cache(maxsize=None)
    def _table(self) -> tuple[int, ...]:
        top = 1 << (self.width - 1)
        table = []
        for byte in range(256):
            reg = byte << (self.width - 8) if self.width >= 8 else byte
            for _ in range(8):
                if reg & top:
                    reg = ((reg << 1) ^ self.poly) & self._mask
                else:
                    reg = (reg << 1) & self._mask
            table.append(reg)
        return tuple(table)

    def compute(self, data: bytes) -> int:
        """CRC of ``data`` as an unsigned integer."""
        table = self._table()
        reg = self.init & self._mask
        for byte in bytes(data):
            if self.reflect_in:
                byte = _reflect(byte, 8)
            if self.width >= 8:
                idx = ((reg >> (self.width - 8)) ^ byte) & 0xFF
                reg = ((reg << 8) ^ table[idx]) & self._mask
            else:
                for bit in range(7, -1, -1):
                    in_bit = (byte >> bit) & 1
                    top = (reg >> (self.width - 1)) & 1
                    reg = ((reg << 1) & self._mask)
                    if top ^ in_bit:
                        reg ^= self.poly & self._mask
        if self.reflect_out:
            reg = _reflect(reg, self.width)
        return reg ^ self.xor_out

    def append(self, data: bytes) -> bytes:
        """Return ``data`` with its big-endian CRC appended."""
        crc = self.compute(data)
        n = (self.width + 7) // 8
        return bytes(data) + crc.to_bytes(n, "big")

    def check(self, data_with_crc: bytes) -> bool:
        """Validate a buffer produced by :meth:`append`."""
        n = (self.width + 7) // 8
        if len(data_with_crc) < n:
            return False
        body, trailer = data_with_crc[:-n], data_with_crc[-n:]
        return self.compute(body) == int.from_bytes(trailer, "big")


CRC16_CCITT = CrcEngine(width=16, poly=0x1021, init=0x0000)
CRC16_CCITT_FALSE = CrcEngine(width=16, poly=0x1021, init=0xFFFF)
CRC8_ATM = CrcEngine(width=8, poly=0x07)


def xor_checksum(data: bytes, init: int = 0xFF) -> int:
    """Z-Wave (ITU-T G.9959) frame checksum: XOR of all bytes, seed 0xFF."""
    reg = init
    for byte in bytes(data):
        reg ^= byte
    return reg & 0xFF
