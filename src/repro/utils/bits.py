"""Bit packing helpers.

All PHY layers in this package represent bit streams as one-dimensional
``numpy`` arrays of dtype ``uint8`` holding values 0/1. Byte order within a
byte is configurable because IoT standards disagree: 802.15.4 and Z-Wave
transmit most-significant bit first in some fields and least-significant
first in others, while LoRa works on 4-bit nibbles.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError

__all__ = [
    "bytes_to_bits",
    "bits_to_bytes",
    "int_to_bits",
    "bits_to_int",
    "nibbles_to_bytes",
    "bytes_to_nibbles",
    "as_bit_array",
]


def as_bit_array(bits: npt.ArrayLike) -> np.ndarray:
    """Coerce a sequence of 0/1 values into a uint8 bit array.

    Raises:
        ConfigurationError: if any element is not 0 or 1.
    """
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ConfigurationError("bit array may only contain 0 and 1")
    return arr


def bytes_to_bits(data: bytes, msb_first: bool = True) -> np.ndarray:
    """Expand ``data`` into a 0/1 uint8 array, 8 bits per byte."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    bits = np.unpackbits(arr)
    if not msb_first:
        bits = bits.reshape(-1, 8)[:, ::-1].ravel()
    return bits


def bits_to_bytes(bits: npt.ArrayLike, msb_first: bool = True) -> bytes:
    """Pack a 0/1 array into bytes. Length must be a multiple of 8.

    Raises:
        ConfigurationError: if ``len(bits)`` is not a multiple of 8.
    """
    arr = as_bit_array(bits)
    if arr.size % 8:
        raise ConfigurationError(f"bit count {arr.size} is not a multiple of 8")
    if not msb_first:
        arr = arr.reshape(-1, 8)[:, ::-1].ravel()
    return np.packbits(arr).tobytes()


def int_to_bits(value: int, width: int, msb_first: bool = True) -> np.ndarray:
    """Represent ``value`` as a fixed-width bit array.

    Raises:
        ConfigurationError: if ``value`` does not fit in ``width`` bits or is
            negative.
    """
    if width <= 0:
        raise ConfigurationError("width must be positive")
    if value < 0 or value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    bits = np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)
    if msb_first:
        bits = bits[::-1]
    return bits


def bits_to_int(bits: npt.ArrayLike, msb_first: bool = True) -> int:
    """Interpret a bit array as an unsigned integer."""
    arr = as_bit_array(bits)
    if not msb_first:
        arr = arr[::-1]
    value = 0
    for bit in arr:
        value = (value << 1) | int(bit)
    return value


def bytes_to_nibbles(data: bytes, high_first: bool = True) -> np.ndarray:
    """Split bytes into 4-bit nibbles (values 0..15)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    high = (arr >> 4).astype(np.uint8)
    low = (arr & 0x0F).astype(np.uint8)
    pair = (high, low) if high_first else (low, high)
    return np.stack(pair, axis=1).ravel()


def nibbles_to_bytes(nibbles: npt.ArrayLike, high_first: bool = True) -> bytes:
    """Join 4-bit nibbles (values 0..15) into bytes.

    Raises:
        ConfigurationError: if the count is odd or any value exceeds 15.
    """
    arr = np.asarray(nibbles, dtype=np.uint8).ravel()
    if arr.size % 2:
        raise ConfigurationError("nibble count must be even")
    if arr.size and arr.max() > 0x0F:
        raise ConfigurationError("nibble values must be in 0..15")
    pairs = arr.reshape(-1, 2)
    if high_first:
        joined = (pairs[:, 0] << 4) | pairs[:, 1]
    else:
        joined = (pairs[:, 1] << 4) | pairs[:, 0]
    return joined.astype(np.uint8).tobytes()
