"""Gray coding.

LoRa maps the FFT-demodulated chirp index through a Gray code so that the
most likely symbol errors (off-by-one bin, caused by noise or sampling
offset) corrupt only a single bit, which the Hamming FEC can then repair.
Both scalar and vectorized forms are provided.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError

__all__ = ["gray_encode", "gray_decode", "gray_encode_array", "gray_decode_array"]


def gray_encode(value: int) -> int:
    """Binary-reflected Gray code of a non-negative integer."""
    if value < 0:
        raise ConfigurationError("gray_encode requires a non-negative integer")
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_encode`."""
    if code < 0:
        raise ConfigurationError("gray_decode requires a non-negative integer")
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def gray_encode_array(values: npt.ArrayLike) -> np.ndarray:
    """Vectorized :func:`gray_encode` over an integer array."""
    arr = np.asarray(values)
    if arr.size and int(arr.min()) < 0:
        raise ConfigurationError("gray_encode_array requires non-negative integers")
    return arr ^ (arr >> 1)


def gray_decode_array(codes: npt.ArrayLike) -> np.ndarray:
    """Vectorized :func:`gray_decode` over an integer array."""
    arr = np.asarray(codes)
    if arr.size and int(arr.min()) < 0:
        raise ConfigurationError("gray_decode_array requires non-negative integers")
    out = arr.copy()
    shifted = arr >> 1
    while np.any(shifted):
        out ^= shifted
        shifted >>= 1
    return out
