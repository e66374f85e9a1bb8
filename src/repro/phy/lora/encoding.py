"""LoRa bit-level encode/decode chain.

The on-air chain (mirrored exactly on receive) is:

    body = [len, ~len] + payload + CRC16(payload)
    -> LFSR whitening
    -> 4-bit nibbles (high nibble first)
    -> zero-nibble padding to a whole interleaver block (SF nibbles)
    -> Hamming(4, 4+CR) per nibble
    -> diagonal interleaving (SF codewords -> 4+CR on-air symbols)
    -> Gray *decoding* of each SF-bit group into the chirp index

Gray decoding at the transmitter means the receiver applies Gray
*encoding* to the demodulated FFT bin, so the dominant error event — an
off-by-one bin — lands as a single bit error that the Hamming code
repairs.

Header note: real LoRa sends an explicit header in a reduced-rate first
block; this implementation uses a simplified 2-byte header ([length,
length XOR 0xFF]) encoded at the payload coding rate. The simplification
is documented in DESIGN.md and does not affect any experiment: all
figures depend on chirp-domain behaviour, not header format.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import ChecksumError, ConfigurationError
from ...utils.bits import (
    bits_to_int,
    bytes_to_nibbles,
    int_to_bits,
    nibbles_to_bytes,
)
from ...utils.crc import CRC16_CCITT
from ...utils.gray import gray_decode_array, gray_encode_array
from ...utils.hamming import HammingCodec
from ...utils.interleaver import LoraDiagonalInterleaver
from ...utils.whitening import LoraWhitener

__all__ = [
    "HEADER_BYTES",
    "encode_to_symbols",
    "decode_header",
    "symbols_for_body",
    "blocks_for_body",
    "decode_symbols",
]

HEADER_BYTES = 2


def _chain(sf: int, cr: int) -> tuple[HammingCodec, LoraDiagonalInterleaver]:
    return HammingCodec(cr), LoraDiagonalInterleaver(sf, cr)


def blocks_for_body(body_len: int, sf: int) -> int:
    """Interleaver blocks needed for ``body_len`` bytes (2 nibbles each)."""
    n_nibbles = 2 * body_len
    return math.ceil(n_nibbles / sf)


def symbols_for_body(body_len: int, sf: int, cr: int) -> int:
    """On-air data symbols for a whitened body of ``body_len`` bytes."""
    return blocks_for_body(body_len, sf) * (4 + cr)


def encode_to_symbols(payload: bytes, sf: int, cr: int) -> np.ndarray:
    """Run the full transmit chain; returns chirp indices (0..2**sf-1).

    Raises:
        ConfigurationError: for payloads longer than 255 bytes.
    """
    payload = bytes(payload)
    if len(payload) > 255:
        raise ConfigurationError("LoRa payload must be at most 255 bytes")
    hamming, interleaver = _chain(sf, cr)
    header = bytes([len(payload), len(payload) ^ 0xFF])
    body = header + CRC16_CCITT.append(payload)
    white = LoraWhitener().whiten_bytes(body)
    nibbles = bytes_to_nibbles(white).tolist()
    while len(nibbles) % sf:
        nibbles.append(0)
    codeword_bits = hamming.encode_nibbles(np.array(nibbles, dtype=np.uint8))
    interleaved = interleaver.interleave(codeword_bits)
    groups = interleaved.reshape(-1, sf)
    values = np.array([bits_to_int(g) for g in groups], dtype=int)
    return gray_decode_array(values)


def _symbols_to_nibbles(
    symbols: np.ndarray, sf: int, cr: int
) -> tuple[np.ndarray, int, int]:
    """Inverse of the interleave/Hamming stages; returns nibbles + FEC stats."""
    hamming, interleaver = _chain(sf, cr)
    values = gray_encode_array(np.asarray(symbols, dtype=int))
    bits = np.concatenate([int_to_bits(int(v), sf) for v in values])
    deinterleaved = interleaver.deinterleave(bits)
    return hamming.decode_bits(deinterleaved)


def decode_header(
    first_block_symbols: np.ndarray, sf: int, cr: int
) -> int:
    """Recover the payload length from the first interleaver block.

    Raises:
        ChecksumError: when the redundant length check fails.
        ConfigurationError: when the wrong number of symbols is passed.
    """
    if len(first_block_symbols) != 4 + cr:
        raise ConfigurationError("first block must contain 4 + cr symbols")
    nibbles, _, _ = _symbols_to_nibbles(first_block_symbols, sf, cr)
    white = nibbles_to_bytes(nibbles[: 2 * (len(nibbles) // 2)])
    header = LoraWhitener().whiten_bytes(white)[:HEADER_BYTES]
    length, check = header[0], header[1]
    if length ^ check != 0xFF:
        raise ChecksumError("LoRa header length check failed")
    return length


def decode_symbols(
    symbols: np.ndarray, sf: int, cr: int
) -> tuple[bytes, bool, int, int]:
    """Run the full receive chain over all data symbols of a frame.

    Returns:
        ``(payload, crc_ok, corrected, uncorrectable)``.

    Raises:
        ChecksumError: when the header length check fails.
        ConfigurationError: when the symbol count is not whole blocks.
    """
    arr = np.asarray(symbols, dtype=int)
    if arr.size % (4 + cr):
        raise ConfigurationError("symbol count must be a multiple of 4 + cr")
    nibbles, corrected, uncorrectable = _symbols_to_nibbles(arr, sf, cr)
    white = nibbles_to_bytes(nibbles[: 2 * (len(nibbles) // 2)])
    body = LoraWhitener().whiten_bytes(white)
    length, check = body[0], body[1]
    if length ^ check != 0xFF:
        raise ChecksumError("LoRa header length check failed")
    frame = body[HEADER_BYTES : HEADER_BYTES + length + 2]
    if len(frame) < length + 2:
        raise ChecksumError("frame truncated relative to header length")
    crc_ok = CRC16_CCITT.check(frame)
    return frame[:-2], crc_ok, corrected, uncorrectable
