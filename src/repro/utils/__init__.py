"""Bit-level substrates: packing, CRCs, whitening, Gray code, FEC,
interleaving.

These modules are dependency-free (numpy only) and shared by every PHY
implementation in :mod:`repro.phy`.
"""

from .bits import (
    as_bit_array,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    bytes_to_nibbles,
    int_to_bits,
    nibbles_to_bytes,
)
from .crc import CRC8_ATM, CRC16_CCITT, CRC16_CCITT_FALSE, CrcEngine, xor_checksum
from .gray import gray_decode, gray_decode_array, gray_encode, gray_encode_array
from .hamming import DecodedNibble, HammingCodec
from .interleaver import LoraDiagonalInterleaver
from .whitening import LfsrWhitener, LoraWhitener, Pn9Whitener

__all__ = [
    "as_bit_array",
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "bytes_to_nibbles",
    "int_to_bits",
    "nibbles_to_bytes",
    "CrcEngine",
    "CRC16_CCITT",
    "CRC16_CCITT_FALSE",
    "CRC8_ATM",
    "xor_checksum",
    "gray_encode",
    "gray_decode",
    "gray_encode_array",
    "gray_decode_array",
    "HammingCodec",
    "DecodedNibble",
    "LoraDiagonalInterleaver",
    "LfsrWhitener",
    "Pn9Whitener",
    "LoraWhitener",
]
