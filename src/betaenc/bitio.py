"""Bit/word conventions and the packed bit-stream file format.

Words are ints read MSB-first: a word w of length n stands for the bits
(b_1 .. b_n) with b_1 the most significant.  Bit files carry an 8-byte
little-endian bit count followed by the bits packed MSB-first into bytes;
a file with trailing bytes or nonzero padding bits is rejected on read.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError


def bits_to_word(bits: Sequence[int]) -> int:
    w = 0
    for b in bits:
        if b not in (0, 1):
            raise DomainError(f"bits must be 0 or 1, got {b!r}")
        w = (w << 1) | int(b)  # a numpy uint8 bit would keep w in 8 bits
    return w


def word_to_bits(word: int, n: int) -> tuple:
    if word < 0 or word >> n:
        raise DomainError(f"word {word} does not fit in {n} bits")
    return tuple((word >> (n - 1 - i)) & 1 for i in range(n))


def word_to_str(word: int, n: int) -> str:
    return format(word, f"0{n}b") if n else ""


def as_bit_array(bits) -> np.ndarray:
    """A one-dimensional uint8 array of 0/1 values, or DomainError."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise DomainError("bit stream must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise DomainError("bit stream contains non-bits")
    return arr


def pack_bits(bits: Sequence[int]) -> bytes:
    arr = as_bit_array(bits)
    header = int(arr.size).to_bytes(8, "little")
    return header + np.packbits(arr).tobytes()


def unpack_bits(blob: bytes) -> np.ndarray:
    if len(blob) < 8:
        raise DomainError("bit file too short for its header")
    count = int.from_bytes(blob[:8], "little")
    body = np.frombuffer(blob[8:], dtype=np.uint8)
    n_bytes = (count + 7) // 8
    if body.size < n_bytes:
        raise DomainError("bit file truncated")
    if body.size > n_bytes:
        raise DomainError(f"bit file has {body.size - n_bytes} trailing bytes")
    if count % 8 and body[-1] & (0xFF >> (count % 8)):
        raise DomainError("bit file has nonzero padding bits")
    return np.unpackbits(body)[:count]


def write_bit_file(path, bits) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_bits(bits))


def read_bit_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return unpack_bits(fh.read())
