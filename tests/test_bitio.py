import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from betaenc.bitio import (
    bits_to_word,
    pack_bits,
    read_bit_file,
    unpack_bits,
    word_to_bits,
    word_to_str,
    write_bit_file,
)
from betaenc.errors import DomainError

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300)


def test_word_round_trip_msb_first():
    assert bits_to_word((1, 0, 1)) == 5
    assert word_to_bits(5, 3) == (1, 0, 1)
    assert word_to_bits(5, 5) == (0, 0, 1, 0, 1)
    assert word_to_str(5, 4) == "0101"
    assert oracles.str_to_bits("0101") == (0, 1, 0, 1)
    assert oracles.bits_to_str((1, 1, 0)) == "110"


def test_bits_to_word_on_numpy_bits():
    assert bits_to_word(np.ones(12, dtype=np.uint8)) == 4095
    assert bits_to_word(np.array([1, 0, 1], dtype=np.uint8)) == 5
    with pytest.raises(DomainError):
        bits_to_word(np.array([1, 2], dtype=np.uint8))


def test_word_to_bits_rejects_overflow():
    with pytest.raises(DomainError):
        word_to_bits(8, 3)
    with pytest.raises(DomainError):
        word_to_bits(-1, 3)


def test_str_to_bits_rejects_junk():
    with pytest.raises(ValueError):
        oracles.str_to_bits("01x1")


@given(bit_lists)
def test_pack_unpack_round_trip(bits):
    blob = pack_bits(bits)
    # 8-byte little-endian bit count, then packed payload
    assert int.from_bytes(blob[:8], "little") == len(bits)
    assert len(blob) == 8 + (len(bits) + 7) // 8
    back = unpack_bits(blob)
    assert back.dtype == np.uint8
    assert list(back) == bits


def test_unpack_rejects_truncation_and_garbage():
    blob = pack_bits([1, 0, 1, 1, 0, 0, 1, 0, 1])
    with pytest.raises(DomainError):
        unpack_bits(blob[:-1])
    with pytest.raises(DomainError):
        unpack_bits(blob[:4])
    # header promising more bits than the payload holds
    bad = (100).to_bytes(8, "little") + b"\x00"
    with pytest.raises(DomainError):
        unpack_bits(bad)


def test_unpack_rejects_trailing_bytes():
    with pytest.raises(DomainError, match="trailing"):
        unpack_bits(pack_bits([1, 0, 1]) + b"\xff")
    with pytest.raises(DomainError, match="trailing"):
        unpack_bits(pack_bits([1] * 8) + b"\x00")
    with pytest.raises(DomainError, match="trailing"):
        unpack_bits(pack_bits([]) + b"\x00")


def test_unpack_rejects_nonzero_padding():
    blob = pack_bits([1, 0, 1])
    for pad in (0x01, 0x10, 0x1F):
        with pytest.raises(DomainError, match="padding"):
            unpack_bits(blob[:-1] + bytes([blob[-1] | pad]))
    # a full last byte has no padding to check
    assert list(unpack_bits(pack_bits([1] * 8))) == [1] * 8


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for n in (1, 7, 8, 9, 4096):
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        path = tmp_path / f"bits_{n}.bin"
        write_bit_file(path, bits)
        assert np.array_equal(read_bit_file(path), bits)


def test_empty_stream_round_trip():
    assert list(unpack_bits(pack_bits([]))) == []
