"""Deterministic splittable PRNG used for every seeded draw in the package.

SplitMix64 (the Steele/Lea/Flood finalizer over a Weyl sequence).  A
hand-pinned generator is used instead of an external one so that the byte
stream depends on this module alone: the same seed yields the same realized
sequence on every platform and library version.  The identifier below is
recorded in traces and manifests so runs can name the stream they used.

Splitting is pure: ``derive`` computes a child key from the parent key and a
label path without consuming any output, so per-sample substreams do not
depend on draw order or worker scheduling.  Both the keys and the draws are
pure functions of (key, counter), so ``derive_array``, ``derive_keys`` and
``odd_numerator_rows`` compute many substreams' keys and first draws with
one set of uint64 array operations, giving the scalar path's values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

PRNG_ID = "splitmix64/v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` on every element of a uint64 array (arithmetic wraps mod 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _counter_words(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """(len(keys), count) array: words start+1 .. start+count of each key's stream."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_array(keys[:, None] + idx * np.uint64(_GAMMA))


def _label_chunks(label) -> list:
    # Type/length prefixes keep distinct label paths from colliding.
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous")
    if isinstance(label, int):
        if label < 0:
            raise ValueError("labels must be nonnegative")
        chunks = [1]
        value = label
        while True:
            chunks.append(value & _MASK64)
            value >>= 64
            if value == 0:
                return chunks
    if isinstance(label, str):
        data = label.encode("utf-8")
        chunks = [2, len(data)]
        for i in range(0, len(data), 8):
            chunks.append(int.from_bytes(data[i : i + 8], "little"))
        return chunks
    raise TypeError(f"unsupported label type: {type(label)!r}")


@lru_cache(maxsize=64, typed=True)
def _premixed(label) -> tuple:
    """Mixed chunks of one label; typed, so a bool never gets its int's entry."""
    return tuple(map(_mix64, _label_chunks(label)))


def derive_keys(keys: np.ndarray, *labels) -> np.ndarray:
    """Keys of ``derive(*labels)`` for a uint64 array of stream keys."""
    for label in labels:
        for mixed in _premixed(label):
            keys = _mix64_array(keys ^ np.uint64(mixed))
    return keys


def words_per_draw(precision_bits: int) -> int:
    """Stream words one odd_dyadic(precision_bits) draw takes: ceil((P-1)/64)."""
    if precision_bits < 2:
        raise ValueError("need at least 2 precision bits")
    return -(-(precision_bits - 1) // 64)


# words per batch of odd_numerator_rows: 512 KiB, whatever the precision
_ROW_BLOCK_WORDS = 1 << 16


def odd_numerator_rows(keys: np.ndarray, precision_bits: int, count: int, start: int = 0):
    """Per key, ``odd_numerators(precision_bits, count)`` of its stream at counter `start`.

    Yields one list of ints per key, in order.  The words come in blocks of
    whole rows of at most ``_ROW_BLOCK_WORDS`` (or one row); up to 64
    bits a row is one ``tolist``, above that each draw's ceil((P-1)/64)
    words, least significant first, are one ``int.from_bytes``.
    """
    width = words_per_draw(precision_bits)
    bits = precision_bits - 1
    per_block = max(1, _ROW_BLOCK_WORDS // max(1, count * width))
    for lo in range(0, len(keys), per_block):
        words = _counter_words(keys[lo:lo + per_block], start, count * width)
        if precision_bits <= 64:
            words = (words & np.uint64((1 << bits) - 1)) << np.uint64(1) | np.uint64(1)
            for row in words:
                yield row.tolist()
            continue
        words = words.reshape(len(words), count, width)
        words[:, :, -1] &= np.uint64((1 << bits - 64 * (width - 1)) - 1)
        size = 8 * width
        for row in words:
            raw = row.astype("<u8").tobytes()
            yield [int.from_bytes(raw[i:i + size], "little") << 1 | 1
                   for i in range(0, len(raw), size)]


class SplitMix64:
    """Counter-mode SplitMix64 stream with pure label-based splitting."""

    __slots__ = ("root_seed", "path", "_key", "_counter")

    def __init__(self, seed: int, _path: tuple = (), _key: int | None = None,
                 _counter: int = 0):
        self.root_seed = seed & _MASK64
        self.path = _path
        self._key = self.root_seed if _key is None else (_key & _MASK64)
        self._counter = _counter

    def derive(self, *labels) -> "SplitMix64":
        """Child stream for a label path; independent of draws made so far."""
        key = self._key
        for label in labels:
            for mixed in _premixed(label):
                key = _mix64(key ^ mixed)
        child = SplitMix64(self.root_seed, self.path + tuple(labels), key)
        return child

    def derive_array(self, label, tags) -> np.ndarray:
        """Keys of ``derive(label, i)`` for each int tag i, as a uint64 array.

        A tag must lie in [0, 2**64): a larger one splits into several
        chunks on the scalar path, which this one-chunk batch does not do.
        """
        tags = list(tags)
        if any(type(t) is not int for t in tags):
            raise TypeError("tags must be ints")
        if tags and not (0 <= min(tags) and max(tags) <= _MASK64):
            raise ValueError("tags must lie in [0, 2**64)")
        # the label, then the type chunk every int label starts with; then
        # each tag's one value chunk
        key = _mix64(self.derive(label)._key ^ _premixed(0)[0])
        return _mix64_array(np.uint64(key) ^ _mix64_array(np.array(tags, dtype=np.uint64)))

    def describe(self) -> dict:
        return {
            "prng": PRNG_ID,
            "seed": self.root_seed,
            "path": list(self.path),
        }

    def next64(self) -> int:
        self._counter += 1
        return _mix64((self._key + self._counter * _GAMMA) & _MASK64)

    def next64_array(self, count: int) -> np.ndarray:
        """Vectorized continuation of the scalar stream (same values)."""
        words = _counter_words(np.array([self._key], dtype=np.uint64), self._counter, count)
        self._counter += count
        return words[0]

    def bits(self, k: int) -> int:
        """A uniform k-bit integer."""
        if k <= 0:
            raise ValueError("bit count must be positive")
        acc = 0
        for i in range(0, k, 64):
            acc |= self.next64() << i
        return acc & ((1 << k) - 1)

    def bit_array(self, count: int) -> np.ndarray:
        """`count` uniform bits as a uint8 array (vectorized stream)."""
        words = self.next64_array((count + 63) // 64)
        raw = words.astype(">u8").tobytes()
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:count]

    def uniform_fraction(self, precision_bits: int = 64) -> Fraction:
        """Uniform dyadic rational in [0, 1) with the given precision."""
        return Fraction(self.bits(precision_bits), 1 << precision_bits)

    def odd_dyadic(self, precision_bits: int) -> Fraction:
        """Uniform dyadic rational in (0, 1) whose numerator is odd.

        Full-depth numerators keep samples off every coarser dyadic grid,
        so no draw ever sits on a probed cell boundary.
        """
        return Fraction(self.odd_numerators(precision_bits, 1)[0], 1 << precision_bits)

    def odd_numerators(self, precision_bits: int, count: int) -> list:
        """Numerators of the next `count` odd_dyadic(precision_bits) draws.

        Each is 2*w + 1 with w = bits(precision_bits - 1), which takes
        ceil((P-1)/64) words; the batch is this stream's row of
        ``odd_numerator_rows``, in the order of `count` scalar draws.
        """
        (row,) = odd_numerator_rows(np.array([self._key], dtype=np.uint64),
                                    precision_bits, count, self._counter)
        self._counter += count * words_per_draw(precision_bits)
        return row

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        k = (n - 1).bit_length()
        if k == 0:
            return 0
        while True:
            r = self.bits(k)
            if r < n:
                return r

    def choose_weighted(self, weights) -> int:
        """Index drawn with the given rational weights (64-bit resolution)."""
        r = self.uniform_fraction(64)
        acc = Fraction(0)
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                return i
        return len(weights) - 1

    def sample_distinct(self, population: int, count: int) -> list:
        """`count` distinct ints from range(population), order-stable."""
        if count > population:
            raise ValueError("sample larger than population")
        chosen = set()
        out = []
        while len(out) < count:
            v = self.randbelow(population)
            if v not in chosen:
                chosen.add(v)
                out.append(v)
        return out
