"""Deterministic splittable PRNG used for every seeded draw in the package.

SplitMix64 (the Steele/Lea/Flood finalizer over a Weyl sequence).  A
hand-pinned generator is used instead of an external one so that the byte
stream depends on this module alone: the same seed yields the same realized
sequence on every platform and library version.  The identifier below is
recorded in traces and manifests so runs can name the stream they used.

Splitting is pure: ``derive`` computes a child key from the parent key and a
label path without consuming any output, so per-sample substreams do not
depend on draw order or worker scheduling.
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


class SplitMix64:
    """Counter-mode SplitMix64 stream with pure label-based splitting."""

    __slots__ = ("root_seed", "path", "_key", "_counter")

    def __init__(self, seed: int, _path: tuple = (), _key: int | None = None):
        self.root_seed = seed & _MASK64
        self.path = _path
        self._key = self.root_seed if _key is None else (_key & _MASK64)
        self._counter = 0

    def derive(self, *labels) -> "SplitMix64":
        """Child stream for a label path; independent of draws made so far."""
        key = self._key
        for label in labels:
            for mixed in _premixed(label):
                key = _mix64(key ^ mixed)
        child = SplitMix64(self.root_seed, self.path + tuple(labels), key)
        return child

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
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        z = (np.uint64(self._key) + idx * np.uint64(_GAMMA))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

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

        Each is 2*w + 1 with w = bits(precision_bits - 1), so up to 64
        precision bits a draw takes one word and the whole batch is one
        next64_array read, in the order of `count` scalar draws.
        """
        if precision_bits < 2:
            raise ValueError("need at least 2 precision bits")
        if precision_bits > 64:
            return [(self.bits(precision_bits - 1) << 1) | 1 for _ in range(count)]
        words = self.next64_array(count) & np.uint64((1 << precision_bits - 1) - 1)
        return ((words << np.uint64(1)) | np.uint64(1)).tolist()

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
