"""Post-processing of weakly random words into nearly uniform bits.

Three layers, each checked exactly rather than cited:

* the impossibility construction: for any single-function extractor there
  is a source losing only one bit of min-entropy on which its output is
  constant (``adversarial_source``);
* a seeded Toeplitz-hash extractor whose average-seed distance from
  uniform is computed exhaustively as a rational and compared against the
  universal-hash guarantee (1/2)*sqrt(2**(n-k));
* the inner-product two-source extractor with the same exhaustive
  treatment over pairs of flat sources.

The pipeline at the bottom slices a long encoder stream into blocks and
feeds them to either extractor, enforcing the entropy budget
n <= m*log2(beta_min) - log2(kappa) as an exact power inequality, and
takes every GF(2) inner product as a popcount parity on 64-bit words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .bitio import as_bit_array, bits_to_word, word_to_bits
from .entropy import ENUMERATION_BUDGET, WordDistribution, flat_supports
from .errors import ConfigurationError, DomainError, ResourceBudgetError
from .numerics import (
    as_fraction,
    check_beta,
    check_nonnegative_int,
    check_positive_int,
    check_seed,
    cmp_pow2,
    decimal_context,
    decimal_str,
    format_rational,
    least_power_at_least,
    log2_decimal,
    state_bound,
)
from .prng import PRNG_ID, SplitMix64

TWO_SOURCE_WARNING = "two-source extraction requires beta_min > sqrt(2)"


def adversarial_source(ext: Callable, m: int) -> WordDistribution:
    """Flat source with min-entropy >= m-1 on which ``ext`` is constant.

    Splits {0,1}**m by the output of ext (a callable on m-bit tuples) and
    returns the uniform law on the larger class, so any one-function
    post-processor fails maximally on an almost-full-entropy source.
    """
    check_positive_int(m, "m", ConfigurationError)
    if m > 24:
        raise ResourceBudgetError(f"need 1 <= m <= 24 to enumerate, got {m}")
    classes = ([], [])
    for word in range(1 << m):
        value = ext(word_to_bits(word, m))
        if value not in (0, 1):
            raise DomainError(f"extractor returned {value!r}, not a bit")
        classes[value].append(word)
    chosen = classes[0] if len(classes[0]) >= len(classes[1]) else classes[1]
    return WordDistribution.flat(chosen, m)


# ---------------------------------------------------------------------------
# seeded extraction


@dataclass(frozen=True)
class SeededExtractor:
    """Toeplitz hash {0,1}**m x {0,1}**d -> {0,1}**n with d = m + n - 1.

    Row i of the matrix is the window (z >> i) & (2**m - 1) of the seed,
    which realizes the Toeplitz structure with first row z_n..z_(n+m-1)
    and first column z_n, z_(n-1), .., z_1 (seed bits numbered MSB-first).
    """

    m: int
    n: int

    def __post_init__(self):
        check_positive_int(self.m, "m", ConfigurationError)
        check_positive_int(self.n, "n", ConfigurationError)
        if self.n > self.m:
            raise ConfigurationError(f"need 1 <= n <= m, got n={self.n}, m={self.m}")

    @property
    def d(self) -> int:
        return self.m + self.n - 1

    def apply(self, x: int, z: int) -> int:
        if not (0 <= x < (1 << self.m)):
            raise DomainError(f"input {x} does not fit in {self.m} bits")
        if not (0 <= z < (1 << self.d)):
            raise DomainError(f"seed {z} does not fit in {self.d} bits")
        mask = (1 << self.m) - 1
        y = 0
        for i in range(self.n):
            y = (y << 1) | (((z >> i) & mask & x).bit_count() & 1)
        return y

    def to_json(self) -> dict:
        return {"kind": "toeplitz", "m": self.m, "n": self.n, "d": self.d}


# entries of the gathered (character, seed, support) block per batch
_GATHER_ENTRIES = 1 << 18


def _walsh(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 of a (2**k, ...) array.

    Butterflies ping-pong between ``a`` and one scratch array, so ``a`` is
    overwritten; the result is whichever of the two holds the last stage.
    """
    size = a.shape[0]
    a = a.reshape(size, -1)
    out = np.empty_like(a)
    h = 1
    while h < size:
        src = a.reshape(size // (2 * h), 2, -1)
        dst = out.reshape(src.shape)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        a, out = out, a
        h *= 2
    return a


def _hash_characters(m: int, n: int) -> np.ndarray:
    """w[c, z] = T_z^T c: the XOR of the rows (z >> i) & mask that c selects.

    Bit n-1-i of c picks row i, matching the MSB-first output order of
    SeededExtractor.apply, so c . T_z x = w[c, z] . x for every input x.
    """
    d = m + n - 1
    if m > 14 or d > 16:
        raise ResourceBudgetError(f"seed table for m={m}, n={n} is past the budget")
    zs = np.arange(1 << d, dtype=np.uint16)
    w = np.zeros((1, 1 << d), dtype=np.uint16)
    for i in range(n - 1, -1, -1):
        w = np.concatenate((w, w ^ ((zs >> i) & ((1 << m) - 1))))
    return w


def _indicators(m: int, batch: list) -> tuple:
    """Indicator columns (2**m, len(batch)) of the flat supports and their sizes."""
    words, sizes = flat_supports(batch, m)
    cols = np.zeros((1 << m, len(batch)), dtype=np.int32)
    cols[words, np.repeat(np.arange(len(batch)), sizes)] = 1
    return cols, sizes


def flat_avg_seed_tv(m: int, n: int, supports: Iterable) -> list:
    """Exact seed-averaged TV from uniform of the Toeplitz hash, per flat source.

    The average over the 2**d seeds z of the output law's TV from uniform
    on n bits equals the TV of the joint (seed, output) law from seed x
    uniform.  For each support S the output law given z is N_z(y)/|S|, so
    the average is sum_z,y |2**n N_z(y) - |S|| over 2**(d+1) * |S| * 2**n.
    The counts come from the XOR lemma, 2**n N_z(y) = sum_c (-1)**(c.y)
    S^(w[c, z]), with S^ the Walsh transform of the support's indicator
    (d = m + n - 1, S a set of m-bit words): per batch of supports one
    transform over the 2**m words, one gather through w, and one
    transform over the 2**n characters.  Every value is an integer of at
    most 2**(d+1) in magnitude, so int32 holds it exactly.
    """
    ext = SeededExtractor(m, n)
    w = _hash_characters(m, n)
    rows = 1 << (ext.d + n)
    per_batch = max(1, _GATHER_ENTRIES >> (ext.d + n))
    # fold rows into lines ~4096 wide: ufuncs down a few narrow columns are slow
    fold = min(rows, max(1, 4096 // per_batch))
    supports = iter(supports)
    out = []
    while batch := list(itertools.islice(supports, per_batch)):
        cols, sizes = _indicators(m, batch)
        counts = _walsh(np.take(_walsh(cols), w, axis=0))
        lines = counts.reshape(rows // fold, fold * len(batch))
        lines -= np.tile(sizes, fold)
        np.abs(lines, out=lines)
        deviation = lines.sum(axis=0, dtype=np.int64).reshape(fold, len(batch)).sum(axis=0)
        for size, dev in zip(sizes.tolist(), deviation.tolist()):
            out.append(Fraction(dev, (1 << (ext.d + 1)) * size * (1 << n)))
    return out


def leftover_hash_bound_ok(avg_tv: Fraction, n: int, k) -> bool:
    """avg_tv <= (1/2) * sqrt(2**(n-k)), decided exactly."""
    k = as_fraction(k)
    return cmp_pow2(avg_tv, (Fraction(n) - k - 2) / 2) <= 0


def _check_flat_shape(m: int, k: int) -> None:
    """m >= 1 and 0 <= k <= m, both ints: the shape of a flat (m, k)-source."""
    check_positive_int(m, "m", ConfigurationError)
    check_nonnegative_int(k, "k", ConfigurationError)
    if k > m:
        raise ConfigurationError(f"need 0 <= k <= m, got k={k}, m={m}")


def _spread(positions) -> list:
    """The words with bit j of i at positions[j], for i = 0 .. 2**len(positions) - 1."""
    words = [0]
    for pos in positions:
        words += [w | 1 << pos for w in words]
    return words


def subcube_supports(m: int, k: int) -> list:
    """All axis-aligned subcubes of dimension k: fix m-k bits, free the rest.

    The free-bit patterns of one set of free positions ascend, as the
    positions do; each base (the fixed bits) shares no bit with them, so
    adding it keeps them sorted.  More than 2**24 words in all, C(m, k) *
    2**m, is refused before any is built.
    """
    _check_flat_shape(m, k)
    # C(m, k) * 2**m >= 2**m, so every m > 24 is past the budget
    if m > 24 or math.comb(m, k) << m > ENUMERATION_BUDGET:
        raise ResourceBudgetError(f"C({m}, {k}) * 2**{m} subcube words exceed the budget of 2**24")
    out = []
    for free in itertools.combinations(range(m), k):
        patterns = _spread(free)
        out += [tuple(base + w for w in patterns)
                for base in _spread([i for i in range(m) if i not in free])]
    return out


# seeded random supports that flat_source_family adds to the subcubes
_RANDOM_SUPPORTS = 16


def flat_source_family(m: int, k: int, seed: int = 0) -> list:
    """The flat (m,k)-sources the exhaustive harness runs against.

    Every axis-aligned subcube (the prefix, suffix and evenly strided
    supports among them) and 16 seeded random supports.  Any flat source
    obeys the leftover-hash bound, so the family is a coverage choice, not
    a hypothesis; the unit suite additionally enumerates literally all flat
    sources at tiny sizes.
    """
    _check_flat_shape(m, k)
    check_seed(seed, "seed", ConfigurationError)
    family = set(subcube_supports(m, k))
    rng = SplitMix64(seed).derive("flat-family", m, k)
    for _ in range(_RANDOM_SUPPORTS):
        family.add(tuple(sorted(rng.sample_distinct(1 << m, 1 << k))))
    return sorted(family)


# ---------------------------------------------------------------------------
# two-source extraction


def two_source_tv(support_x: Sequence[int], support_y: Sequence[int]) -> Fraction:
    """Exact TV from uniform of the inner-product bit over flat sources on at most 16 bits."""
    xs, ys = (flat_supports([s], 16)[0].astype(np.uint16) for s in (support_x, support_y))
    odd = int((np.bitwise_count(xs[:, None] & ys[None, :]) & 1).sum())
    return abs(Fraction(odd, xs.size * ys.size) - Fraction(1, 2))


def two_source_bound_ok(tv: Fraction, m: int, k1: int, k2: int) -> bool:
    """tv <= 2**((m + 2 - k1 - k2)/2): the Hadamard/inner-product target."""
    return cmp_pow2(tv, Fraction(m + 2 - k1 - k2, 2)) <= 0


# ---------------------------------------------------------------------------
# stream pipeline


@dataclass(frozen=True)
class PipelineConfig:
    """Block slicing and extraction parameters for one stream run."""

    mode: str
    block_bits: int
    beta_min: Fraction
    beta_max: Fraction
    out_bits: int = 1
    gap_bits: int = 0
    seed: Optional[int] = None
    seed_mode: str = "explicit"

    def __post_init__(self):
        if self.mode not in ("seeded", "two-source"):
            raise ConfigurationError(f"mode must be seeded or two-source, got {self.mode!r}")
        check_positive_int(self.block_bits, "block_bits", ConfigurationError)
        check_positive_int(self.out_bits, "out_bits", ConfigurationError)
        check_nonnegative_int(self.gap_bits, "gap_bits", ConfigurationError)
        if self.seed is not None:
            check_seed(self.seed, "seed", ConfigurationError)
        object.__setattr__(self, "beta_min", check_beta(self.beta_min))
        object.__setattr__(self, "beta_max", check_beta(self.beta_max))
        if self.beta_min > self.beta_max:
            raise ConfigurationError("need beta_min <= beta_max")
        if self.seed_mode not in ("explicit", "stream"):
            raise ConfigurationError("seed_mode must be explicit or stream")
        if self.mode == "two-source":
            if self.out_bits != 1:
                raise ConfigurationError("two-source mode emits exactly 1 bit per pair")
        else:
            if not (1 <= self.out_bits <= self.block_bits):
                raise ConfigurationError("need 1 <= out_bits <= block_bits")
            if self.seed_mode == "explicit" and self.seed is None:
                raise ConfigurationError("explicit seed mode needs seed=")


def _budget_bits(block_bits: int, beta_min, beta_max) -> int:
    """floor(log2(beta_min**block_bits / kappa)), negative when the block is short."""
    value = as_fraction(beta_min) ** block_bits / state_bound(as_fraction(beta_max))
    # log2(value) lies within 1 of n
    n = value.numerator.bit_length() - value.denominator.bit_length()
    return n - (cmp_pow2(value, n) < 0)


def entropy_budget_ok(block_bits: int, out_bits: int, beta_min, beta_max) -> bool:
    """out_bits <= block_bits*log2(beta_min) - log2(kappa), exactly."""
    return out_bits <= _budget_bits(block_bits, beta_min, beta_max)


def max_extractable_bits(block_bits: int, beta_min, beta_max) -> int:
    """Largest whole out_bits the budget allows (0 when none)."""
    return max(0, _budget_bits(block_bits, beta_min, beta_max))


def required_block_length(n: int, alpha, beta_min) -> int:
    """Least block length with block*(1-alpha)*log2(beta_min) >= n bits.

    This is the rate statement "m = (1/(1-alpha)) * n * log2/log(beta_min)"
    rounded up, evaluated without floating point.
    """
    check_positive_int(n, "n", DomainError)
    alpha = as_fraction(alpha)
    if not (0 <= alpha < 1):
        raise DomainError(f"alpha must lie in [0,1), got {alpha}")
    beta_min = check_beta(beta_min)
    a, b = alpha.numerator, alpha.denominator
    least = least_power_at_least(beta_min, n * b)
    return -(-least // (b - a))


def _parity_of_and(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """GF(2) inner products of the rows of two (.., words) uint64 arrays, as uint8."""
    return np.bitwise_count(np.bitwise_xor.reduce(x & y, axis=1)) & 1


def pipeline_extract(bits, config: PipelineConfig):
    """Slice a stream into blocks, extract, and report the entropy accounting.

    Returns (extracted bits as a uint8 array, report dict).  Two-source
    mode pairs consecutive blocks; seeded mode hashes every block with one
    Toeplitz seed (explicit from the PRNG, or - experimentally, with no
    uniformity claim - read off the head of the stream itself).  Every block
    is packed once into 64-bit words; output bit i of a seeded block is the
    parity of its AND with hash row i, and a pair's two-source bit the
    parity of the AND of its two blocks, one pass over all blocks per row.
    """
    stream = np.ascontiguousarray(as_bit_array(bits))
    m, g, n = config.block_bits, config.gap_bits, config.out_bits

    warnings = []
    if config.mode == "two-source" and config.beta_min**2 <= 2:
        warnings.append(TWO_SOURCE_WARNING)
    if not entropy_budget_ok(m, n, config.beta_min, config.beta_max):
        raise ConfigurationError(
            f"out_bits={n} exceeds the entropy budget of a {m}-bit block "
            f"(max {max_extractable_bits(m, config.beta_min, config.beta_max)})"
        )

    start = 0
    seed_word = None
    seed_origin = None
    if config.mode == "seeded":
        ext = SeededExtractor(m, n)
        if config.seed_mode == "explicit":
            seed_word = SplitMix64(config.seed).derive("toeplitz").bits(ext.d)
            seed_origin = {"mode": "explicit", "prng": PRNG_ID, "seed": config.seed}
        else:
            if stream.size < ext.d:
                raise ConfigurationError(
                    f"stream too short to carve a {ext.d}-bit seed from"
                )
            seed_word = bits_to_word(stream[: ext.d])
            start = ext.d + g
            seed_origin = {
                "mode": "stream",
                "note": "weak seed carved from the stream head; experimental, "
                "no uniformity claim",
            }

    # block j is stream[start + j*(m + g) :][:m], one read-only strided view
    count = (stream.size - start - m) // (m + g) + 1 if stream.size >= start + m else 0
    (stride,) = stream.strides
    blocks = np.lib.stride_tricks.as_strided(
        stream[start:], shape=(count, m), strides=((m + g) * stride, stride), writeable=False
    )
    # each block as ceil(m/64) native words of its packed bytes, zeros past m: the byte
    # order inside a word changes neither AND, XOR nor the parity of a popcount
    width = -(-m // 64)
    packed = np.zeros((count, 8 * width), dtype=np.uint8)
    packed[:, : -(-m // 8)] = np.packbits(blocks, axis=1)
    words = packed.view(np.uint64)
    pairs = count // 2
    if config.mode == "seeded":
        # row i of the hash is (z >> i) & (2**m - 1), laid out like the blocks
        pad, full = 64 * width - m, (1 << m) - 1
        rows = np.frombuffer(b"".join((((seed_word >> i) & full) << pad).to_bytes(8 * width, "big")
                                      for i in range(n)), dtype=np.uint64).reshape(n, width)
        out = np.stack([_parity_of_and(words, row) for row in rows], axis=1).ravel()
    else:
        out = _parity_of_and(words[0 : 2 * pairs : 2], words[1 : 2 * pairs : 2])

    kappa = state_bound(config.beta_max)
    with decimal_context(60):
        budget_dec = Decimal(m) * log2_decimal(config.beta_min) - log2_decimal(kappa)
        rate_unit = Decimal(1) / log2_decimal(config.beta_min)  # log2/log(beta_min)
        ideal = Decimal(n) * rate_unit
        overhead = Decimal(m) / ideal
        implied_alpha = 1 - ideal / Decimal(m)
        report = {
            "mode": config.mode,
            "block_bits": m,
            "gap_bits": g,
            "out_bits": n,
            "blocks": count,
            "pairs": pairs if config.mode == "two-source" else None,
            "bits_in": int(stream.size),
            "bits_out": len(out),
            "beta_min": format_rational(config.beta_min),
            "beta_max": format_rational(config.beta_max),
            "kappa": format_rational(kappa),
            "entropy_budget_bits": decimal_str(budget_dec, 12),
            "max_whole_out_bits": max_extractable_bits(
                m, config.beta_min, config.beta_max
            ),
            "rate_overhead_factor": decimal_str(overhead, 12),
            "implied_alpha": decimal_str(implied_alpha, 12),
            "seed": seed_origin,
            "warnings": warnings,
        }
    return out, report
