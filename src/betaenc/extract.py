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

import functools
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
    floor_log2,
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


def _walsh(a: np.ndarray, scratch: np.ndarray, stages: Optional[int] = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 of a (2**k, ...) array.

    Only the first ``stages`` butterflies run when given: the transform over
    the low ``stages`` bits of the index.  Butterflies ping-pong between
    ``a`` and ``scratch`` (an array of a's shape and dtype), so both are
    overwritten; the result is whichever of the two holds the last stage.
    """
    size = a.shape[0]
    a = a.reshape(size, -1)
    out = scratch.reshape(a.shape)
    end = size if stages is None else 1 << stages
    h = 1
    while h < end:
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
    zs = np.arange(1 << d, dtype=np.uint16)
    w = np.zeros((1, 1 << d), dtype=np.uint16)
    for i in range(n - 1, -1, -1):
        w = np.concatenate((w, w ^ ((zs >> i) & ((1 << m) - 1))))
    return w


def _line_sums(mags: np.ndarray, count: int) -> np.ndarray:
    """Per-column int64 sums of a (rows, count) array, rows folded into ~4096-wide lines.

    ufuncs down a few narrow columns are slow, so the rows are summed as
    lines of about 4096 entries and the line sums folded back per column.
    A line sum adds rows // fold entries, so it runs in int32 while that
    many of the dtype's largest value stay below 2**31.
    """
    rows = mags.shape[0]
    fold = min(rows, 1 << max(1, 4096 // count).bit_length() - 1)
    acc = np.int32 if (rows // fold) * int(np.iinfo(mags.dtype).max) < 1 << 31 else np.int64
    lines = mags.reshape(rows // fold, fold * count).sum(axis=0, dtype=acc)
    return lines.reshape(fold, count).sum(axis=0, dtype=np.int64)


class _Buffers:
    """Pairs of flat arrays per (role, dtype), reused by every batch of one call.

    A fresh array of a few hundred KiB is mapped anew and faults in every
    page it is written to, which cost more than the arithmetic on it.
    """

    def __init__(self):
        self.pool = {}

    def pair(self, role: str, dtype, shape: tuple) -> list:
        size = math.prod(shape)
        bufs = self.pool.get((role, dtype))
        if bufs is None or bufs[0].size < size:
            bufs = self.pool[role, dtype] = (np.empty(size, dtype), np.empty(size, dtype))
        return [b[:size].reshape(shape) for b in bufs]


def _gathered_sums(spectrum: np.ndarray, sizes: np.ndarray, w: np.ndarray, m: int, n: int,
                   buffers: _Buffers) -> np.ndarray:
    """sum_{c < 2**(n-1), z} max(|Y[c, z]|, |Y[c + 2**(n-1), z]|) per column of spectrum.

    Y is the Walsh transform over the low n - 1 bits of c of the block
    X[c, z] = S^(w[c, z]), with X[0] = 0.  The character c = 2**(n-1)
    has w[c, z] = z & (2**m - 1), so its row is S^ tiled 2**(n-1) times
    and is written as a broadcast copy.  The rows between are gathered
    through w in two runs, 0 < c < 2**(n-1) and 2**(n-1) < c < 2**n.
    """
    count = spectrum.shape[1]
    d = m + n - 1
    tile = 1 << (n - 1)
    dtype = np.int16 if int(sizes.max()) << (n - 1) < 1 << 15 else np.int32
    spectrum = spectrum.astype(dtype)
    block, scratch = buffers.pair("block", dtype, (1 << n, 1 << d, count))
    block[0] = 0
    block[tile].reshape(tile, 1 << m, count)[...] = spectrum
    # every index is in range; "clip" lets take write into block unbuffered
    for run in (slice(1, tile), slice(tile + 1, 2 * tile)):
        np.take(spectrum, w[run], axis=0, out=block[run], mode="clip")
    block = _walsh(block, scratch, n - 1)
    lo, hi = np.abs(block, out=block).reshape(2, -1, count)
    return _line_sums(np.maximum(lo, hi, out=lo), count)


def _batch_sizes(m: int, n: int) -> tuple:
    """Supports per transform batch and per gather sub-batch of ``flat_avg_seed_tv``.

    A sub-batch's block holds 2**(d+n) entries per support and stays within
    ``_GATHER_ENTRIES`` (one support at least); a batch transforms at least
    that many supports and otherwise fills half of it with 2**m-word columns.
    """
    per_gather = max(1, _GATHER_ENTRIES >> (m + 2 * n - 1))
    return max(per_gather, _GATHER_ENTRIES >> (m + 1)), per_gather


def flat_avg_seed_tv(m: int, n: int, supports: Iterable) -> list:
    """Exact seed-averaged TV from uniform of the Toeplitz hash, per flat source.

    The average over the 2**d seeds z of the output law's TV from uniform
    on n bits equals the TV of the joint (seed, output) law from seed x
    uniform.  For each support S the output law given z is N_z(y)/|S|, so
    the average is sum_z,y |2**n N_z(y) - |S|| over 2**(d+1) * |S| * 2**n.
    The counts come from the XOR lemma, 2**n N_z(y) = sum_c (-1)**(c.y)
    S^(w[c, z]), with S^ the Walsh transform of the support's indicator
    (d = m + n - 1, S a set of m-bit words).  The c = 0 term is
    S^(0) = |S| for every y, so it cancels the - |S| and is left out.  The
    last butterfly of the transform over the 2**n characters pairs the
    halves lo and hi with |lo + hi| + |lo - hi| = 2 max(|lo|, |hi|), so the
    halves are transformed over n - 1 stages and summed that way.  At
    n = 1, w[1, z] = z and the deviation is 2 sum_u |S^(u)|, with no
    gather.  For n > 1 the character c = 2**(n-1) reads S^ as a tile and
    the other 2**n - 2 characters c >= 1 are gathered through w (see
    ``_gathered_sums``).

    Per batch of supports the transform over the 2**m words runs once, in
    int8 when every |S| <= 127 and in int16 otherwise (|S^| <= |S| at every
    stage, and |S| <= 2**14).  The characters are then gathered in
    sub-batches of at most ``_GATHER_ENTRIES`` block entries.  No block
    value exceeds 2**(n-1) * max |S| in magnitude, so a sub-batch runs in
    int16 when that bound is below 2**15 and in int32 otherwise.  Each
    value is built once from its gcd-reduced numerator and denominator.
    """
    ext = SeededExtractor(m, n)
    d = ext.d
    if m > 14 or d > 16:
        raise ResourceBudgetError(f"seed table for m={m}, n={n} is past the budget")
    w = _hash_characters(m, n).astype(np.intp) if n > 1 else None
    per_batch, per_gather = _batch_sizes(m, n)
    buffers = _Buffers()
    fraction = functools.cache(Fraction)
    supports = iter(supports)
    out = []
    while batch := list(itertools.islice(supports, per_batch)):
        words, sizes = flat_supports(batch, m)
        count = len(batch)
        cols, scratch = buffers.pair("cols", np.int8 if sizes.max() < 1 << 7 else np.int16,
                                     (1 << m, count))
        cols.fill(0)
        cols.reshape(-1)[words * count + np.repeat(np.arange(count), sizes)] = 1
        spectrum = _walsh(cols, scratch)
        if n == 1:
            sums = _line_sums(np.abs(spectrum, out=spectrum), count)
        else:
            sums = np.concatenate([
                _gathered_sums(spectrum[:, j:j + per_gather], sizes[j:j + per_gather], w, m, n,
                               buffers)
                for j in range(0, count, per_gather)])
        num = 2 * sums
        den = sizes << (d + 1 + n)
        g = np.gcd(num, den)
        out += map(fraction, (num // g).tolist(), (den // g).tolist())
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
    """The exact floor of the budget block_bits*log2(beta_min) - log2(kappa), maybe negative."""
    return floor_log2(as_fraction(beta_min) ** block_bits / state_bound(as_fraction(beta_max)))


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
            "entropy_budget_bits": decimal_str(budget_dec),
            "max_whole_out_bits": max_extractable_bits(
                m, config.beta_min, config.beta_max
            ),
            "rate_overhead_factor": decimal_str(overhead),
            "implied_alpha": decimal_str(implied_alpha),
            "seed": seed_origin,
            "warnings": warnings,
        }
    return out, report
