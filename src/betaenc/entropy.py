"""Exact output-word laws and their worst-case predictability.

For a fixed or finitely supported random gain, the inputs that produce a
given bit word are a finite union over gain realizations of intervals,
each computable exactly: the state after j steps is an increasing affine
function of the input, so every threshold comparison splits the
consistency interval at one rational point.  The integer walk of that
forward tree (``tree.prefix_leaves``, shared with the stream kernel's
table and ``lochs``' tail-set measure) counts every leaf in one unit and
yields batches of integer arrays, each summed by word.  A law keeps those
sums as integer weights (``WordDistribution``) and builds its Fractions
only when read.  The min-entropy and the kappa / beta_min**m ceiling on
word probabilities are checked as pure rational inequalities; logarithms
only appear in reports.  ``WordDistribution`` is also ``extract``'s
source type, and ``flat_supports`` the one rule for its flat sources.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bitio import word_to_str
from .encoder import ConstantThreshold, ExplicitBetas, IidSupportBetas, check_role
from .errors import ConfigurationError, DomainError, ResourceBudgetError
from .numerics import (
    as_decimal,
    as_fraction,
    check_positive_int,
    check_thresholds,
    cmp_pow2,
    decimal_context,
    decimal_str,
    format_rational,
    log2_decimal,
    state_bound,
)
from .tree import prefix_leaves

ENUMERATION_BUDGET = 1 << 24


def flat_supports(supports: Iterable, m: int) -> tuple:
    """(words, sizes) of flat sources on m-bit words, each support checked.

    A flat support lists distinct integer words in [0, 2**m), at least one.
    ``words`` holds every support's words in order, as one integer array,
    and ``sizes`` how many each support has.  The words are converted in
    one call that infers their dtype, so a float (``0.5``, ``1.0``,
    ``np.float64(3)``), a string, an all-bool batch or an int past 64 bits
    gives a non-integer array and is refused, never truncated.
    """
    batch = list(map(tuple, supports))
    sizes = np.fromiter(map(len, batch), np.int64, len(batch))
    if not batch or not sizes.all():
        raise ConfigurationError("flat source needs a non-empty support")
    words = np.array(list(itertools.chain.from_iterable(batch)))
    if words.dtype.kind not in "iu" or words.min() < 0 or words.max() >= 1 << m:
        raise DomainError(f"support words must be integers in [0, 2**{m})")
    # narrow numpy words would wrap in the key and index arithmetic; only
    # uint64 words from 2**63 on (m = 64) stay unsigned
    if words.max() < 1 << 63:
        words = words.astype(np.int64, copy=False)
    # one int64 key per (support, word), so a word twice in one support repeats
    # a key; distinct while len(batch) * 2**m < 2**63, always for one support
    keys = np.sort(np.repeat(np.arange(len(batch)) * (words.max() + 1), sizes) + words)
    if (keys[1:] == keys[:-1]).any():
        raise DomainError("a flat support lists a word twice")
    return words, sizes


@dataclass(frozen=True)
class WordDistribution:
    """Exact law on m-bit words: ``weights`` maps each stored word to a positive int.

    Weights are kept divided by their gcd.  P(word) is a word's weight over
    ``total``, so a law sums to 1 by construction; ``entries`` reads it out.
    """

    m: int
    weights: dict

    def __post_init__(self):
        limit = 1 << check_positive_int(self.m, "word length", ConfigurationError)
        if not self.weights:
            raise ConfigurationError("a word law needs at least one word")
        for word, n in self.weights.items():
            if isinstance(word, bool) or not isinstance(word, int):
                raise ConfigurationError(f"words must be ints, got {word!r}")
            if not (0 <= word < limit):
                raise ConfigurationError(f"word {word} does not fit in {self.m} bits")
            if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
                raise ConfigurationError(f"weights must be positive ints, got {n!r}")
        if (g := math.gcd(*self.weights.values())) > 1:
            object.__setattr__(self, "weights", {w: n // g for w, n in self.weights.items()})

    @classmethod
    def uniform(cls, m: int) -> "WordDistribution":
        return cls(m, dict.fromkeys(range(1 << m), 1))

    @classmethod
    def flat(cls, support: Sequence[int], m: int) -> "WordDistribution":
        """The uniform law on a flat support (see ``flat_supports``)."""
        words, _ = flat_supports([support], m)
        return cls(m, dict.fromkeys(sorted(words.tolist()), 1))

    @cached_property
    def total(self) -> int:
        return sum(self.weights.values())

    @cached_property
    def entries(self) -> dict:
        """word -> P(word) as a reduced Fraction, in the order of ``weights``."""
        return {w: Fraction(n, self.total) for w, n in self.weights.items()}

    def prob(self, word: int) -> Fraction:
        return Fraction(self.weights.get(word, 0), self.total)

    def max_probability(self):
        """(word, probability) of the likeliest word; smallest word on ties."""
        peak = max(self.weights.values())
        return min(w for w, n in self.weights.items() if n == peak), Fraction(peak, self.total)

    def min_entropy_at_least(self, k) -> bool:
        """True iff the min-entropy is at least k >= 0 bits: max prob <= 2**(-k) exactly."""
        k = as_fraction(k)
        if k < 0:
            raise ConfigurationError(f"entropy target must be nonnegative, got {k}")
        return cmp_pow2(self.max_probability()[1], -k) <= 0

    def to_csv_rows(self) -> list:
        with decimal_context(28):
            return [{"word": word_to_str(word, self.m), "p": format_rational(p),
                     "decimal": decimal_str(as_decimal(p))}
                    for word, p in sorted(self.entries.items())]


def _check_budget(width: int, m: int) -> None:
    # 2*width >= 2, so every m > 24 is past the budget: refuse it before
    # (2*width)**m is formed
    if m > 24 or (2 * width) ** m > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"(2*{width})**{m} enumeration nodes exceed the budget of 2**24"
        )


def _gain_choices(betas, m: int) -> tuple:
    """Per-depth (gain, integer weight) branches and the weights' denominator per step.

    Refuses a gain model with no exact enumeration (or an explicit list
    shorter than m), then an m past the budget, before it builds anything
    m long.
    """
    if isinstance(betas, IidSupportBetas):
        _check_budget(len(betas.values), m)
        den = math.lcm(*(p.denominator for p in betas.probs))
        return [[(g, int(p * den)) for g, p in zip(betas.values, betas.probs)]] * m, den
    if betas.is_random:
        raise ConfigurationError(
            "exact enumeration needs a fixed, explicit, or finite-support gain model"
        )
    if isinstance(betas, ExplicitBetas):
        betas.realize(m)  # refuses a list shorter than m
    _check_budget(1, m)
    return [[(g, 1)] for g in betas.realize(m)], 1


def word_distribution(betas, thresholds=None, m: int = 1) -> WordDistribution:
    """Exact P(word) for every attainable m-bit word under uniform input.

    Thresholds must be deterministic (constant by default, explicit
    sequences behind the same interface); a random threshold law has no
    single exact distribution to enumerate.
    """
    check_positive_int(m, "m", ConfigurationError)
    thresholds = check_role(ConstantThreshold(1) if thresholds is None else thresholds, "threshold")
    if thresholds.is_random:
        raise ConfigurationError("exact enumeration needs deterministic thresholds")

    choices, weight_den = _gain_choices(check_role(betas, "gain"), m)
    u_seq = thresholds.realize(m)
    check_thresholds(u_seq, state_bound(betas.beta_range[1]), ConfigurationError)

    unit, batches = prefix_leaves(choices, u_seq)
    # a leaf's mass weight * (hi - lo) is at most `most`; past int64 it is a
    # Python int.  Masses are summed in 32-bit halves, so a batch of fewer
    # than 2**31 leaves sums them in int64 while `most` fits.
    most = unit * math.prod(max(w for _, w in options) for options in choices)
    dtype = object if most >> 63 else None
    sums: dict = {}
    for word, lo, hi, weight, _ in batches:
        # one sum per word: the batch sorted by word, then one sum per run
        order = word.argsort()
        word, mass = word[order], np.multiply(weight, hi - lo, dtype=dtype)[order]
        first = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
        high, low = (np.add.reduceat(half, first).tolist()
                     for half in (mass >> 32, mass & 0xFFFFFFFF))
        for w, a, b in zip(word[first].tolist(), high, low):
            sums[w] = sums.get(w, 0) + (a << 32) + b
    # every leaf's mass lies once in the unit, so the sums fill it exactly
    if sum(sums.values()) != unit * weight_den**m:
        raise ConfigurationError("the walk's word masses do not sum to 1")
    return WordDistribution(m, {word: n for word, n in sums.items() if n})


@dataclass(frozen=True)
class BoundCheck:
    """Exact comparison of the peak word probability against kappa/beta_min**m."""

    m: int
    beta_min: Fraction
    kappa: Fraction
    bound: Fraction
    max_word: int
    max_probability: Fraction
    slack: Fraction
    ok: bool

    def to_json(self) -> dict:
        with decimal_context(28):
            return {
                "m": self.m,
                "beta_min": format_rational(self.beta_min),
                "kappa": format_rational(self.kappa),
                "bound": format_rational(self.bound),
                "max_word": word_to_str(self.max_word, self.m),
                "max_probability": format_rational(self.max_probability),
                "slack": format_rational(self.slack),
                "ok": self.ok,
                "min_entropy_bits": str(-log2_decimal(self.max_probability)),
                "bound_bits": str(-log2_decimal(self.bound)),
            }


def min_entropy_bound_check(dist: WordDistribution, beta_min, kappa) -> BoundCheck:
    """Verify max_word P(word) <= kappa / beta_min**m, exactly."""
    beta_min, kappa = as_fraction(beta_min), as_fraction(kappa)
    bound = kappa / beta_min**dist.m
    word, p = dist.max_probability()
    return BoundCheck(
        m=dist.m,
        beta_min=beta_min,
        kappa=kappa,
        bound=bound,
        max_word=word,
        max_probability=p,
        slack=bound - p,
        ok=p <= bound,
    )
