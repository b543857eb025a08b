"""Exact output-word laws and their worst-case predictability.

For a fixed or finitely supported random gain, the set of inputs that
produce a given bit word is a finite union over gain realizations of
intervals, and each interval is computable exactly: the state after j
steps is an increasing affine function of the input, so every threshold
comparison splits the consistency interval at one rational point.  The
integer walk of that forward tree (``encoder.prefix_leaves``, which also
builds the stream kernel's table and the tail-set measure in ``lochs``)
counts every leaf in one unit, so the probability of each word of length
m under Lebesgue-uniform input is an integer sum made one Fraction at the
end.  The min-entropy and the kappa / beta_min**m ceiling on word
probabilities are checked as pure rational inequalities.  Logarithms only
ever appear in reports.  ``WordDistribution`` is also ``extract``'s source type,
and ``flat_supports`` the one rule for its flat sources.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bitio import word_to_str
from .encoder import ConstantThreshold, ExplicitBetas, IidSupportBetas, check_role, prefix_leaves
from .errors import ConfigurationError, DomainError, ResourceBudgetError
from .numerics import (
    ZERO,
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
    """Exact law on m-bit words; only positive-probability words are stored."""

    m: int
    entries: dict

    def __post_init__(self):
        limit = 1 << check_positive_int(self.m, "word length", ConfigurationError)
        for word, p in self.entries.items():
            if isinstance(word, bool):
                raise ConfigurationError(f"words must be ints, got {word!r}")
            if not (0 <= word < limit):
                raise ConfigurationError(f"word {word} does not fit in {self.m} bits")
            if p.numerator <= 0:  # denominators are positive
                raise ConfigurationError("stored probabilities must be positive")
        # the total as an integer over the common denominator
        probs = self.entries.values()
        den = math.lcm(*(p.denominator for p in probs))
        total = sum(p.numerator * (den // p.denominator) for p in probs)
        if total != den:
            raise ConfigurationError(f"probabilities sum to {Fraction(total, den)}, not 1")

    @classmethod
    def uniform(cls, m: int) -> "WordDistribution":
        p = Fraction(1, 1 << m)
        return cls(m, {w: p for w in range(1 << m)})

    @classmethod
    def flat(cls, support: Sequence[int], m: int) -> "WordDistribution":
        """The uniform law on a flat support (see ``flat_supports``)."""
        words, _ = flat_supports([support], m)
        p = Fraction(1, words.size)
        return cls(m, {w: p for w in sorted(words.tolist())})

    def prob(self, word: int) -> Fraction:
        return self.entries.get(word, ZERO)

    def max_probability(self):
        """(word, probability) of the likeliest word; smallest word on ties.

        One ``max`` over the probabilities finds the peak, then the smallest
        word among those that equal it is taken.
        """
        p = max(self.entries.values())
        return min([word for word, q in self.entries.items() if q == p]), p

    def min_entropy_at_least(self, k) -> bool:
        """True iff the min-entropy is at least k >= 0 bits: max prob <= 2**(-k) exactly."""
        k = as_fraction(k)
        if k < 0:
            raise ConfigurationError(f"entropy target must be nonnegative, got {k}")
        _, p = self.max_probability()
        return cmp_pow2(p, -k) <= 0

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

    unit, leaves = prefix_leaves(choices, u_seq)
    sums: dict = {}
    for word, lo, hi, weight, _ in leaves:
        sums[word] = sums.get(word, 0) + weight * (hi - lo)
    den = unit * weight_den**m
    return WordDistribution(m, {word: Fraction(n, den) for word, n in sums.items() if n})


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
            min_entropy_bits = str(-log2_decimal(self.max_probability))
            bound_bits = str(-log2_decimal(self.bound))
        return {
            "m": self.m,
            "beta_min": format_rational(self.beta_min),
            "kappa": format_rational(self.kappa),
            "bound": format_rational(self.bound),
            "max_word": word_to_str(self.max_word, self.m),
            "max_probability": format_rational(self.max_probability),
            "slack": format_rational(self.slack),
            "ok": self.ok,
            "min_entropy_bits": min_entropy_bits,
            "bound_bits": bound_bits,
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
