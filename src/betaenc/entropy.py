"""Exact output-word laws and their worst-case predictability.

For a fixed or finitely supported random gain, the set of inputs that
produce a given bit word is a finite union over gain realizations of
intervals, and each interval is computable exactly: the state after j
steps is an increasing affine function of the input, so every threshold
comparison splits the consistency interval at one rational point.  Walking
that forward tree gives the exact probability of every word of length m
under Lebesgue-uniform input, from which the min-entropy and the
kappa / beta_min**m ceiling on word probabilities are checked as pure
rational inequalities.  Logarithms only ever appear in reports.

The walk (``prefix_leaves``) also drives the exact tail-set measure in
``lochs``, and ``WordDistribution`` is also the source type of ``extract``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

from .bitio import word_to_str
from .encoder import ConstantThreshold, IidSupportBetas, _check_thresholds
from .errors import ConfigurationError, ResourceBudgetError
from .numerics import (
    ONE,
    ZERO,
    as_fraction,
    check_positive_int,
    cmp_pow2,
    decimal_str,
    format_rational,
    log2_decimal,
    state_bound,
)

ENUMERATION_BUDGET = 1 << 24


@dataclass(frozen=True)
class WordDistribution:
    """Exact law on m-bit words; only positive-probability words are stored."""

    m: int
    entries: dict

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError("word length must be positive")
        total = ZERO
        for word, p in self.entries.items():
            if not (0 <= word < (1 << self.m)):
                raise ConfigurationError(f"word {word} does not fit in {self.m} bits")
            if p <= 0:
                raise ConfigurationError("stored probabilities must be positive")
            total += p
        if total != 1:
            raise ConfigurationError(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, m: int) -> "WordDistribution":
        p = Fraction(1, 1 << m)
        return cls(m, {w: p for w in range(1 << m)})

    @classmethod
    def flat(cls, support: Sequence[int], m: int) -> "WordDistribution":
        words = sorted(set(int(w) for w in support))
        if not words:
            raise ConfigurationError("flat source needs a non-empty support")
        p = Fraction(1, len(words))
        return cls(m, {w: p for w in words})

    def prob(self, word: int) -> Fraction:
        return self.entries.get(word, ZERO)

    def max_probability(self):
        """(word, probability) of the likeliest word; smallest word on ties."""
        return min(self.entries.items(), key=lambda item: (-item[1], item[0]))

    def min_entropy_at_least(self, k) -> bool:
        """True iff max prob <= 2**(-k), decided exactly."""
        _, p = self.max_probability()
        return cmp_pow2(p, -as_fraction(k)) <= 0

    def to_csv_rows(self) -> list:
        rows = []
        for word in sorted(self.entries):
            p = self.entries[word]
            rows.append(
                {
                    "word": word_to_str(word, self.m),
                    "p": format_rational(p),
                    "decimal": decimal_str(Decimal(p.numerator) / Decimal(p.denominator), 12),
                }
            )
        return rows


def prefix_leaves(choices, u_seq, node_budget: Optional[int] = None):
    """Leaves of the forward tree of output prefixes over inputs in [0, 1).

    ``choices[j]`` lists the (gain, weight) branches of step j and
    ``u_seq[j]`` is its threshold.  Yields (word, lo, hi, weight, slope,
    shift) for every attained word of length len(u_seq): each input x in
    [lo, hi) emits ``word`` along a gain path of probability ``weight``,
    and its state is then slope*x - shift.  With ``node_budget`` set, the
    walk stops with ResourceBudgetError once it has visited that many
    nodes.
    """
    m = len(u_seq)
    # per step and branch: gain, weight, and u/gain, the state the bit turns 1 at
    steps = [[(g, w, u / g) for g, w in options] for options, u in zip(choices, u_seq)]
    visited = 0
    stack = [(0, 0, ZERO, ONE, ONE, ONE, ZERO)]
    while stack:
        visited += 1
        if node_budget is not None and visited > node_budget:
            raise ResourceBudgetError(
                f"prefix-tree walk passed {node_budget} nodes; shrink the depth"
            )
        depth, word, lo, hi, weight, slope, shift = stack.pop()
        if depth == m:
            yield word, lo, hi, weight, slope, shift
            continue
        for gain, gweight, turn in steps[depth]:
            split = (turn + shift) / slope
            w = weight * gweight
            zero_hi = min(hi, split)
            if zero_hi > lo:
                stack.append((depth + 1, word << 1, lo, zero_hi, w, slope * gain, shift * gain))
            one_lo = max(lo, split)
            if hi > one_lo:
                stack.append(
                    (depth + 1, (word << 1) | 1, one_lo, hi, w, slope * gain, shift * gain + 1)
                )


def _gain_choices(betas, m: int) -> list:
    """Per-depth list of (gain, weight) branch options."""
    if not betas.is_random:
        return [[(g, ONE)] for g in betas.realize(m)]
    if isinstance(betas, IidSupportBetas):
        return [list(zip(betas.values, betas.probs))] * m
    raise ConfigurationError(
        "exact enumeration needs a fixed, explicit, or finite-support gain model"
    )


def word_distribution(betas, thresholds=None, m: int = 1) -> WordDistribution:
    """Exact P(word) for every attainable m-bit word under uniform input.

    Thresholds must be deterministic (constant by default, explicit
    sequences behind the same interface); a random threshold law has no
    single exact distribution to enumerate.
    """
    check_positive_int(m, "m", ConfigurationError)
    if thresholds is None:
        thresholds = ConstantThreshold(1)
    if thresholds.is_random:
        raise ConfigurationError("exact enumeration needs deterministic thresholds")

    choices = _gain_choices(betas, m)
    width = max(len(c) for c in choices)
    if (2 * width) ** m > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"(2*{width})**{m} enumeration nodes exceed the budget of 2**24"
        )
    u_seq = thresholds.realize(m)
    _check_thresholds(u_seq, state_bound(betas.beta_range[1]))

    entries: dict = {}
    for word, lo, hi, weight, _, _ in prefix_leaves(choices, u_seq):
        entries[word] = entries.get(word, ZERO) + weight * (hi - lo)
    return WordDistribution(m, entries)


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


def is_mk_source(dist: WordDistribution, k) -> bool:
    """True iff the min-entropy is at least k bits: max prob <= 2**(-k)."""
    k = as_fraction(k)
    if k < 0:
        raise ConfigurationError(f"entropy target must be nonnegative, got {k}")
    return dist.min_entropy_at_least(k)
