"""Independent oracle implementations for the test suite.

Everything here is written from the definitions with the dumbest viable
algorithm and imports nothing from the package under test.  Oracle
values frozen into tests were computed by these functions first and only
then compared against the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

ONE = Fraction(1)


def str_to_bits(text: str) -> tuple:
    """Bits of a '0'/'1' string, first character first; ValueError on junk."""
    if any(c not in "01" for c in text):
        raise ValueError("bit strings may contain only 0 and 1")
    return tuple(int(c) for c in text)


def bits_to_str(bits) -> str:
    return "".join(str(int(b)) for b in bits)


class WordLaw(NamedTuple):
    """Bare word law: ``m`` and ``entries`` (word -> probability), like the package's."""

    m: int
    entries: dict

    def prob(self, word: int) -> Fraction:
        return self.entries.get(word, Fraction(0))


def point_mass(word: int, m: int) -> WordLaw:
    """The law that puts all its mass on one m-bit word."""
    return WordLaw(m, {word: ONE})


def min_entropy_decimal(entries: dict) -> Decimal:
    """-log2 of the largest probability, to about 50 significant digits."""
    p = max(entries.values())
    with localcontext() as ctx:
        ctx.prec = 60
        return -(Decimal(p.numerator).ln() - Decimal(p.denominator).ln()) / Decimal(2).ln()


def doubling_digits(x: Fraction, m: int) -> tuple:
    """First m binary digits of x in [0,1] via the doubling map."""
    if not (0 <= x <= 1):
        raise ValueError("x outside [0,1]")
    y = x
    digits = []
    for _ in range(m):
        y *= 2
        d = 1 if y >= 1 else 0
        digits.append(d)
        y -= d
    return tuple(digits)


class Cylinder(NamedTuple):
    """Closed interval [lo, hi] of the points a run of expansion bits allows."""

    lo: Fraction
    hi: Fraction

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


def cylinder_length(k: int, beta: Fraction) -> Fraction:
    """Length beta**-k / (beta - 1) of every depth-k expansion cylinder."""
    return beta ** (-k) / (beta - 1)


def beta_cylinder(bits, beta: Fraction) -> Cylinder:
    """[sum b_i beta**-i, that + beta**-k / (beta - 1)] for bits b_1..b_k."""
    lo = sum((b * beta ** -(i + 1) for i, b in enumerate(bits)), Fraction(0))
    return Cylinder(lo, lo + cylinder_length(len(bits), beta))


def dyadic_index(x: Fraction, m: int) -> int:
    """Index k of the order-m dyadic cell containing x in [0, 1] (last cell closed)."""
    if not 0 <= x <= 1:
        raise ValueError("x outside [0,1]")
    return min((x.numerator << m) // x.denominator, (1 << m) - 1)


def interval_in_dyadic_cell(interval, cell) -> bool:
    """Containment of one closed interval in a cell, half-open unless it closes at 1."""
    if cell.lo > interval.lo:
        return False
    if cell.hi == ONE:
        return interval.hi <= ONE
    return interval.hi < cell.hi


def cell_of(lo_n: int, lo_d: int, hi_n: int, hi_d: int, m: int):
    """Index of the order-m dyadic cell that holds [lo_n/lo_d, hi_n/hi_d], or None.

    The division form of the containment rule: positive denominators and
    0 <= lo <= hi.  A lower end at or past 1 is clamped to the last cell,
    whose test hi <= 1 then fails unless lo == hi == 1.
    """
    last = (1 << m) - 1
    a = (lo_n << m) // lo_d
    if a >= last:  # the closed last cell: hi <= 1
        return last if hi_n <= hi_d else None
    return a if (hi_n << m) < (a + 1) * hi_d else None


def push_bit_fraction(state, bit: int, beta: Fraction) -> tuple:
    """(state, fresh digits) after one more expansion bit, all in Fractions.

    ``state`` is (cylinder, emitted digits, k), starting at
    (Cylinder(0, 1/(beta - 1)), (), 0).  Digit j is certain once the
    cylinder sits inside one order-j dyadic cell; a lower end past 1 fits
    no cell.
    """
    cylinder, emitted, k = state
    k += 1
    step = beta ** (-k)
    lo = cylinder.lo + (step if bit else 0)
    cylinder = Cylinder(lo, lo + step / (beta - 1))
    emitted = list(emitted)
    fresh = []
    while lo <= 1:
        order = len(emitted) + 1
        idx = dyadic_index(lo, order)
        if not interval_in_dyadic_cell(cylinder, Cylinder(Fraction(idx, 1 << order),
                                                          Fraction(idx + 1, 1 << order))):
            break
        emitted.append(idx & 1)
        fresh.append(idx & 1)
    return (cylinder, tuple(emitted), k), tuple(fresh)


def encoder_bits(x: Fraction, beta: Fraction, u_values, n: int) -> tuple:
    """Greedy quantizer run by the definition: emit 1 iff beta*s >= u."""
    s = Fraction(x)
    bits = []
    for i in range(n):
        y = beta * s
        u = Fraction(u_values[i])
        if y >= u:
            bits.append(1)
            s = y - 1
        else:
            bits.append(0)
            s = y
    return tuple(bits)


def encoder_run(x, beta, u, n: int, tie_bit: int = 1) -> tuple:
    """(bits, final state) of n fixed-gain steps by the definition.

    A tie beta*s == u emits ``tie_bit``: 1 is the encoder's rule, and 0
    gives the limit from the left, the run at the open right end of a
    cylinder.
    """
    s, beta, u = Fraction(x), Fraction(beta), Fraction(u)
    bits = []
    for _ in range(n):
        y = beta * s
        b = 1 if y > u or (y == u and tie_bit) else 0
        bits.append(b)
        s = y - b
    return tuple(bits), s


def reconstruct_partial(trace, n: int) -> Fraction:
    """Partial value sum_{i<=n} b_i / (beta_1...beta_i) of a trace's bits and gains."""
    total, product = Fraction(0), ONE
    for bit, beta in zip(trace.bits[:n], trace.betas[:n]):
        product *= beta
        total += bit / product
    return total


def encoder_stream_scaled(x, beta, u, n: int) -> tuple:
    """Fixed-gain stream by one exact scaled-integer step per bit.

    The state is A/D; each step multiplies A by p and D by q (beta = p/q)
    and emits 1 iff A/D >= u, i.e. A*s >= r*D for u = r/s.  This is the
    per-step loop the blocked stream kernel replaced; quadratic in n.
    """
    x, beta, u = Fraction(x), Fraction(beta), Fraction(u)
    p, q = beta.numerator, beta.denominator
    r, s = u.numerator, u.denominator
    A, D = x.numerator, x.denominator
    bits = []
    for _ in range(n):
        A *= p
        D *= q
        if A * s >= r * D:
            bits.append(1)
            A -= D
        else:
            bits.append(0)
    return tuple(bits)


def stream_kernel_blocked(x0, beta, u, n_bits: int, W: int = 128) -> tuple:
    """Fixed-gain stream in blocks on one W-bit window; returns (bits, fallbacks).

    Each block reads an outward-rounded integer interval [lo, hi] holding
    2**W * A/D off the top W bits of D, steps it bit by bit while it lies
    on one side of the threshold (at most W steps, and while beta**k <=
    2**(W/2)), then applies the k decided steps to A/D at once.  A window
    that straddles the threshold when read takes one exact step instead.
    This is the kernel the three-level table kernel replaced; it still
    touches the whole exact state once per block.
    """
    x0, beta, u = Fraction(x0), Fraction(beta), Fraction(u)
    p, q = beta.numerator, beta.denominator
    r, s = u.numerator, u.denominator
    A, D = x0.numerator, x0.denominator
    one = 1 << W
    t = -((-q * r << W) // (p * s))
    k_max = 1
    while k_max < W and p ** (k_max + 1) <= q ** (k_max + 1) << W // 2:
        k_max += 1
    out = [0] * n_bits
    fallbacks = 0
    i = 0
    while i < n_bits:
        shift = D.bit_length() - W
        if shift > 0:
            a, d = A >> shift, D >> shift
            lo = (a << W) // (d + 1)
            hi = -((-(a + 1) << W) // d)
        else:
            lo, rem = divmod(A << W, D)
            hi = lo + (rem > 0)
        S = 0
        k = min(k_max, n_bits - i)
        for j in range(k):
            if lo >= t:
                S = p * S + q ** (j + 1)
                out[i + j] = 1
                lo = p * lo // q - one
                hi = -((-p * hi) // q) - one
            elif hi < t:
                S = p * S
                lo = p * lo // q
                hi = -((-p * hi) // q)
            else:
                k = j
                break
        if k:
            A = p**k * A - D * S
            D *= q**k
            i += k
        else:
            fallbacks += 1
            A *= p
            D *= q
            if A * s >= r * D:
                out[i] = 1
                A -= D
            i += 1
    return tuple(out), fallbacks


def cylinder_table_fraction(beta, u, K: int) -> list:
    """The depth-K cylinders of [0, kappa) under constant threshold u, lowest first.

    One (word, lo, hi, slope, shift) per cylinder: every state x in [lo, hi)
    emits the K-bit ``word`` and moves to slope*x - shift.  The forward
    walk on Fractions: a node's inputs split where beta times its state
    reaches u, and a tie goes to the 1 branch.  This is the walk the stream
    kernel's table was built with before its integer walk.
    """
    beta, u = Fraction(beta), Fraction(u)
    kappa = 1 / (beta - 1)
    leaves = []
    stack = [(0, 0, Fraction(0), kappa, ONE, Fraction(0))]
    while stack:
        depth, word, lo, hi, slope, shift = stack.pop()
        if depth == K:
            leaves.append((word, lo, hi, slope, shift))
            continue
        split = (u / beta + shift) / slope
        if min(hi, split) > lo:
            stack.append((depth + 1, word << 1, lo, min(hi, split), slope * beta, shift * beta))
        if hi > max(lo, split):
            stack.append((depth + 1, word << 1 | 1, max(lo, split), hi, slope * beta,
                          shift * beta + 1))
    return sorted(leaves, key=lambda leaf: leaf[1])


def scan_steps(x, targets, beta, u_iter) -> list:
    """(k, exceeded) per (m, cap, k_min) target by one exact integer step per bit.

    The cylinder after k bits is [L/p**k, that + kappa * beta**-k] with
    beta = p/q; a target settles at the least k whose cylinder sits in
    x's order-m dyadic cell (half-open, the last cell closed), or at its
    cap.  ``u_iter`` yields one (numerator, denominator) threshold per
    bit.  Written apart from ``converter._scan``, which takes the same
    exact step per bit, as the slow path the scan and the lockstep kernel
    are checked against.
    """
    x, beta = Fraction(x), Fraction(beta)
    p, q = beta.numerator, beta.denominator
    pmq = p - q
    xn, xd = x.numerator, x.denominator
    results = []
    A, D = xn, xd
    L, P, Q, k = 0, 1, 1, 0
    for m, cap, k_min in targets:
        a = min((xn << m) // xd, (1 << m) - 1)
        last_cell = a == (1 << m) - 1
        while True:
            if k >= k_min and k >= 1 and (L << m) >= a * P:
                edge = L * pmq + Q * q  # hi = edge / (P * pmq)
                if edge <= P * pmq if last_cell else (edge << m) < (a + 1) * P * pmq:
                    results.append((k, False))
                    break
            if k >= cap:
                results.append((cap, True))
                break
            r, s = next(u_iter)
            k += 1
            A *= p
            D *= q
            P *= p
            Q *= q
            if A * s >= r * D:
                A -= D
                L = L * p + Q
            else:
                L *= p
    return results


def _splitmix_finalize(z: int) -> int:
    mask = (1 << 64) - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def derived_first_word(seed: int, labels) -> int:
    """First 64-bit output of SplitMix64(seed).derive(*labels), from the definition.

    Each label becomes chunks: an int is 1 followed by its 64-bit limbs,
    least significant first (at least one limb); a str is 2, its UTF-8
    length, then its bytes in 8-byte little-endian words.  The key takes
    key <- mix(key ^ mix(chunk)) per chunk, and the stream's first word
    is mix(key + gamma).
    """
    return ScalarSplitMix(seed, labels).next64()


class ScalarSplitMix:
    """The stream of SplitMix64(seed).derive(*labels), one scalar word at a time.

    Word j (from 1) is mix(key + j * gamma) mod 2**64, with the key of
    ``derived_first_word``.
    """

    def __init__(self, seed: int, labels=()):
        self.key = _derived_key(seed, labels)
        self.counter = 0

    def next64(self) -> int:
        self.counter += 1
        return _splitmix_finalize(self.key + self.counter * 0x9E3779B97F4A7C15)


def _derived_key(seed: int, labels) -> int:
    mask = (1 << 64) - 1
    key = seed & mask
    for label in labels:
        if isinstance(label, str):
            data = label.encode("utf-8")
            chunks = [2, len(data)] + [int.from_bytes(data[i:i + 8], "little")
                                       for i in range(0, len(data), 8)]
        else:
            chunks = [1, label & mask]
            label >>= 64
            while label:
                chunks.append(label & mask)
                label >>= 64
        for chunk in chunks:
            key = _splitmix_finalize(key ^ _splitmix_finalize(chunk))
    return key


def uniform_draws(lo, hi, precision_bits: int, rng, n: int) -> tuple:
    """n Fraction draws lo + (hi - lo) * odd / 2**P, one scalar word at a time.

    odd = 2*w + 1 where w is the low P - 1 bits of the next ceil((P-1)/64)
    words of ``rng.next64()``, least significant word first.  This is the
    per-draw Fraction loop the integer draws of the uniform processes
    replaced.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    k = precision_bits - 1
    out = []
    for _ in range(n):
        w = 0
        for shift in range(0, k, 64):
            w |= rng.next64() << shift
        odd = ((w & ((1 << k) - 1)) << 1) | 1
        out.append(lo + (hi - lo) * Fraction(odd, 1 << precision_bits))
    return tuple(out)


def lochs_histograms(seed: int, beta, targets, precision_bits: int, bounds, scan,
                     thresholds=None, uniform=None) -> tuple:
    """Per-target k histograms and cap hits of Monte-Carlo samples start..stop-1.

    The per-sample loop of ``lochs._chunk`` before its draws were batched.
    Sample i scans x = odd/2**precision_bits, the first odd dyadic of the
    stream ("lochs", "sample", i, "x") of ``seed``, with
    ``scan(x, targets, beta, thresholds)``.  Given ``uniform = (lo, hi, P)``
    the sample instead draws the deepest target's cap of uniform
    thresholds from its stream ("lochs", "sample", i, "thresholds"), all
    at once, as reduced (numerator, denominator) pairs.
    """
    hists = [dict() for _ in targets]
    cap_hits = [0] * len(targets)
    for i in range(*bounds):
        x = uniform_draws(0, 1, precision_bits,
                          ScalarSplitMix(seed, ("lochs", "sample", i, "x")), 1)[0]
        if uniform is not None:
            lo, hi, P = uniform
            rng = ScalarSplitMix(seed, ("lochs", "sample", i, "thresholds"))
            thresholds = [(u.numerator, u.denominator)
                          for u in uniform_draws(lo, hi, P, rng, targets[-1][1])]
        for slot, (k, exceeded) in enumerate(scan(x, targets, beta, thresholds)):
            if exceeded:
                cap_hits[slot] += 1
            else:
                hists[slot][k] = hists[slot].get(k, 0) + 1
    return hists, cap_hits


def lochs_row_counts(beta, m: int, hist: dict, levels, eps_values, tail_eps, scaling) -> dict:
    """The counts of a lochs report row, every rule decided bin by bin.

    The per-bin tests of ``lochs._row`` before its counts became cuts into
    the sorted histogram ``hist`` (k -> samples):
    the samples with beta**k <= 2**m; for each eps those with
    eps * beta**(k-1) > 2**(m+1); the tail |k - m*log2/log(beta)| > t, at
    t = tail_eps*m by exact powers ("linear") or at t = tail_eps*sqrt(m)
    against 60-digit decimals ("sqrt"); and for each level the least k
    whose cumulative count reaches level * n.
    """
    beta, two = Fraction(beta), Fraction(2)
    n = sum(hist.values())
    lower = sum(c for k, c in hist.items() if beta**k <= two**m)
    exceed = [sum(c for k, c in hist.items() if eps * beta ** (k - 1) > two ** (m + 1))
              for eps in eps_values]
    if scaling == "sqrt":
        with localcontext() as ctx:
            ctx.prec = 60
            target = Decimal(m) * log_ratio_decimal(beta)
            t = Decimal(tail_eps.numerator) / Decimal(tail_eps.denominator) * Decimal(m).sqrt()
            tail = sum(c for k, c in hist.items() if abs(Decimal(k) - target) > t)
    else:
        t = tail_eps * m
        tn, td = t.numerator, t.denominator
        tail = sum(c for k, c in hist.items()
                   if beta ** (k * td - tn) > two ** (m * td)  # k - m*r > t
                   or beta ** (k * td + tn) < two ** (m * td))  # m*r - k > t
    quantiles = []
    for level in levels:
        seen = 0
        for k in sorted(hist):
            seen += hist[k]
            if seen >= level * n:
                quantiles.append(k)
                break
    return {"lower_bound_violations": lower, "exceed": exceed, "tail": tail,
            "quantiles": quantiles, "min_k": min(hist), "max_k": max(hist)}


def log_ratio_decimal(beta, digits: int = 60) -> Decimal:
    """ln 2 / ln(beta), the digit-transfer rate r = log2/log(beta), on ``digits``-digit decimals."""
    beta, ctx = Fraction(beta), Context(prec=digits)
    return ctx.divide(ctx.ln(2), ctx.subtract(ctx.ln(beta.numerator), ctx.ln(beta.denominator)))


def log_ratio_value(beta, m: int, coefficient, radicand: int, digits: int = 200) -> Decimal:
    """m * r + coefficient * sqrt(radicand) on ``digits``-digit decimals."""
    c, ctx = Fraction(coefficient), Context(prec=digits)
    t = ctx.multiply(ctx.divide(c.numerator, c.denominator), ctx.sqrt(radicand))
    return ctx.add(ctx.multiply(m, log_ratio_decimal(beta, digits)), t)


def rate_cut(beta, m: int, coefficient, radicand: int, digits: int = 120) -> int:
    """floor(m * r + coefficient * sqrt(radicand)) + 1, the least integer k above it."""
    return math.floor(log_ratio_value(beta, m, coefficient, radicand, digits)) + 1


def rate_cuts_by_powers(beta, m: int, t) -> tuple:
    """(lower, lo, hi): the least k with beta**k > 2**m, beta**(k + t) > 2**m
    and beta**(k - t) > 2**m, for a rational t >= 0, by exact powers.

    These are the cuts floor(m*r) + 1 and floor(m*r -+ t) + 1.  With t =
    tn/td, beta**(k*td + shift) is compared with 2**(m*td) for k = -floor(t)
    - 1 (every exponent negative there), then k + 1, ...: small t only.
    """
    beta, t = Fraction(beta), Fraction(t)
    tn, td = t.numerator, t.denominator
    goal = Fraction(2) ** (m * td)

    def least(shift: int) -> int:
        k = -(tn // td) - 1
        while beta ** (k * td + shift) <= goal:
            k += 1
        return k

    return least(0), least(tn), least(-tn)


def cmp_pow2(value, exponent) -> int:
    """Exact sign of value - 2**exponent, always by forming value**b for exponent a/b.

    This is the body the package's bounded comparison replaced.
    """
    value, e = Fraction(value), Fraction(exponent)
    if value <= 0:
        return -1
    a, b = e.numerator, e.denominator
    lhs, rhs = value**b, Fraction(2) ** a
    return (lhs > rhs) - (lhs < rhs)


def least_power_at_least(beta, exponent2, coefficient=ONE, strict=False, limit=1 << 20) -> int:
    """Least k >= 0 with coefficient * beta**k >= 2**exponent2, by linear search.

    ``strict`` asks for > instead.  value >= 2**(a/b) is decided as
    value**b >= 2**a.  This is the search the bracketed one in the package
    replaced; it gives up (ValueError) past k = ``limit``.
    """
    beta, value, e = Fraction(beta), Fraction(coefficient), Fraction(exponent2)
    a, b = e.numerator, e.denominator
    k = 0
    while True:
        lhs, rhs = value**b, Fraction(2) ** a
        if lhs > rhs or (lhs == rhs and not strict):
            return k
        k += 1
        value *= beta
        if k > limit:
            raise ValueError(f"no power up to {limit}")


def round_to_bits(x, bits: int) -> Fraction:
    """Nearest value with ``bits`` significant binary digits, ties to the even mantissa.

    Normalises |x| = n/d into [2**e, 2**(e+1)), scales it to a ``bits``-digit
    integer part, and settles the remainder by divmod: the body the
    package's ``round`` of x / ulp replaced.
    """
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    sign = 1 if x > 0 else -1
    n, d = abs(x).numerator, abs(x).denominator
    e = n.bit_length() - d.bit_length()
    if e >= 0:
        if n < (d << e):
            e -= 1
    else:
        if (n << (-e)) < d:
            e -= 1
    shift = bits - 1 - e
    if shift >= 0:
        num, den = n << shift, d
    else:
        num, den = n, d << (-shift)
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    if shift >= 0:
        out = Fraction(q, 1 << shift)
    else:
        out = Fraction(q << (-shift))
    return sign * out


def cylinder_k(x: Fraction, m: int, beta: Fraction, u_values=None, k_cap: int = 4096):
    """Brute-force least k making m digits of x certain, or None at the cap.

    After k bits the set of inputs with that prefix is the closed interval
    [sum b_j beta^-j, sum + kappa * beta^-k]; the digits are certain once
    it fits inside the dyadic cell of x (half-open except the last cell).
    """
    x, beta = Fraction(x), Fraction(beta)
    kappa = 1 / (beta - 1)
    if u_values is None:
        u_values = [ONE] * k_cap
    a = min(int(x * (1 << m)), (1 << m) - 1)
    cell_lo = Fraction(a, 1 << m)
    cell_hi = Fraction(a + 1, 1 << m)
    last = a == (1 << m) - 1

    s = x
    lo = Fraction(0)
    scale = ONE
    for k in range(1, k_cap + 1):
        y = beta * s
        scale /= beta
        if y >= u_values[k - 1]:
            s = y - 1
            lo += scale
        else:
            s = y
        hi = lo + kappa * scale
        if cell_lo <= lo and (hi <= 1 if last else hi < cell_hi):
            return k
    return None


def word_interval_measure(word_bits, betas, u_values) -> Fraction:
    """Lebesgue measure of {x in [0,1] : encoder emits word_bits}.

    Backward induction with inverse maps: run the constraints from the
    last bit to the first, pulling an interval of admissible states back
    through s -> (s + b)/beta, then intersect with [0,1].
    """
    lo, hi = Fraction(-10**9), Fraction(10**9)
    for b, beta, u in zip(reversed(word_bits), reversed(betas), reversed(u_values)):
        beta, u = Fraction(beta), Fraction(u)
        lo, hi = (lo + b) / beta, (hi + b) / beta
        threshold = u / beta
        if b:
            lo = max(lo, threshold)
        else:
            hi = min(hi, threshold)
        if lo >= hi:
            return Fraction(0)
    lo, hi = max(lo, Fraction(0)), min(hi, ONE)
    return max(hi - lo, Fraction(0))


def prefix_leaves_fraction(choices, u_seq, end=1, node_budget=None):
    """Leaves of the forward tree of output prefixes over inputs in [0, end).

    ``choices[j]`` lists the (gain, weight) branches of step j and
    ``u_seq[j]`` is its threshold.  Yields (word, lo, hi, weight, path,
    slope, shift) for every attained word of length len(u_seq) and gain
    path: each input x in [lo, hi) emits ``word`` along the gains ``path``,
    whose weights multiply to ``weight``, and its state is then
    slope*x - shift.  A node's inputs split where its gain times its state
    reaches the threshold, and a tie goes to the 1 branch.  Past
    ``node_budget`` visited nodes the walk raises RuntimeError.  This is the
    walk on Fractions the integer prefix-tree walk replaced; children are
    pushed 0 before 1, branch by branch, and the last pushed is walked first.
    """
    m = len(u_seq)
    steps = [[(Fraction(g), w, Fraction(u) / Fraction(g)) for g, w in options]
             for options, u in zip(choices, u_seq)]
    visited = 0
    stack = [(0, 0, Fraction(0), Fraction(end), ONE, (), ONE, Fraction(0))]
    while stack:
        visited += 1
        if node_budget is not None and visited > node_budget:
            raise RuntimeError(f"prefix-tree walk passed {node_budget} nodes; shrink the depth")
        depth, word, lo, hi, weight, path, slope, shift = stack.pop()
        if depth == m:
            yield word, lo, hi, weight, path, slope, shift
            continue
        for gain, gweight, turn in steps[depth]:
            split = (turn + shift) / slope
            w, p, sl = weight * gweight, path + (gain,), slope * gain
            if min(hi, split) > lo:
                stack.append((depth + 1, word << 1, lo, min(hi, split), w, p, sl, shift * gain))
            if hi > max(lo, split):
                stack.append((depth + 1, word << 1 | 1, max(lo, split), hi, w, p, sl,
                              shift * gain + 1))


def prefix_leaves_dfs(choices, u_seq, end=ONE, node_budget=None):
    """(unit, leaves): the integer prefix-tree walk, one node at a time.

    The depth-first walk the batched ``tree.prefix_leaves`` replaced,
    with the same arguments: ``leaves`` yields one (word, lo, hi, weight, E)
    per leaf, in units of 1/unit, and past ``node_budget`` visited nodes
    raises RuntimeError with the package's message.  With u_j = r_j/s and
    L_j the lcm of step j's gain numerators, unit = s L_1...L_m; a node
    carries E, Q and N = L_1...L_m / P, and branch p/q emits 1 from split =
    (r Q' + s p E) N' on, with Q' = Q q and N' = N/p.
    """
    end = Fraction(end)
    s = math.lcm(end.denominator, *(Fraction(u).denominator for u in u_seq))
    steps = [(Fraction(u).numerator * (s // Fraction(u).denominator),
              [(Fraction(g).numerator, Fraction(g).denominator, w) for g, w in options])
             for options, u in zip(choices, u_seq)]
    top = math.prod(math.lcm(*(Fraction(g).numerator for g, _ in options)) for options in choices)
    unit, m = s * top, len(steps)

    def leaves():
        visited = 0
        stack = [(0, 0, 0, end.numerator * (unit // end.denominator), 1, 0, 1, top)]
        while stack:
            visited += 1
            if node_budget is not None and visited > node_budget:
                raise RuntimeError(f"prefix-tree walk passed {node_budget} nodes; shrink the depth")
            depth, word, lo, hi, weight, E, Q, N = stack.pop()
            if depth == m:
                yield word, lo, hi, weight, E
                continue
            r, branches = steps[depth]
            for p, q, w in branches:
                Q1, N1, pE = Q * q, N // p, p * E
                split = (r * Q1 + s * pE) * N1
                if split > lo:
                    stack.append((depth + 1, word << 1, lo, min(split, hi), weight * w, pE, Q1, N1))
                if hi > split:
                    stack.append((depth + 1, word << 1 | 1, max(split, lo), hi, weight * w,
                                  pE + Q1, Q1, N1))

    return unit, leaves()


def pm_measure_fraction(beta, u, m: int, kbar: int) -> Fraction:
    """Measure of the inputs in [0, 1) whose depth-kbar cylinder leaves their order-m cell.

    Per leaf of the Fraction walk: the cylinder is [shift/slope, that +
    kappa * beta**-kbar], and the leaf's inputs count unless the cylinder
    sits in the dyadic cell of its lower end (half-open, the last closed)
    and the input does too.
    """
    beta, u = Fraction(beta), Fraction(u)
    tail = beta**-kbar / (beta - 1)
    bad = Fraction(0)
    for _, lo, hi, _, _, slope, shift in prefix_leaves_fraction([[(beta, ONE)]] * kbar, [u] * kbar):
        clo = shift / slope
        a = min(int(clo * (1 << m)), (1 << m) - 1)
        cell_lo, cell_hi = Fraction(a, 1 << m), Fraction(a + 1, 1 << m)
        bad += hi - lo
        if clo + tail <= 1 if cell_hi == 1 else clo + tail < cell_hi:
            bad -= max(Fraction(0), min(hi, cell_hi) - max(lo, cell_lo))
    return bad


def word_distribution_oracle(support, probs, u_values, m: int) -> dict:
    """Exact word law by summing word_interval_measure over gain sequences."""
    out = {}
    for seq in itertools.product(range(len(support)), repeat=m):
        weight = ONE
        for i in seq:
            weight *= probs[i]
        if weight == 0:
            continue
        betas = [support[i] for i in seq]
        for word in range(1 << m):
            bits = [(word >> (m - 1 - j)) & 1 for j in range(m)]
            p = word_interval_measure(bits, betas, u_values)
            if p:
                out[word] = out.get(word, Fraction(0)) + weight * p
    return out


def toeplitz_apply(x_bits, z_bits, n: int) -> tuple:
    """Textbook Toeplitz-matrix hash, built entry by entry.

    T has n rows and m columns with T[i][j] = z[n - 1 + j - i] (0-indexed,
    seed bits z_1..z_{m+n-1} listed MSB-first), so the first row is
    z_n..z_{n+m-1} and the first column reads z_n, z_{n-1}, .., z_1.
    """
    m = len(x_bits)
    assert len(z_bits) == m + n - 1
    out = []
    for i in range(n):
        acc = 0
        for j in range(m):
            acc ^= z_bits[n - 1 + j - i] & x_bits[j]
        out.append(acc)
    return tuple(out)


@functools.lru_cache(maxsize=8)
def toeplitz_table(m: int, n: int) -> np.ndarray:
    """Y[z, x]: the n-bit Toeplitz hash of every m-bit word x under every seed z (read-only)."""
    mask = (1 << m) - 1
    zs = np.arange(1 << (m + n - 1), dtype=np.uint16)[:, None]
    xs = np.arange(1 << m, dtype=np.uint16)[None, :]
    table = np.zeros((zs.size, xs.size), dtype=np.uint8)
    for i in range(n):
        table <<= 1
        table |= (np.bitwise_count(((zs >> i) & mask) & xs) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def flat_avg_seed_tv_table(m: int, n: int, supports) -> list:
    """Seed-averaged TV of the Toeplitz hash over flat sources, by counting.

    Takes the output table Y[z, x] of every seed and input word, then for
    each support bincounts its columns into (seed, output) cells and sums
    |2**n * count - |S||.  The seeds are counted 256 at a time on int32
    keys, so each block's arrays stay in cache.  This is the table path the
    Walsh-Hadamard evaluation of ``flat_avg_seed_tv`` replaced.
    """
    table = toeplitz_table(m, n)
    rows = min(table.shape[0], 256)
    keys = np.arange(rows, dtype=np.int32)[:, None] << n
    out = []
    for support in supports:
        cols = table[:, np.asarray(sorted(support), dtype=np.int64)]
        size = cols.shape[1]
        deviation = 0
        for z in range(0, table.shape[0], rows):
            counts = np.bincount((keys | cols[z:z + rows]).ravel(), minlength=rows << n)
            deviation += int(np.abs(counts * (1 << n) - size).sum())
        out.append(Fraction(deviation, 2 * table.shape[0] * size * (1 << n)))
    return out


def walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0 of a (2**k, ...) array, in place."""
    size = a.shape[0]
    flat = a.reshape(size, -1)
    h = 1
    while h < size:
        pairs = flat.reshape(size // (2 * h), 2, -1)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = lo + hi
        pairs[:, 1] = lo - hi
        h *= 2
    return a


def hash_characters(m: int, n: int) -> np.ndarray:
    """w[c, z]: the XOR of the seed windows (z >> i) & (2**m - 1) whose bit n-1-i is set in c."""
    d = m + n - 1
    zs = np.arange(1 << d, dtype=np.int64)
    w = np.zeros((1 << n, 1 << d), dtype=np.int64)
    for c in range(1 << n):
        for i in range(n):
            if (c >> (n - 1 - i)) & 1:
                w[c] ^= (zs >> i) & ((1 << m) - 1)
    return w


def flat_avg_seed_tv_gather(m: int, n: int, supports) -> list:
    """Seed-averaged TV of the Toeplitz hash over flat sources, by the full XOR lemma.

    Per support: the Walsh transform S^ of its indicator, gathered through
    every character c (the c = 0 row included) into a (2**n, 2**d) block,
    transformed over the characters into 2**n N_z(y), and summed as
    |2**n N_z(y) - |S|| (int32 holds every value, at most 2**(d+1)).  This
    is the gather-and-transform loop of ``flat_avg_seed_tv`` before the
    c = 0 row was dropped and the last butterfly fused into the sum, one
    support at a time; it reaches m = 14, past the table.
    """
    d = m + n - 1
    w = hash_characters(m, n)
    out = []
    for support in supports:
        indicator = np.zeros(1 << m, dtype=np.int32)
        indicator[list(support)] = 1
        counts = walsh_hadamard(walsh_hadamard(indicator)[w])
        deviation = np.abs(counts - len(support)).sum(dtype=np.int64)
        out.append(Fraction(int(deviation), (1 << (d + 1)) * len(support) * (1 << n)))
    return out


def flat_avg_seed_tv_batched(m: int, n: int, supports) -> list:
    """Seed-averaged TV of the Toeplitz hash over flat sources, one batch per gather.

    The batched Walsh path ``flat_avg_seed_tv`` ran before its transform
    and gather were split: per batch of 2**18 >> (d + n) supports (one at
    least) it builds the indicator columns in int16 or int32 (int16 when
    2**(n-1) * max |S| < 2**15), transforms them over the 2**m words,
    gathers every character c >= 1 through w into a fresh block with a zero
    c = 0 row, transforms that over n - 1 stages and sums
    2 * max(|lo|, |hi|) over its halves.  The supports are assumed valid.
    """
    d = m + n - 1

    def walsh(a, stages=None):
        size = a.shape[0]
        a = a.reshape(size, -1)
        out = np.empty_like(a)
        h = 1
        while h < (size if stages is None else 1 << stages):
            src = a.reshape(size // (2 * h), 2, -1)
            dst = out.reshape(src.shape)
            np.add(src[:, 0], src[:, 1], out=dst[:, 0])
            np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
            a, out = out, a
            h *= 2
        return a

    w = hash_characters(m, n)[1:]
    half = 1 << (d + n - 1)
    per_batch = max(1, (1 << 18) >> (d + n))
    fold = min(half, max(1, 4096 // per_batch))
    supports = iter(supports)
    out = []
    while batch := [list(s) for s in itertools.islice(supports, per_batch)]:
        sizes = np.array([len(s) for s in batch])
        words = np.array([x for s in batch for x in s], dtype=np.int64)
        dtype = np.int16 if int(sizes.max()) << (n - 1) < 1 << 15 else np.int32
        cols = np.zeros((1 << m, len(batch)), dtype=dtype)
        cols[words, np.repeat(np.arange(len(batch)), sizes)] = 1
        spectrum = walsh(cols)
        if n == 1:
            mags = np.abs(spectrum)
        else:
            block = np.empty((1 << n, 1 << d, len(batch)), dtype=dtype)
            block[0] = 0
            np.take(spectrum, w, axis=0, out=block[1:], mode="clip")
            block = walsh(block, n - 1)
            lo, hi = np.abs(block).reshape(2, half, -1)
            mags = np.maximum(lo, hi)
        lines = mags.reshape(half // fold, fold * len(batch))
        deviation = 2 * lines.sum(axis=0, dtype=np.int64).reshape(fold, len(batch)).sum(axis=0)
        for size, dev in zip(sizes.tolist(), deviation.tolist()):
            out.append(Fraction(dev, (1 << (d + 1)) * size * (1 << n)))
    return out


def avg_seed_tv_per_seed(dist, n: int) -> Fraction:
    """Seed-averaged TV from uniform of the Toeplitz hash, one seed at a time.

    ``dist`` is any word law with ``.m`` and ``.entries``.  For each seed
    z_1..z_d (d = m + n - 1, MSB-first) row i of the matrix of
    ``toeplitz_apply`` is z_(n-i)..z_(n-i+m-1); the output law of the
    hashed words is summed in Fractions and its TV from uniform on n bits
    averaged over the seeds.  This is the loop ``flat_avg_seed_tv`` replaced.
    """
    m = dist.m
    d = m + n - 1
    total = Fraction(0)
    for z in range(1 << d):
        z_bits = [(z >> (d - 1 - t)) & 1 for t in range(d)]
        rows = [sum(b << (m - 1 - j) for j, b in enumerate(z_bits[n - 1 - i : n - 1 - i + m]))
                for i in range(n)]
        law = {}
        for x, p in dist.entries.items():
            y = 0
            for row in rows:
                y = (y << 1) | inner_product_bit(row, x)
            law[y] = law.get(y, Fraction(0)) + p
        total += tv_from_uniform(WordLaw(n, law))
    return total / (1 << d)


def all_flat_sources(m: int, k: int):
    """Every flat (m, k)-source as a sorted word tuple; only sane for tiny 2**m."""
    if (1 << m) > 64:
        raise ValueError("full flat-source enumeration needs 2**m <= 64")
    yield from itertools.combinations(range(1 << m), 1 << k)


def subcube_supports(m: int, k: int) -> list:
    """Every axis-aligned k-dimensional subcube of m-bit words, one bit at a time.

    Per set of free positions (in ``itertools.combinations`` order) and
    per assignment of the fixed bits (bit j of the assignment at the j-th
    fixed position), each word is built bit by bit and the support sorted.
    This is the loop the pattern-plus-base ``extract.subcube_supports``
    replaced.
    """
    out = []
    for free in itertools.combinations(range(m), k):
        fixed = [i for i in range(m) if i not in free]
        for assignment in range(1 << (m - k)):
            base = 0
            for j, pos in enumerate(fixed):
                if (assignment >> j) & 1:
                    base |= 1 << pos
            words = []
            for choice in range(1 << k):
                w = base
                for j, pos in enumerate(free):
                    if (choice >> j) & 1:
                        w |= 1 << pos
                words.append(w)
            out.append(tuple(sorted(words)))
    return out


def flat_source_family(m: int, k: int, rng) -> list:
    """Prefix, suffix and strided supports, every subcube, and 16 random supports, sorted.

    ``rng`` is the family's stream, ``SplitMix64(seed).derive("flat-family",
    m, k)``; each random support is ``rng.sample_distinct(2**m, 2**k)``.
    This is the family as built before its three named supports were
    folded into the subcubes they are.
    """
    size, total = 1 << k, 1 << m
    family = {
        tuple(range(size)),
        tuple(range(total - size, total)),
        tuple(range(0, total, total // size)),
    }
    family.update(subcube_supports(m, k))
    for _ in range(16):
        family.add(tuple(sorted(rng.sample_distinct(total, size))))
    return sorted(family)


def inner_product(x_bits, y_bits) -> int:
    acc = 0
    for a, b in zip(x_bits, y_bits):
        acc ^= a & b
    return acc


def inner_product_bit(x: int, y: int) -> int:
    return (x & y).bit_count() & 1


def pipeline_extract_blocks(bits, mode, block_bits, out_bits=1, gap_bits=0, seed_word=None):
    """Stream extraction one block at a time, by the textbook primitives.

    Blocks of ``block_bits`` start every ``block_bits + gap_bits`` bits.
    Seeded mode hashes each block with ``toeplitz_apply`` under the
    (block_bits + out_bits - 1)-bit ``seed_word``; with no seed word the
    seed is the head of the stream and the blocks start after it and one
    gap.  Two-source mode takes the inner product of blocks 2j and 2j + 1.
    This is the per-block loop the strided-block matrix product replaced.
    Returns the bits and the block accounting of the pipeline report.
    """
    stream = [int(b) for b in bits]
    m, g, n = block_bits, gap_bits, out_bits
    start = 0
    if mode == "seeded":
        d = m + n - 1
        if seed_word is None:
            seed_bits, start = tuple(stream[:d]), d + g
        else:
            seed_bits = tuple((seed_word >> (d - 1 - t)) & 1 for t in range(d))
    blocks = []
    pos = start
    while pos + m <= len(stream):
        blocks.append(stream[pos : pos + m])
        pos += m + g
    out = []
    if mode == "seeded":
        for block in blocks:
            out.extend(toeplitz_apply(block, seed_bits, n))
    else:
        for j in range(len(blocks) // 2):
            out.append(inner_product(blocks[2 * j], blocks[2 * j + 1]))
    report = {
        "blocks": len(blocks),
        "pairs": len(blocks) // 2 if mode == "two-source" else None,
        "bits_in": len(stream),
        "bits_out": len(out),
    }
    return np.array(out, dtype=np.uint8), report


def toeplitz_matrix(seed_word: int, m: int, n: int) -> np.ndarray:
    """The seeded hash as an n x m uint8 matrix: R[i, j] = bit i + m - 1 - j of the seed."""
    seed_bits = np.array([(seed_word >> t) & 1 for t in range(m + n - 1)], dtype=np.uint8)
    return seed_bits[np.arange(n)[:, None] + np.arange(m - 1, -1, -1)]


def pipeline_extract_product(bits, mode, block_bits, out_bits=1, gap_bits=0, seed_word=None):
    """Stream extraction as one uint8 product over a strided view of the blocks.

    Arguments as in ``pipeline_extract_blocks``.  Seeded mode is
    ``(blocks @ R.T) & 1`` with R = ``toeplitz_matrix`` (uint8 products wrap
    mod 256, which keeps their parity); two-source mode sums the AND of
    blocks 2j and 2j + 1 in uint8 and keeps the low bit.  This is the
    matrix-product path the packed-word popcount parities replaced.
    """
    stream = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8))
    m, g, n = block_bits, gap_bits, out_bits
    start = 0
    if mode == "seeded" and seed_word is None:
        d = m + n - 1
        seed_word = int("".join(map(str, stream[:d].tolist())), 2)
        start = d + g
    count = (stream.size - start - m) // (m + g) + 1 if stream.size >= start + m else 0
    blocks = np.lib.stride_tricks.as_strided(
        stream[start:], shape=(count, m), strides=(m + g, 1), writeable=False
    )
    if mode == "seeded":
        return ((blocks @ toeplitz_matrix(seed_word, m, n).T) & 1).ravel()
    x, y = blocks[0 : count - count % 2 : 2], blocks[1 : count - count % 2 : 2]
    return np.bitwise_and(x, y).sum(axis=1, dtype=np.uint8) & 1


def max_extractable_bits_doubling(block_bits: int, beta_min, beta_max) -> int:
    """Largest n with 2**n * kappa <= beta_min**block_bits (0 when none), by doubling.

    kappa = 1/(beta_max - 1).  One comparison per bit of the budget: this
    is the loop the closed form on bit lengths replaced.
    """
    kappa = 1 / (Fraction(beta_max) - 1)
    power = Fraction(beta_min) ** block_bits
    n = 0
    value = 2 * kappa
    while value <= power:
        n += 1
        value *= 2
    return n


def tv_from_uniform(dist) -> Fraction:
    """TV from uniform of a word law with ``.m`` and ``.entries``."""
    m = dist.m
    u = Fraction(1, 1 << m)
    onsupport = sum((abs(p - u) for p in dist.entries.values()), Fraction(0))
    return (onsupport + ((1 << m) - len(dist.entries)) * u) / 2


def tv_direct(p: dict, q: dict) -> Fraction:
    keys = set(p) | set(q)
    total = sum(abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys)
    return total / 2


def min_entropy_float(entries: dict) -> float:
    return -math.log2(float(max(entries.values())))


def lochs_target(beta: Fraction) -> float:
    return math.log(2) / math.log(float(beta))


# -- battery reference implementations (plain loops, no numpy) --------------


def monobit_p(bits) -> float:
    n = len(bits)
    s = sum(2 * b - 1 for b in bits)
    return math.erfc(abs(s) / math.sqrt(n) / math.sqrt(2))


def runs_p(bits) -> float:
    n = len(bits)
    pi = sum(bits) / n
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        return 0.0
    v = 1 + sum(1 for i in range(n - 1) if bits[i] != bits[i + 1])
    return math.erfc(abs(v - 2 * n * pi * (1 - pi)) / (2 * math.sqrt(2 * n) * pi * (1 - pi)))


def _psi_sq(bits, order: int) -> float:
    n = len(bits)
    ext = list(bits) + list(bits[: order - 1])
    counts = {}
    for i in range(n):
        pat = tuple(ext[i : i + order])
        counts[pat] = counts.get(pat, 0) + 1
    return (1 << order) / n * sum(c * c for c in counts.values()) - n


def serial_p(bits) -> float:
    return min(1.0, math.exp(-(_psi_sq(bits, 2) - _psi_sq(bits, 1)) / 2))


def approximate_entropy_p(bits) -> float:
    n = len(bits)

    def phi(order):
        ext = list(bits) + list(bits[: order - 1])
        counts = {}
        for i in range(n):
            pat = tuple(ext[i : i + order])
            counts[pat] = counts.get(pat, 0) + 1
        return sum((c / n) * math.log(c / n) for c in counts.values())

    x = n * (math.log(2) - (phi(2) - phi(3)))
    return min(1.0, math.exp(-x) * (1 + x))


# -- the battery as it was: one numpy histogram per order and test -----------


def pattern_histogram(bits: np.ndarray, order: int) -> np.ndarray:
    """Overlapping order-bit pattern counts with wraparound (n windows)."""
    ext = np.concatenate([bits, bits[: order - 1]]) if order > 1 else bits
    idx = np.zeros(bits.size, dtype=np.int64)
    for j in range(order):
        idx = (idx << 1) | ext[j : j + bits.size]
    return np.bincount(idx, minlength=1 << order)


def _psi_sq_histogram(bits: np.ndarray, order: int) -> float:
    counts = pattern_histogram(bits, order)
    n = bits.size
    return float((1 << order) / n * int((counts.astype(object) ** 2).sum()) - n)


def battery_four_histograms(bits, alpha: float = 0.01) -> list:
    """The four tests with a histogram per order and per test.

    Returns (name, statistic, p_value, passed, alpha, extras) per test, in
    battery order.  This is the per-test path the one-histogram battery
    replaced, kept with its exact float expressions.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size
    out = []

    total = 2 * int(arr.sum()) - n
    s_obs = abs(total) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2))
    out.append(("monobit", s_obs, p, p >= alpha, alpha, {"bit_sum": total}))

    pi = int(arr.sum()) / n
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        out.append(("runs", float("nan"), 0.0, False, alpha,
                    {"ones_fraction": pi, "prerequisite": "failed"}))
    else:
        v = 1 + int((arr[1:] != arr[:-1]).sum())
        num = abs(v - 2 * n * pi * (1 - pi))
        den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
        p = math.erfc(num / den)
        out.append(("runs", float(v), p, p >= alpha, alpha, {"ones_fraction": pi}))

    delta = _psi_sq_histogram(arr, 2) - _psi_sq_histogram(arr, 1)
    p = min(1.0, math.exp(-delta / 2))
    out.append(("serial", delta, p, p >= alpha, alpha, {}))

    def phi(order: int) -> float:
        acc = 0.0
        for c in pattern_histogram(arr, order).tolist():
            if c:
                acc += (c / n) * math.log(c / n)
        return acc

    ap_en = phi(2) - phi(3)
    chi2 = 2 * n * (math.log(2) - ap_en)
    x = chi2 / 2
    p = min(1.0, math.exp(-x) * (1 + x))
    out.append(("approximate-entropy", chi2, p, p >= alpha, alpha, {"ap_en": ap_en}))
    return out


def battery_p_values_columns(n: int, order3: np.ndarray, wraps: np.ndarray) -> np.ndarray:
    """(rows, 4) p-values of the four tests on (rows, 8) order-3 counts, in battery order.

    The calibration's array path before each test was written once for
    numbers and columns: every column repeats its scalar test's float
    expressions in the same order, with ``math.erfc`` per entry and
    ``np.exp`` / ``np.log`` on the columns.
    """
    def erfc(a):
        return np.fromiter(map(math.erfc, a.tolist()), np.float64, a.size)

    def at_most_one(a):
        return np.where(a < 1.0, a, 1.0)  # min(1.0, a), NaN included

    pairs = order3[:, 0::2] + order3[:, 1::2]
    ones = pairs[:, 0::2] + pairs[:, 1::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        s_obs = np.abs(2 * ones[:, 1] - n) / math.sqrt(n)
        monobit = erfc(s_obs / math.sqrt(2))

        pi = ones[:, 1] / n
        v = 1 + pairs[:, 0b01] + pairs[:, 0b10] - wraps
        num = np.abs(v - 2 * n * pi * (1 - pi))
        den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
        # p = 0.0 where the monobit prerequisite fails
        runs = np.where(np.abs(pi - 0.5) >= 2 / math.sqrt(n), 0.0, erfc(num / den))

        delta = ((4 / n * (pairs * pairs).sum(axis=1) - n)
                 - (2 / n * (ones * ones).sum(axis=1) - n))
        serial = at_most_one(np.exp(-delta / 2))

        def phi(counts):
            acc = 0.0
            for c in counts.T:
                acc = acc + np.where(c != 0, (c / n) * np.log(c / n), 0.0)
            return acc

        ap_en = phi(pairs) - phi(order3)
        x = 2 * n * (math.log(2) - ap_en) / 2  # chi2 / 2
        entropy = at_most_one(np.exp(-x) * (1 + x))
    return np.stack((monobit, runs, serial, entropy), axis=1)


def pattern_counts_bytes(bits) -> tuple:
    """(n, order3, wraps) of a 0/1 uint8 stream, counted on the bytes.

    The unpacked path the packed-word counts replaced: p, q, r are the
    stream and its cyclic shifts by 1 and 2 (``np.resize`` wraps them for
    n < 2), and the order-3 counts are an inclusion-exclusion of n, #p,
    #(p&q), #(p&r) and #(p&q&r).  ``order3[4a + 2b + c]`` counts the
    windows reading abc; ``wraps`` is 1 when the last bit differs from the first.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size
    ext = np.resize(arr, n + 2)
    p, q, r = ext[:n], ext[1 : n + 1], ext[2:]
    pq = p & q
    s1, s_pq, s_pr, s_pqr = (int(np.count_nonzero(a)) for a in (p, pq, p & r, pq & r))
    x, y, z = s_pq - s_pqr, s_pr - s_pqr, s_pqr
    e = s1 - x - y - z
    order3 = (n - 2 * e - s1 - y, e, s1 - 2 * x - z, x, e, y, x, z)
    return n, order3, int(n > 0 and arr[-1] != arr[0])


def rejection_rates_per_run(n_runs: int, n_bits: int, significance: float, seed: int) -> dict:
    """Per-test rejection rates of the calibration, one run at a time.

    Run i tests the first n_bits of SplitMix64(seed).derive("battery-calibration",
    "run", i), each word MSB-first, with the four-histogram battery; a rate
    is rejections / n_runs.
    """
    rejected = {}
    for i in range(n_runs):
        rng = ScalarSplitMix(seed, ("battery-calibration", "run", i))
        text = "".join(format(rng.next64(), "064b") for _ in range(-(-n_bits // 64)))
        bits = np.frombuffer(text[:n_bits].encode("ascii"), dtype=np.uint8) - ord("0")
        for name, _, _, passed, _, _ in battery_four_histograms(bits, significance):
            rejected[name] = rejected.get(name, 0) + (not passed)
    return {name: Fraction(v, n_runs) for name, v in rejected.items()}
