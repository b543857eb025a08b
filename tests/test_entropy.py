import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from betaenc.encoder import (
    ConstantThreshold,
    ExplicitBetas,
    ExplicitThresholds,
    FixedBeta,
    IidSupportBetas,
    UniformBetas,
    UniformThresholds,
    prefix_leaves,
)
from betaenc.entropy import (
    WordDistribution,
    _gain_choices,
    min_entropy_bound_check,
    word_distribution,
)
from betaenc.errors import ConfigurationError, ResourceBudgetError
from betaenc.numerics import state_bound

F = Fraction


def uniform_dist(m: int) -> WordDistribution:
    return WordDistribution(m, {w: F(1, 1 << m) for w in range(1 << m)})


def test_one_bit_law():
    dist = word_distribution(FixedBeta(F(3, 2)), m=1)
    assert dist.entries == {0: F(2, 3), 1: F(1, 3)}
    assert dist.prob(0) == F(2, 3)
    assert dist.prob(1) == F(1, 3)


def test_one_bit_peak_at_8_over_5():
    dist = word_distribution(FixedBeta(F(8, 5)), m=1)
    assert dist.max_probability() == (0, F(5, 8))
    # H_inf = log2(8/5), checked to float precision
    assert abs(float(oracles.min_entropy_decimal(dist.entries)) - oracles.min_entropy_float(dist.entries)) < 1e-12


def test_three_bit_bound_for_3_over_2():
    dist = word_distribution(FixedBeta(F(3, 2)), m=3)
    check = min_entropy_bound_check(dist, F(3, 2), state_bound(F(3, 2)))
    assert check.bound == F(16, 27)
    assert check.max_probability == F(8, 27)
    assert check.ok and check.slack == F(8, 27)
    doc = check.to_json()
    assert doc["bound"] == "16/27"
    assert doc["max_word"] == "000"
    assert doc["ok"] is True


def test_golden_approximant_bound_is_nearly_vacuous():
    # beta = 987/610 approximates the golden mean, where kappa/beta = 1
    # exactly; the rational approximant leaves the bound a hair above 1,
    # so it holds with essentially no content at m = 1
    beta = F(987, 610)
    dist = word_distribution(FixedBeta(beta), m=1)
    check = min_entropy_bound_check(dist, beta, state_bound(beta))
    assert check.bound == F(372100, 372099)
    assert check.ok
    assert 1 < check.bound < F(100001, 100000)


def test_probabilities_sum_to_one():
    for model, m in [
        (FixedBeta(F(3, 2)), 6),
        (FixedBeta(F(9, 5)), 6),
        (IidSupportBetas((F(3, 2), F(9, 5))), 4),
    ]:
        dist = word_distribution(model, m=m)
        assert sum(dist.entries.values()) == 1


def test_refinement_identity():
    for model in (FixedBeta(F(8, 5)), IidSupportBetas((F(3, 2), F(9, 5)), (F(1, 3), F(2, 3)))):
        coarse = word_distribution(model, m=3)
        fine = word_distribution(model, m=4)
        for w in range(1 << 3):
            assert coarse.prob(w) == fine.prob(w << 1) + fine.prob((w << 1) | 1)


def test_matches_backward_induction_oracle():
    for m in (1, 2, 3, 4):
        dist = word_distribution(FixedBeta(F(3, 2)), m=m)
        oracle = oracles.word_distribution_oracle([F(3, 2)], [F(1)], [F(1)] * m, m)
        assert dist.entries == {w: p for w, p in oracle.items() if p > 0}
    dist = word_distribution(IidSupportBetas((F(3, 2), F(8, 5)), (F(1, 4), F(3, 4))), m=3)
    oracle = oracles.word_distribution_oracle(
        [F(3, 2), F(8, 5)], [F(1, 4), F(3, 4)], [F(1)] * 3, 3
    )
    assert dist.entries == {w: p for w, p in oracle.items() if p > 0}


def test_matches_midpoint_grid_oracle():
    # subdivide [0,1] into 2^12 cells and encode each midpoint exactly;
    # cell counts match the exact law up to the boundary-cell correction
    m, grid = 3, 1 << 12
    dist = word_distribution(FixedBeta(F(8, 5)), m=m)
    counts = {}
    for i in range(grid):
        mid = F(2 * i + 1, 2 * grid)
        bits = oracles.encoder_bits(mid, F(8, 5), [F(1)] * m, m)
        w = 0
        for b in bits:
            w = (w << 1) | b
        counts[w] = counts.get(w, 0) + 1
    tol = F(2 * m, grid)
    for w in range(1 << m):
        assert abs(dist.prob(w) - F(counts.get(w, 0), grid)) <= tol


def test_mixing_is_convex_combination_of_sequences():
    # i.i.d. two-point gain at m=2 equals the weighted sum over the four
    # explicit gain sequences
    a, b, p = F(3, 2), F(9, 5), F(1, 3)
    mixed = word_distribution(IidSupportBetas((a, b), (p, 1 - p)), m=2)
    combo: dict = {}
    for g1, w1 in ((a, p), (b, 1 - p)):
        for g2, w2 in ((a, p), (b, 1 - p)):
            part = word_distribution(ExplicitBetas((g1, g2)), m=2)
            for w, q in part.entries.items():
                combo[w] = combo.get(w, F(0)) + w1 * w2 * q
    assert mixed.entries == {w: q for w, q in combo.items() if q > 0}


def test_explicit_gain_sequence_two_steps():
    dist = word_distribution(ExplicitBetas((F(3, 2), F(9, 5))), m=2)
    assert dist.entries == {0b00: F(10, 27), 0b01: F(8, 27), 0b10: F(1, 3)}


def test_explicit_threshold_sequence():
    dist = word_distribution(FixedBeta(F(3, 2)), ExplicitThresholds((F(1), F(2))), m=2)
    assert dist.entries == {0b00: F(2, 3), 0b10: F(1, 3)}


def test_mk_source_predicate():
    assert uniform_dist(3).min_entropy_at_least(3)
    assert not uniform_dist(3).min_entropy_at_least(F(301, 100))
    assert not WordDistribution(1, {0: F(1)}).min_entropy_at_least(F(1, 10))
    assert WordDistribution(1, {0: F(1)}).min_entropy_at_least(0)
    with pytest.raises(ConfigurationError):
        uniform_dist(1).min_entropy_at_least(F(-1))


def test_mk_source_at_guaranteed_rate():
    # m*log2(beta) - log2(kappa) = 8*log2(3/2) - 1 = 3.6797...; any dyadic
    # k at or below it must pass, and the true entropy 4.6797... caps it
    dist = word_distribution(FixedBeta(F(3, 2)), m=8)
    assert dist.max_probability()[1] == F(256, 6561)
    assert dist.min_entropy_at_least(F(367, 100))
    assert dist.min_entropy_at_least(F(467, 100))
    assert not dist.min_entropy_at_least(F(47, 10))


def test_distribution_validation():
    with pytest.raises(ConfigurationError):
        WordDistribution(0, {})
    with pytest.raises(ConfigurationError):
        WordDistribution(1, {0: F(1, 2), 1: F(1, 3)})
    with pytest.raises(ConfigurationError):
        WordDistribution(1, {0: F(1, 2), 2: F(1, 2)})
    with pytest.raises(ConfigurationError):
        WordDistribution(1, {0: F(3, 2), 1: F(-1, 2)})


@pytest.mark.parametrize("m, entries, message", [
    (2, {0: F(1, 2), 1: F(1, 3)}, "probabilities sum to 5/6, not 1"),
    (2, {0: F(1, 2), 1: F(1, 3), 3: F(1, 4)}, "probabilities sum to 13/12, not 1"),
    (1, {}, "probabilities sum to 0, not 1"),
    (1, {0: 2}, "probabilities sum to 2, not 1"),
    (1, {0: F(1, 2), 2: F(1, 2)}, "word 2 does not fit in 1 bits"),
    (1, {0: F(3, 2), 1: F(-1, 2)}, "stored probabilities must be positive"),
    (1, {0: F(1), 1: 0}, "stored probabilities must be positive"),
])
def test_distribution_check_messages(m, entries, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        WordDistribution(m, entries)


def test_distribution_refuses_a_bool_word():
    # accepted before, and printed as word 1
    with pytest.raises(ConfigurationError, match="^words must be ints, got True$"):
        WordDistribution(1, {True: F(1)})


def test_distribution_total_is_exact_over_unlike_denominators():
    # 3**20 and 2**40 share no factor: the integer total must still be exact
    third = F(1, 3**20)
    entries = {0: third, 1: 1 - third - F(1, 1 << 40), 2: F(1, 1 << 40)}
    assert WordDistribution(2, entries).entries == entries
    WordDistribution(1, {0: 1})


def test_max_probability_tie_prefers_smallest_word():
    assert uniform_dist(2).max_probability() == (0, F(1, 4))


def test_rejects_continuous_models():
    with pytest.raises(ConfigurationError):
        word_distribution(UniformBetas(F(3, 2), F(9, 5)), m=2)
    with pytest.raises(ConfigurationError):
        word_distribution(FixedBeta(F(3, 2)), UniformThresholds(F(1), F(2)), m=2)


def test_rejects_threshold_above_state_bound():
    with pytest.raises(ConfigurationError):
        word_distribution(FixedBeta(F(9, 5)), ConstantThreshold(F(3, 2)), m=2)


def test_enumeration_budget():
    with pytest.raises(ResourceBudgetError):
        word_distribution(IidSupportBetas((F(3, 2), F(9, 5))), m=13)
    # refused before anything m long is built, (2*width)**m included
    for gains in (FixedBeta(F(3, 2)), IidSupportBetas((F(3, 2), F(9, 5)))):
        with pytest.raises(ResourceBudgetError):
            word_distribution(gains, m=10**11)
    # the gain model is still refused first
    for gains in (ExplicitBetas((F(3, 2),) * 30), UniformBetas(F(3, 2), F(8, 5))):
        with pytest.raises(ConfigurationError):
            word_distribution(gains, m=40)
    for m in (0, True):
        with pytest.raises(ConfigurationError, match="m must be"):
            word_distribution(FixedBeta(F(3, 2)), m=m)


def test_csv_rows_format():
    rows = word_distribution(FixedBeta(F(8, 5)), m=1).to_csv_rows()
    assert rows == [
        {"word": "0", "p": "5/8", "decimal": "0.625000000000"},
        {"word": "1", "p": "3/8", "decimal": "0.375000000000"},
    ]


@given(
    st.fractions(min_value=F(9, 8), max_value=F(15, 8), max_denominator=32),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40)
def test_bound_holds_across_gains(beta, m):
    dist = word_distribution(FixedBeta(beta), m=m)
    check = min_entropy_bound_check(dist, beta, state_bound(beta))
    assert check.ok and check.slack >= 0


def _walk(leaves) -> tuple:
    """(leaves, exception): what a walk yields before its node budget stops it."""
    out = []
    try:
        for leaf in leaves:
            out.append(leaf)
    except RuntimeError as exc:  # ResourceBudgetError is one
        return out, exc
    return out, None


@st.composite
def walk_cases(draw):
    """(gain model, thresholds, m, end of the input interval [0, end)) of every shape."""
    betas = st.sampled_from([F(3, 2), F(9, 5), F(8, 5), F(5, 3), F(4, 3), F(7, 5)])
    kind = draw(st.sampled_from(["fixed", "explicit", "iid"]))
    if kind == "fixed":
        m = draw(st.integers(1, 8))
        model = FixedBeta(draw(betas))
    elif kind == "explicit":
        m = draw(st.integers(1, 7))
        model = ExplicitBetas(tuple(draw(st.lists(betas, min_size=m, max_size=m))))
    else:
        m = draw(st.integers(1, 4))
        support = draw(st.lists(betas, min_size=1, max_size=3, unique=True))
        n = len(support)
        # zero weights included: a word only they reach is dropped from the law
        raw = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        model = IidSupportBetas(tuple(support), tuple(F(r, sum(raw)) for r in raw))
    kappa = state_bound(model.beta_range[1])
    us = st.sampled_from([F(1), kappa]) | st.fractions(1, kappa, max_denominator=30)
    if draw(st.booleans()):
        thresholds = ConstantThreshold(draw(us))
    else:
        thresholds = ExplicitThresholds(tuple(draw(st.lists(us, min_size=m, max_size=m))))
    return model, thresholds, m, draw(st.sampled_from([F(1), kappa]))


@given(walk_cases())
@settings(max_examples=150, deadline=None)
def test_integer_walk_matches_the_fraction_walk(case):
    model, thresholds, m, end = case
    choices, den = _gain_choices(model, m)
    u_seq = thresholds.realize(m)
    fraction_choices = [[(g, F(w, den)) for g, w in options] for options in choices]
    want = list(oracles.prefix_leaves_fraction(fraction_choices, u_seq, end))
    unit, leaves = prefix_leaves(choices, u_seq, end)
    got = list(leaves)
    # leaf for leaf, in walk order: the state is (P x - E)/Q on the path's gains
    assert len(got) == len(want)
    for (word, lo, hi, weight, E), (*head, path, slope, shift) in zip(got, want):
        P = math.prod(g.numerator for g in path)
        Q = math.prod(g.denominator for g in path)
        assert [word, F(lo, unit), F(hi, unit), F(weight, den**m)] == head
        assert slope == F(P, Q) and shift == F(E, Q)

    # the same tree: a budget of its node count passes, one less stops both
    # walks after the same leaves with the same message, and so does 10
    nodes = {(path[:d], word >> (m - d)) for word, *_, path, _, _ in want for d in range(m + 1)}
    assert _walk(prefix_leaves(choices, u_seq, end, len(nodes))[1])[1] is None
    for budget in (10, len(nodes) - 1):
        got_cut, got_exc = _walk(prefix_leaves(choices, u_seq, end, budget)[1])
        want_cut, want_exc = _walk(
            oracles.prefix_leaves_fraction(fraction_choices, u_seq, end, budget))
        assert len(got_cut) == len(want_cut)
        assert (got_exc is None) == (want_exc is None) == (budget >= len(nodes))
        if got_exc is not None:
            assert isinstance(got_exc, ResourceBudgetError)
            assert str(got_exc) == str(want_exc) == (
                f"prefix-tree walk passed {budget} nodes; shrink the depth")

    if end != 1:
        if isinstance(model, FixedBeta) and isinstance(thresholds, ConstantThreshold):
            # over [0, kappa): the stream kernel's cylinder table
            table = oracles.cylinder_table_fraction(model.value, thresholds.value, m)
            assert [(w, lo, hi) for w, lo, hi, *_ in table] == sorted(
                (w, lo, hi) for w, lo, hi, *_ in want)
        return
    # over [0, 1): the word law, summed from the Fraction leaves and by
    # backward induction over the gain sequences
    law: dict = {}
    for word, lo, hi, weight, *_ in want:
        law[word] = law.get(word, F(0)) + weight * (hi - lo)
    dist = word_distribution(model, thresholds, m)
    # a word that only zero-weight gain paths reach has probability 0: dropped
    assert dist.entries == {w: p for w, p in law.items() if p}
    if isinstance(model, ExplicitBetas):
        oracle = {}
        for word in range(1 << m):
            bits = [(word >> (m - 1 - j)) & 1 for j in range(m)]
            oracle[word] = oracles.word_interval_measure(bits, model.values[:m], u_seq)
    else:
        support, probs = ((model.value,), (F(1),)) if isinstance(model, FixedBeta) else (
            model.values, model.probs)
        oracle = oracles.word_distribution_oracle(support, probs, u_seq, m)
    assert dist.entries == {w: p for w, p in oracle.items() if p > 0}


def test_word_distribution_refuses_processes_in_the_wrong_role():
    # an AttributeError on beta_range before roles were checked
    with pytest.raises(ConfigurationError, match="^expected a gain process, got ConstantThreshold$"):
        word_distribution(ConstantThreshold(1), m=4)
    with pytest.raises(ConfigurationError, match="^expected a threshold process, got FixedBeta$"):
        word_distribution(FixedBeta(F(3, 2)), FixedBeta(F(3, 2)), m=4)
