"""Statistics: worked examples, exhaustive permutation oracles, invariances."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
import scipy.stats

from align.stats import (
    _twice_ranks,
    cliffs_delta,
    interpret_rho,
    kruskal_wallis,
    mann_whitney_delta,
    mann_whitney_u,
    spearman,
)
from _oracles import (
    delta_direct,
    exact_kw_p,
    exact_mwu_p,
    exact_spearman_p,
    h_direct,
    u_direct,
)


# --- spearman -----------------------------------------------------------------

def test_spearman_perfect_monotone():
    result = spearman([1, 2, 3], [10, 20, 30])
    assert result.statistic == 1.0
    assert result.p_value == 0.0


def test_spearman_perfect_inverse():
    assert spearman([1, 2, 3], [3, 2, 1]).statistic == -1.0


def test_spearman_five_point_examples():
    # hand rank computation: d = (-1, 1, -1, 1, 0), sum d^2 = 4, rho = 0.8
    result = spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert result.statistic == pytest.approx(0.8)
    assert result.p_value == pytest.approx(0.104, abs=0.001)
    # d = (-1, -1, 2, 0, 0), sum d^2 = 6, rho = 0.7
    result = spearman([1, 2, 3, 4, 5], [2, 3, 1, 4, 5])
    assert result.statistic == pytest.approx(0.7)
    assert result.p_value == pytest.approx(0.188, abs=0.001)
    # t-approximation tracks the exhaustive mid-p over 5! rank orders
    for y in ([2, 1, 4, 3, 5], [2, 3, 1, 4, 5]):
        approx = spearman([1, 2, 3, 4, 5], y).p_value
        assert abs(approx - exact_spearman_p([1, 2, 3, 4, 5], y, convention="mid")) <= 0.05


def test_spearman_constant_input_errors():
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])


def test_spearman_matches_scipy():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(4, 12)
        x = [rng.randrange(10) for _ in range(n)]
        y = [rng.randrange(10) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        ours = spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)
        if abs(ours.statistic) < 1.0:
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)


# --- mann-whitney ---------------------------------------------------------------

def test_mwu_complete_separation():
    result = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(2 * scipy.stats.norm.sf(4.5 / math.sqrt(5.25)))
    assert result.p_value == pytest.approx(0.0495, abs=0.0005)


def test_mwu_single_tied_pair():
    result = mann_whitney_u([5], [5])
    assert result.statistic == 0.5
    assert result.p_value == 1.0  # zero-variance pool: no evidence either way


def test_mwu_u_convention_is_first_sample():
    # U_x = rank-sum formula; for x entirely above y, U_x = m*n
    assert mann_whitney_u([4, 5, 6], [1, 2, 3]).statistic == 9.0


def test_mwu_u_sums_to_mn():
    rng = random.Random(3)
    for _ in range(200):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        x = [rng.randrange(6) for _ in range(m)]
        y = [rng.randrange(6) for _ in range(n)]
        ux = mann_whitney_u(x, y).statistic
        uy = mann_whitney_u(y, x).statistic
        assert ux + uy == pytest.approx(m * n)


def test_mwu_empty_sample_errors():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1])


def test_mwu_matches_scipy_without_continuity():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randrange(1, 10), rng.randrange(1, 10)
        x = [rng.randrange(8) for _ in range(m)]
        y = [rng.randrange(8) for _ in range(n)]
        if len(set(x + y)) < 2:
            continue  # zero variance: our convention is p = 1
        ours = mann_whitney_u(x, y)
        theirs = scipy.stats.mannwhitneyu(x, y, use_continuity=False,
                                          alternative="two-sided", method="asymptotic")
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)


def test_mwu_statistic_equals_pair_count_definition():
    rng = random.Random(9)
    for _ in range(300):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        x = [rng.randrange(5) for _ in range(m)]
        y = [rng.randrange(5) for _ in range(n)]
        assert mann_whitney_u(x, y).statistic == pytest.approx(u_direct(x, y))


def test_mwu_p_close_to_exact_permutation():
    """No-continuity-correction p estimates the permutation mid-p.

    Exhaustive enumeration over every tie-free configuration with sample
    sizes >= 3 and pooled size <= 8 puts the worst |approx - mid-p| gap at
    0.0715, reached by x=(1,4,7), y=(2,3,5,6); the canonical separation example
    sits at 0.0005. The ordinary (inclusive) exact p is a poorer target:
    its best possible bound is 0.188 at these sizes.
    """
    worst = 0.0
    for pooled_size in (6, 7, 8):
        values = list(range(1, pooled_size + 1))
        for m in range(3, pooled_size - 2):
            if pooled_size - m < 3:
                continue
            for chosen in combinations(range(pooled_size), m):
                taken = set(chosen)
                x = [values[i] for i in chosen]
                y = [values[i] for i in range(pooled_size) if i not in taken]
                gap = abs(mann_whitney_u(x, y).p_value - exact_mwu_p(x, y, convention="mid"))
                worst = max(worst, gap)
    assert worst <= 0.072


def test_mwu_separation_example_against_both_conventions():
    approx = mann_whitney_u([1, 2, 3], [4, 5, 6]).p_value
    assert abs(approx - exact_mwu_p([1, 2, 3], [4, 5, 6], convention="mid")) <= 0.05
    # the ordinary exact p (0.1) sits just past the 0.05 band: 0.0505
    assert abs(approx - exact_mwu_p([1, 2, 3], [4, 5, 6])) == pytest.approx(0.0505, abs=0.0005)


# --- cliff's delta --------------------------------------------------------------

def test_delta_complete_separation():
    assert cliffs_delta([3, 4], [1, 2]) == 1.0


def test_delta_identical_samples():
    assert cliffs_delta([1, 2, 3], [1, 2, 3]) == 0.0


def test_delta_pair_count_definition_and_antisymmetry():
    rng = random.Random(21)
    for _ in range(300):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        x = [rng.randrange(5) for _ in range(m)]
        y = [rng.randrange(5) for _ in range(n)]
        d = cliffs_delta(x, y)
        assert d == pytest.approx(delta_direct(x, y))
        assert d == pytest.approx(-cliffs_delta(y, x))
        assert -1.0 <= d <= 1.0


def test_u_and_delta_equal_pair_counts_exactly():
    # delta comes from U; both must equal the pair-count values exactly, ties included
    rng = random.Random(23)
    for _ in range(400):
        m, n = rng.randrange(1, 61), rng.randrange(1, 61)
        levels = rng.choice([2, 5, 20, 1000])
        x = [rng.randrange(levels) / 4 for _ in range(m)]
        y = [rng.randrange(levels) / 4 for _ in range(n)]
        assert mann_whitney_u(x, y).statistic == u_direct(x, y)
        assert cliffs_delta(x, y) == delta_direct(x, y)
    for _ in range(60):  # -0.0 tied with 0.0, ints mixed with floats, up to 300 values
        x = _mixed_samples(rng, rng.randrange(1, 301))
        y = _mixed_samples(rng, rng.randrange(1, 301))
        assert mann_whitney_u(x, y).statistic == u_direct(x, y)
        assert cliffs_delta(x, y) == delta_direct(x, y)
    # an int above 2**53 is compared as the float it converts to
    x, y = [2**53 + 1], [2.0**53]
    assert mann_whitney_u(x, y).statistic == u_direct(x, y) == 0.5
    assert cliffs_delta(x, y) == delta_direct(x, y) == 0.0


def test_mann_whitney_delta_keeps_the_bits_of_both_functions():
    # one count of 2U gives the test and delta; p = 1 where every pooled value is one value
    rng = random.Random(29)
    for _ in range(300):
        levels = rng.choice([1, 2, 5, 1000])
        x = [rng.randrange(levels) / 4 for _ in range(rng.randrange(1, 41))]
        y = [rng.randrange(levels) / 4 for _ in range(rng.randrange(1, 41))]
        assert mann_whitney_delta(x, y) == (mann_whitney_u(x, y), cliffs_delta(x, y))
    for _ in range(30):
        x, y = _mixed_samples(rng, rng.randrange(1, 101)), _mixed_samples(rng, rng.randrange(1, 101))
        assert mann_whitney_delta(x, y) == (mann_whitney_u(x, y), cliffs_delta(x, y))
    assert mann_whitney_delta([1.0, 1.0], [1]) == ((1.0, 1.0, (2, 1)), 0.0)


def test_delta_u_relation_without_ties():
    # with no ties, U = mn(1+delta)/2 ties U and delta together
    x, y = [1, 4, 6], [2, 3, 5]
    u = mann_whitney_u(x, y).statistic
    d = cliffs_delta(x, y)
    assert u == pytest.approx(len(x) * len(y) * (1 + d) / 2)


# --- kruskal-wallis -------------------------------------------------------------

def test_kw_identical_groups():
    assert kruskal_wallis([[1, 2, 3], [1, 2, 3]]).statistic == 0.0


def test_kw_separated_groups():
    result = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    assert result.statistic == pytest.approx(3.857, abs=0.001)
    assert result.p_value == pytest.approx(0.0495, abs=0.0005)


def test_kw_all_identical_convention():
    result = kruskal_wallis([[5, 5], [5, 5]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_kw_matches_scipy():
    # H and p equal scipy.stats.kruskal's bit for bit, on small integer groups
    # and on float and tie-heavy groups of up to 300 values
    rng = random.Random(17)
    for trial in range(300):
        k = rng.randrange(2, 5)
        if trial < 100:
            groups = [[rng.randrange(8) for _ in range(rng.randrange(2, 5))] for _ in range(k)]
        else:
            groups = [_random_samples(rng, rng.randrange(1, 301)) for _ in range(k)]
        pooled = [v for g in groups for v in g]
        if len(set(pooled)) < 2 or len(pooled) < 3:
            continue
        ours = kruskal_wallis(groups)
        theirs = scipy.stats.kruskal(*groups)
        assert ours.statistic == float(theirs.statistic)
        assert ours.p_value == float(theirs.pvalue)


def test_kw_statistic_equals_direct_definition():
    rng = random.Random(19)
    for _ in range(200):
        groups = [[rng.randrange(5) for _ in range(rng.randrange(1, 5))] for _ in range(2)]
        if sum(len(g) for g in groups) < 3:
            continue
        assert kruskal_wallis(groups).statistic == pytest.approx(h_direct(groups), abs=1e-10)


def test_kw_p_close_to_exact_permutation():
    # same mid-p rationale as the U test; worst tie-free gap at these sizes
    # is 0.0715 (groups (1,4,7) vs (2,3,5,6))
    rng = random.Random(23)
    worst = 0.0
    for _ in range(40):
        sizes = rng.choice([(3, 3), (3, 4), (4, 4), (3, 5)])
        pooled_size = sum(sizes)
        values = rng.sample(range(1, 50), pooled_size)  # tie-free
        groups = [values[:sizes[0]], values[sizes[0]:]]
        gap = abs(kruskal_wallis(groups).p_value - exact_kw_p(groups, convention="mid"))
        worst = max(worst, gap)
    assert worst <= 0.072


# --- exact agreement with scipy.stats -----------------------------------------
# The tails come from the scipy.special ufuncs that scipy.stats evaluates in
# its survival functions, so every p-value must equal scipy.stats' bit for bit.

def _random_samples(rng, count):
    """`count` values, tie-heavy (a few levels) or tie-free (continuous)."""
    levels = rng.choice([2, 3, 6, None])
    if levels is None:
        return [rng.uniform(-50, 50) for _ in range(count)]
    return [rng.randrange(levels) / 2 for _ in range(count)]


def _mixed_samples(rng, count):
    """`count` values mixing ints with the floats equal to them, and -0.0 with
    0.0, drawn from a few levels (tie-heavy) or from many."""
    levels = rng.choice([(-0.0, 0.0, 0, 1, 1.0, 2.5), tuple(range(-3, 4)) + (-0.0, 0.5, 1.0, 2.0),
                         tuple(range(100)) + tuple(v / 4 for v in range(-200, 200))])
    return [rng.choice(levels) for _ in range(count)]


def _spearman_p(rho, n):
    if abs(rho) == 1.0:
        return 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return 2.0 * float(scipy.stats.t.sf(abs(t), n - 2))


def _mwu_p(u, x, y):
    m, n = len(x), len(y)
    big_n = m + n
    tie_term = sum(c**3 - c for c in Counter(x + y).values())
    sigma_sq = m * n * (big_n + 1) / 12.0 * (1.0 - tie_term / (big_n**3 - big_n))
    if sigma_sq == 0.0:
        return 1.0
    return 2.0 * float(scipy.stats.norm.sf(abs((u - m * n / 2.0) / math.sqrt(sigma_sq))))


def test_twice_ranks_are_twice_scipy_rankdata():
    rng = random.Random(31)
    for trial in range(360):
        if trial < 300:
            values = _random_samples(rng, rng.randrange(1, 31))
        else:  # -0.0 tied with 0.0, ints mixed with floats, up to 300 values
            values = _mixed_samples(rng, rng.randrange(1, 301))
        twice = _twice_ranks(values, sorted(map(float, values)))
        assert all(type(r) is int for r in twice)
        assert [r / 2 for r in twice] == scipy.stats.rankdata(values).tolist()


def _corrcoef_rho(x, y):
    """Spearman rho as numpy.corrcoef of scipy.stats.rankdata's ranks, clipped."""
    rho = float(np.corrcoef(scipy.stats.rankdata(x), scipy.stats.rankdata(y))[0, 1])
    return max(-1.0, min(1.0, rho))


def test_spearman_rho_equals_corrcoef_of_average_ranks():
    # the exact-integer count keeps the bits of the float formula on average
    # ranks (scipy.stats.spearmanr's rho can differ from it in the last bit)
    rng = random.Random(41)
    for trial in range(200):
        n = rng.randrange(3, 2001) if trial % 4 == 0 else rng.randrange(3, 60)
        if trial % 4 == 1:  # -0.0 tied with 0.0, ints mixed with floats
            x, y = _mixed_samples(rng, n), _mixed_samples(rng, n)
        else:
            x, y = _random_samples(rng, n), _random_samples(rng, n)
        if trial % 4 == 2:  # an overflowed median reads inf
            x[rng.randrange(n)] = math.inf
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y).statistic == _corrcoef_rho(x, y)


def test_p_values_equal_scipy_stats_tails():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randrange(3, 31)
        x, y = _random_samples(rng, n), _random_samples(rng, n)
        if len(set(x)) > 1 and len(set(y)) > 1:
            result = spearman(x, y)
            assert result.p_value == _spearman_p(result.statistic, n)

        x, y = _random_samples(rng, rng.randrange(1, 31)), _random_samples(rng, rng.randrange(1, 31))
        result = mann_whitney_u(x, y)
        assert result.p_value == _mwu_p(result.statistic, x, y)

        groups = [_random_samples(rng, rng.randrange(1, 11)) for _ in range(rng.randrange(2, 5))]
        if sum(len(g) for g in groups) >= 3:
            result = kruskal_wallis(groups)
            assert result.p_value == float(scipy.stats.chi2.sf(result.statistic, len(groups) - 1))
    for _ in range(60):  # -0.0 tied with 0.0, ints mixed with floats, up to 300 values
        x = _mixed_samples(rng, rng.randrange(1, 301))
        y = _mixed_samples(rng, rng.randrange(1, 301))
        result = mann_whitney_u(x, y)
        assert result.statistic == u_direct(x, y)
        assert result.p_value == _mwu_p(result.statistic, x, y)


def test_p_values_equal_scipy_stats_tails_at_the_edges():
    # h == 0 without ties, and with every value tied (correction == 0)
    for groups in ([[1, 2, 3], [1, 2, 3]], [[5, 5], [5, 5], [5]]):
        result = kruskal_wallis(groups)
        assert result.statistic == 0.0
        assert result.p_value == float(scipy.stats.chi2.sf(0.0, len(groups) - 1)) == 1.0
    # z == 0
    result = mann_whitney_u([1, 4], [2, 3])
    assert result.statistic == 2.0
    assert result.p_value == 2.0 * float(scipy.stats.norm.sf(0.0)) == 1.0
    # every pooled value tied: sigma_sq == 0 and p is 1 by convention
    assert mann_whitney_u([5, 5], [5]).p_value == 1.0
    # |t| large: one adjacent swap in a long ranking leaves |rho| just below 1
    for n in (12, 50, 400):
        x = list(range(n))
        y = x[:]
        y[0], y[1] = y[1], y[0]
        for sign in (1, -1):
            result = spearman(x, [sign * v for v in y])
            assert abs(result.statistic) < 1.0
            assert result.p_value == _spearman_p(result.statistic, n)


# --- invariances ----------------------------------------------------------------

def test_shift_and_monotone_invariance():
    rng = random.Random(29)

    def monotone(v):
        return 2.0 * v**3 + 5.0 * v  # strictly increasing on the reals

    for _ in range(250):
        m, n = rng.randrange(3, 8), rng.randrange(3, 8)
        x = [float(rng.randrange(10)) for _ in range(m)]
        y = [float(rng.randrange(10)) for _ in range(n)]
        if len(set(x + y)) < 2 or len(set(x)) < 2 or len(set(y)) < 2:
            continue
        shift = rng.uniform(-50, 50)

        assert mann_whitney_u([v + shift for v in x], [v + shift for v in y]).statistic \
            == pytest.approx(mann_whitney_u(x, y).statistic)
        assert cliffs_delta([v + shift for v in x], [v + shift for v in y]) \
            == pytest.approx(cliffs_delta(x, y))
        assert kruskal_wallis([[v + shift for v in x], [v + shift for v in y]]).statistic \
            == pytest.approx(kruskal_wallis([x, y]).statistic)

        fx, fy = [monotone(v) for v in x], [monotone(v) for v in y]
        assert mann_whitney_u(fx, fy).statistic == pytest.approx(mann_whitney_u(x, y).statistic)
        assert cliffs_delta(fx, fy) == pytest.approx(cliffs_delta(x, y))
        if len(x) == len(y):
            assert spearman(fx, fy).statistic == pytest.approx(spearman(x, y).statistic)
            assert spearman([v + shift for v in x], [v + shift for v in y]).statistic \
                == pytest.approx(spearman(x, y).statistic)


# --- magnitude interpreters -------------------------------------------------------

@pytest.mark.parametrize("rho,label", [
    (0.69, "strong"),
    (0.05, "very weak"),
    (-1.0, "very strong"),
    (0.2, "weak"),
    (-0.45, "moderate"),
    (0.80, "very strong"),
])
def test_interpret_rho(rho, label):
    assert interpret_rho(rho) == label
