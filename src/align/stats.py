"""Nonparametric statistics: Spearman, Mann-Whitney U, Cliff's delta, Kruskal-Wallis.

Conventions, fixed once for every analysis:
- Mann-Whitney reports U for the first sample (the phenomenon sample), with
  average ranks on ties, tie-corrected variance, and no continuity correction.
- Spearman p-values come from the t-approximation.
- Kruskal-Wallis applies the standard tie correction and a chi-square tail.

The normal, Student t and chi-square tails are the `scipy.special` ufuncs
that `scipy.stats` calls in its survival functions, so p-values carry the
same bits. They are loaded, and numpy with them, on the first p-value, from
the compiled `scipy.special._ufuncs` alone: importing this module loads
neither scipy nor numpy, and neither `scipy.stats` nor
`scipy/special/__init__.py` runs, as each would take most of the start-up
time of a command that computes a p-value.

Every rank is counted as an exact integer over Python floats, without numpy,
by the one `_twice_ranks`: the samples are small, and a numpy array costs
more to build than the count does. Rank sums and Spearman's sums of products
are exact, so rho keeps the bits of `numpy.corrcoef` on average ranks.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from types import ModuleType
from typing import NamedTuple


@functools.cache
def _ufuncs() -> ModuleType:
    """`scipy.special._ufuncs`, which holds the three tails, imported on first use.

    Python runs a package's __init__ before any of its submodules. scipy.special's
    spends two thirds of its import on scipy's array-API layer (which loads
    numpy.f2py, numpy.testing, numpy.random, ...), so while `_ufuncs` loads, a
    plain package with the same directory stands in for it, unless the real one is
    already loaded. A later `import scipy.special` runs the real __init__, which
    reuses the loaded `_ufuncs`: its ndtr, stdtr and chdtrc are these objects.
    Until this returns, another thread's `import scipy.special` would get the
    placeholder, so compute one p-value before starting threads that import
    `scipy.special`.
    """
    import scipy

    placeholder = ModuleType("scipy.special")
    placeholder.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
    sys.modules.setdefault("scipy.special", placeholder)
    try:
        from scipy.special import _ufuncs
    finally:
        if sys.modules.get("scipy.special") is placeholder:
            del sys.modules["scipy.special"]
    return _ufuncs


class TestResult(NamedTuple):
    """Statistic with its two-sided p-value and sample sizes."""

    statistic: float
    p_value: float
    n: tuple[int, ...]


def _twice_ranks(values: list[float], ordered: list[float]) -> list[int]:
    """Twice the 1-based average rank of each of `values` in the sorted floats `ordered`.

    A value tied with the sorted positions i..j-1 gets i + j + 1, twice the
    mean (i + j + 1) / 2 of those ranks, as an exact integer. Values of any
    number type are compared as the floats they convert to.
    """
    return [bisect_left(ordered, v) + bisect_right(ordered, v) + 1 for v in map(float, values)]


def spearman(x: list[float], y: list[float]) -> TestResult:
    """Spearman rank correlation with a two-sided p-value.

    The p-value uses t = rho*sqrt((n-2)/(1-rho^2)) with n-2 degrees of
    freedom (p = 0 when |rho| = 1).
    """
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    n = len(x)
    if n < 3:
        raise ValueError("spearman needs at least 3 pairs")
    # twice the ranks less twice their mean (n + 1) / 2: numpy.corrcoef's
    # centred ranks doubled, so its sums of products are these integers / 4
    dx = [r - (n + 1) for r in _twice_ranks(x, sorted(map(float, x)))]
    dy = [r - (n + 1) for r in _twice_ranks(y, sorted(map(float, y)))]
    sxx, syy = sum(d * d for d in dx), sum(d * d for d in dy)
    if sxx == 0 or syy == 0:
        raise ValueError("constant input: rank correlation undefined")
    scale = 1.0 / (n - 1)
    cxx, cyy, cxy = (s / 4 * scale for s in (sxx, syy, sum(a * b for a, b in zip(dx, dy))))
    rho = max(-1.0, min(1.0, cxy / math.sqrt(cxx) / math.sqrt(cyy)))

    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * float(_ufuncs().stdtr(n - 2, -abs(t)))
    return TestResult(statistic=rho, p_value=p, n=(n,))


def _tie_correction(pooled: list[float]) -> float:
    """1 - sum(t^3 - t) / (N^3 - N) over the N pooled floats' tie groups of size t."""
    big_n = len(pooled)
    ties = sum(t**3 - t for t in Counter(pooled).values())
    return 1.0 - float(ties) / (big_n**3 - big_n)


def mann_whitney_delta(x: list[float], y: list[float]) -> tuple[TestResult, float]:
    """Mann-Whitney U test reporting U for `x`, and Cliff's delta, both from one
    exact count of 2U = 2 #{x_i > y_j} + #{x_i = y_j}.

    Each x_i's twice-rank in the sorted y sample is its share of 2U plus one.
    U = R_x - n_x(n_x+1)/2 on pooled average ranks; the normal approximation,
    without continuity correction, uses the tie-corrected variance. When every
    pooled value is identical the variance vanishes and p is 1 by convention.
    Delta = (#{x_i > y_j} - #{x_i < y_j}) / (|x| * |y|) = (2U - mn) / mn.
    """
    m, n = len(x), len(y)
    if m == 0 or n == 0:
        raise ValueError("both samples must be non-empty")
    twice_u = sum(_twice_ranks(x, sorted(map(float, y)))) - m
    u, p = twice_u / 2, 1.0
    sigma_sq = m * n * (m + n + 1) / 12.0 * _tie_correction([*map(float, x), *map(float, y)])
    if sigma_sq != 0.0:
        z = (u - m * n / 2.0) / math.sqrt(sigma_sq)
        p = 2.0 * float(_ufuncs().ndtr(-abs(z)))
    return TestResult(statistic=u, p_value=p, n=(m, n)), (twice_u - m * n) / (m * n)


def kruskal_wallis(groups: list[list[float]]) -> TestResult:
    """Kruskal-Wallis H test on pooled average ranks with tie correction.

    All observations identical makes the tie factor vanish; H is 0 by
    convention, giving p = 1 from the chi-square tail with k-1 df.
    """
    if len(groups) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    sizes = [len(g) for g in groups]
    if any(s == 0 for s in sizes):
        raise ValueError("kruskal_wallis groups must be non-empty")
    big_n = sum(sizes)
    if big_n < 3:
        raise ValueError("kruskal_wallis needs at least 3 observations in total")

    pooled = sorted(float(v) for g in groups for v in g)
    h = 0.0
    for group, size in zip(groups, sizes):
        r_g = sum(_twice_ranks(group, pooled)) / 2
        h += r_g * r_g / size
    h = 12.0 / (big_n * (big_n + 1)) * h - 3.0 * (big_n + 1)

    correction = _tie_correction(pooled)
    if correction == 0.0:
        h = 0.0
    else:
        h /= correction
    h = max(h, 0.0)  # guard tiny negative rounding
    df = len(groups) - 1
    p = float(_ufuncs().chdtrc(df, h))
    return TestResult(statistic=h, p_value=p, n=tuple(sizes))


def interpret_rho(rho: float) -> str:
    """Magnitude label for a rank correlation coefficient."""
    size = abs(rho)
    if size < 0.20:
        return "very weak"
    if size < 0.40:
        return "weak"
    if size < 0.60:
        return "moderate"
    if size < 0.80:
        return "strong"
    return "very strong"
