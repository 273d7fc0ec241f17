"""Cylinder-refined volume contributions and their bivariate generating series.

Two independent routes produce the same numbers:

* the table route: a_{g,n} from the p-numbers through the Bernoulli form,
  and the series C(t,u) assembled from the a_{g,n};
* the inversion route: C(t,u) = t / Q^{-1}(t,u) with
  Q = t * exp(sum (k-1)! b_k(u) t^k) and b_k(u) = [t^k] ((t/2)/sin(t/2))^u.

The table route is the source of truth; the inversion route is a verifier.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import factorial

from .permutation import multiplicity_factorial, partitions
from .pnum import p_value
from .scalars import PiScaled, bernoulli
from .series import (
    TruncatedSeries,
    UPoly,
    lagrange_invert,
    series_exp,
    series_inverse,
    series_pow_u,
    sine_quotient,
)

__all__ = [
    "a_gn",
    "vol_n",
    "total_volume",
    "c_series",
    "c_series_inverse_route",
    "verify_bivariate_relation",
    "cylinder_partial_sum",
    "asymptotic_prediction",
]


@cache
def _genus_walk(g: int) -> tuple[Fraction, ...]:
    """(a_{g,1}, .., a_{g,g}) from one walk over the partitions of g.

    a_{g,n} = (1/n!) sum over compositions s_1+..+s_n = g, s_i >= 1, of
    p_{2s_1,..,2s_n} prod_i (-1)^(s_i+1) B_{2s_i} / (2s_i (2s_i)!).
    The summand is symmetric in the s_i, so the sum runs over the
    partitions of g into n parts, each over prod_i m_i! for the
    multiplicities m_i of its parts instead of n!.  Each partition adds
    its term to the entry n = len(parts).  Raises AssertionError unless
    every a_{g,n} is positive.
    """
    sums = [Fraction(0)] * (g + 1)
    for parts in partitions(g):
        term = Fraction(p_value(tuple(2 * s for s in parts)), multiplicity_factorial(parts))
        for s in parts:
            term *= Fraction((-1) ** (s + 1)) * bernoulli(2 * s) / (2 * s * factorial(2 * s))
        sums[len(parts)] += term
    for n, total in enumerate(sums[1:], 1):
        if total <= 0:
            raise AssertionError(f"a_{{{g},{n}}} must be positive, got {total}")
    return tuple(sums[1:])


def a_gn(g: int, n: int) -> Fraction:
    """Normalized n-cylinder contribution for genus g (Bernoulli form)."""
    if not 1 <= n <= g:
        raise ValueError(f"need 1 <= n <= g, got n={n}, g={g}")
    return _genus_walk(g)[n - 1]


def vol_n(g: int, n: int) -> PiScaled:
    """Contribution of n-cylinder surfaces: 2 (2 pi)^(2g) / (2g-1)! * a_{g,n}.

    Since zeta(2s) = (-1)^(s+1) B_{2s} (2 pi)^(2s) / (2 (2s)!), this is the
    zeta form (2/(2g-1)!) (1/n!) sum p_{2s} prod zeta(2s_i)/s_i.
    """
    return PiScaled(a_gn(g, n) * Fraction(2 ** (2 * g + 1), factorial(2 * g - 1)), 2 * g)


def total_volume(g: int) -> PiScaled:
    """Sum of the n-cylinder contributions over 1 <= n <= g."""
    if g < 1:
        raise ValueError("g must be >= 1")
    total = PiScaled(Fraction(0), 2 * g)
    for n in range(1, g + 1):
        total = total + vol_n(g, n)
    return total


def c_series(order: int) -> TruncatedSeries:
    """C(t,u) = 1 + sum_{g>=1} (sum_n a_{g,n} u^n) (2g-1) t^(2g), truncated."""
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be even and positive")
    entries: dict[int, UPoly] = {0: UPoly.const(1)}
    for g in range(1, order // 2 + 1):
        entries[2 * g] = UPoly((0, *(Fraction(2 * g - 1) * a for a in _genus_walk(g))))
    return TruncatedSeries.from_dict(order, entries)


def c_series_inverse_route(order: int) -> TruncatedSeries:
    """C(t,u) recovered by functional inversion in t.

    Builds Q(t,u) = t * exp(sum_{k>=1} (k-1)! b_k(u) t^k) from
    b_k(u) = [t^k] ((t/2)/sin(t/2))^u, inverts it compositionally, and
    returns t / Q^{-1}(t,u).
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be even and positive")
    work = order + 1
    b = series_pow_u(sine_quotient(work))
    exponent = TruncatedSeries.from_dict(
        work,
        {k: b.coefficient(k) * Fraction(factorial(k - 1)) for k in range(1, work + 1)},
    )
    q = series_exp(exponent).shift_up()  # t * exp(..)
    q_inv = lagrange_invert(q)
    return series_inverse(q_inv.shift_down())


def verify_bivariate_relation(g_max: int) -> bool:
    """Check (1/(2g)!) [t^(2g)] C(t,u)^(2g) = [t^(2g)] ((t/2)/sin(t/2))^u.

    Both sides are exact polynomials in u; the identity is checked for all
    0 <= g <= g_max.
    """
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    if g_max == 0:
        return True
    order = 2 * g_max
    c = c_series(order)
    rhs = series_pow_u(sine_quotient(order))
    power = TruncatedSeries.one(order)  # C^k, k running over 0..2*g_max
    k = 0
    for g in range(0, g_max + 1):
        while k < 2 * g:
            power = power * c
            k += 1
        lhs = power.coefficient(2 * g) * Fraction(1, factorial(2 * g))
        if lhs != rhs.coefficient(2 * g):
            return False
    return True


def cylinder_partial_sum(s: tuple[int, ...], n_max: int) -> int:
    """Exact sum of L_1^{s_1} .. L_n^{s_n} over h_i, L_i >= 1, sum h_i L_i <= N.

    Per coordinate, the pairs (h, L) with hL = m contribute the divisor
    power sum sigma_{s_i}(m); the total is an iterated convolution.  Every
    s_i must be >= 0, so that every term is an integer.
    """
    n = len(s)
    if n < 1:
        raise ValueError("need at least one exponent")
    if any(e < 0 for e in s):
        raise ValueError("every exponent must be >= 0")
    if n_max < 1:
        return 0

    def divisor_power_sums(e: int) -> list[int]:
        out = [0] * (n_max + 1)
        for length in range(1, n_max + 1):
            powered = length**e
            for m in range(length, n_max + 1, length):
                out[m] += powered
        return out

    acc = divisor_power_sums(s[0])
    for e in s[1:]:
        nxt_factor = divisor_power_sums(e)
        conv = [0] * (n_max + 1)
        for m1 in range(1, n_max + 1):
            a = acc[m1]
            if a == 0:
                continue
            for m2 in range(1, n_max + 1 - m1):
                conv[m1 + m2] += a * nxt_factor[m2]
        acc = conv
    return sum(acc[1:])


def _zeta_float(k: int) -> float:
    """zeta(k) for integer k >= 2, accurate to ~1e-12.

    Partial sum plus the first Euler-Maclaurin corrections for the tail.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    cutoff = 10**5
    total = sum(n ** (-float(k)) for n in range(1, cutoff + 1))
    m = float(cutoff)
    total += m ** (1.0 - k) / (k - 1.0) - 0.5 * m ** (-float(k)) + (k / 12.0) * m ** (
        -float(k) - 1.0
    )
    return total


def asymptotic_prediction(s: tuple[int, ...], n_max: int) -> float:
    """Leading term of cylinder_partial_sum as N grows.

    N^(S+n) / (S+n)! * prod_i s_i! zeta(s_i + 1), with S = sum s_i and
    n = len(s).  Every s_i must be >= 1, since zeta(1) diverges.  Zeta
    values at odd arguments are summed numerically.
    """
    n = len(s)
    if n < 1:
        raise ValueError("need at least one exponent")
    if any(e < 1 for e in s):
        raise ValueError("every exponent must be >= 1")
    total_exp = sum(s) + n
    value = float(n_max) ** total_exp / math.factorial(total_exp)
    for e in s:
        value *= math.factorial(e) * _zeta_float(e + 1)
    return value
