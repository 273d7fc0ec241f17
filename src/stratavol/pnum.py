"""Positive-tree counts p_{s_1,..,s_n} and the series built from them.

The numbers satisfy the recursion

    (s-2)! = p_{s_1,..,s_n}
             + sum_{t=2}^{n} (s-2)_{t-2} / t! *
               sum_{labeled partitions I_1,..,I_t of {1..n}}
                   prod_j (sum_{i in I_j} s_i - 1) * p_{s_{I_j}},

with s = s_1 + .. + s_n, base case p_s = (s-2)! for a single index, and
(x)_m the falling factorial, (x)_0 = 1.  The labeled partitions into t
blocks are the unordered set partitions times t! labelings, so the t! and
the 1/t! cancel and every term is an integer:

    p_{s_1,..,s_n} = (s-2)! - sum_{t=2}^{n} (s-2)_{t-2} * S_t,

where S_t sums prod_j (sum_{i in I_j} s_i - 1) * p_{s_{I_j}} over the
unordered set partitions into t blocks.  S_t is taken by the block that
holds the first index.  If the key has m_v further indices of
the value v, a block that takes b_v of them stands for prod_v C(m_v, b_v)
blocks of positions, and what is left of the key splits into t - 1 blocks:

    S_t(K) = sum_B prod_v C(m_v, b_v) * (sum B - 1) * p_B * S_{t-1}(K - B),

with S_0 of the empty key 1, and S_t = 0 when exactly one of t and the key
is empty.  S_t and p are memoized per (sorted key, t) and per sorted key
for the life of the process, and each p is asserted to be positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import groupby, product
from math import comb, factorial, perm, prod
from typing import Iterator

from .permutation import multiplicity_factorial, partitions

__all__ = [
    "p_value",
    "p_bw_value",
    "t_series",
    "exp_subscript_series",
    "verify_multivariate_relation",
    "HomogeneousVolumePolynomial",
    "pgvn_polynomial",
    "compositions",
]


@cache
def _first_blocks(
    key: tuple[int, ...],
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """Every block B holding key[0], as (prod_v C(m_v, b_v), B, key - B).

    The first entry counts the blocks of positions that B stands for, so the
    entries of a key of n positions, each weighted by the number of set
    partitions of what is left, add up to the Bell number of n.
    """
    values = [v for v, _ in groupby(key)]
    counts = [key.count(v) for v in values]
    counts[0] -= 1
    return tuple(
        (
            prod(map(comb, counts, picks)),
            key[:1] + tuple(v for v, b in zip(values, picks) for _ in range(b)),
            tuple(v for v, m, b in zip(values, counts, picks) for _ in range(m - b)),
        )
        for picks in product(*(range(m + 1) for m in counts))
    )


@cache
def _blocks(key: tuple[int, ...], t: int) -> int:
    """S_t(key): sum over set partitions of key's positions into t blocks.

    Each partition contributes prod over its blocks B of (sum B - 1) * p_B.
    """
    if not key or not t:
        return int(not key and not t)
    total = 0
    for count, block, left in _first_blocks(key):
        rest = _blocks(left, t - 1)
        if rest:
            total += count * (sum(block) - 1) * _p(block) * rest
    return total


@cache
def _p(key: tuple[int, ...]) -> int:
    """p-number of a non-empty, non-increasing key of parts >= 2."""
    s = sum(key)
    value = factorial(s - 2) - sum(
        perm(s - 2, t - 2) * _blocks(key, t) for t in range(2, len(key) + 1)
    )
    if value <= 0:
        raise AssertionError(f"recursion for {key} gave non-positive value {value}")
    return value


def p_value(parts) -> int:
    """The positive integer p_{s_1,..,s_n}; indices may come in any order."""
    key = tuple(sorted(parts, reverse=True))
    if not key:
        raise ValueError("at least one part required")
    if key[-1] < 2:
        raise ValueError("all parts must be >= 2")
    return _p(key)


def p_bw_value(b: tuple[int, ...], w: tuple[int, ...]) -> int:
    """Block-wall value p^b_w; depends only on the sums b_i + w_i."""
    if len(b) != len(w):
        raise ValueError("b and w must have the same length")
    if any(x < 1 for x in b) or any(x < 1 for x in w):
        raise ValueError("all block sizes must be >= 1")
    return p_value(tuple(bi + wi for bi, wi in zip(b, w)))


# ---------------------------------------------------------------------------
# Multivariate generating series
# ---------------------------------------------------------------------------

def _subscripts(weight: int) -> Iterator[tuple[int, ...]]:
    """Every partition of 2..weight into parts >= 2, as a non-increasing key."""
    for s in range(2, weight + 1):
        for parts in partitions(s):
            if parts[-1] >= 2:
                yield parts


def t_series(weight: int) -> dict[tuple[int, ...], Fraction]:
    """The generating series of the p-numbers, truncated to total weight.

    A series in t whose coefficients are polynomials in t_2, t_3, ... is a
    dict from the non-increasing subscripts of a monomial to its rational
    coefficient; every monomial carries the power of t equal to the sum of
    its subscripts.  The term at t^s carries (s-1) * p_{s_1,..,s_n} /
    (prod multiplicities!) on the monomial t_{s_1}..t_{s_n}, for every
    partition of s into parts >= 2 (this is the composition sum divided by
    n!, folded over equal parts).
    """
    if weight < 1:
        raise ValueError("weight must be positive")
    series = {(): Fraction(1)}
    for parts in _subscripts(weight):
        series[parts] = Fraction(sum(parts) - 1, multiplicity_factorial(parts)) * _p(parts)
    return series


def exp_subscript_series(weight: int) -> dict[tuple[int, ...], Fraction]:
    """exp(sum_{i>=2} t_i t^i), truncated to total weight, keyed as in t_series.

    The exponential is prod_i exp(t_i t^i), so the monomial prod_i t_i^{m_i}
    has the coefficient 1 / prod_i m_i!.
    """
    if weight < 1:
        raise ValueError("weight must be positive")
    series = {(): Fraction(1)}
    for parts in _subscripts(weight):
        series[parts] = Fraction(1, multiplicity_factorial(parts))
    return series


def _times(
    a: dict[tuple[int, ...], Fraction], b: dict[tuple[int, ...], Fraction], weight: int
) -> dict[tuple[int, ...], Fraction]:
    """The product a * b without its terms of total weight above weight."""
    out: dict[tuple[int, ...], Fraction] = {}
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            if sum(s1) + sum(s2) <= weight:
                key = tuple(sorted(s1 + s2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
    return out


def verify_multivariate_relation(k_max: int, weight: int) -> bool:
    """Check (1/k!) [t^k] T^k = [t^k] exp(sum t_i t^i) for 0 <= k <= k_max."""
    if weight < k_max:
        raise ValueError("weight must be at least k_max")
    t_ser = t_series(weight)
    rhs = exp_subscript_series(weight)
    power = {(): Fraction(1)}
    for k in range(k_max + 1):
        if k > 0:
            power = _times(power, t_ser, weight)
        lhs_coeff = {s: c / factorial(k) for s, c in power.items() if sum(s) == k}
        if lhs_coeff != {s: c for s, c in rhs.items() if sum(s) == k}:
            return False
    return True


# ---------------------------------------------------------------------------
# The homogeneous polynomial carrying the top-degree counting terms
# ---------------------------------------------------------------------------


def compositions(total: int, n: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of n positive integers summing to total; n must be >= 1."""
    if n < 1:
        raise ValueError("compositions need n >= 1 parts")
    if n == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - (n - 1) + 1):
        for rest in compositions(total - first, n - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class HomogeneousVolumePolynomial:
    """Symmetric homogeneous polynomial of degree 2g in (L_1,..,L_n).

    terms maps the exponent tuple (2s_1-2,..,2s_n-2) of each composition
    to its (strictly positive) rational coefficient.
    """

    genus: int
    n: int
    terms: dict[tuple[int, ...], Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        for exps, coeff in self.terms.items():
            if sum(exps) != 2 * self.genus:
                raise ValueError(f"term {exps} does not have total degree {2 * self.genus}")
            if coeff <= 0:
                raise ValueError(f"coefficient of {exps} is not positive")

    def evaluate(self, lengths) -> Fraction:
        values = tuple(Fraction(x) for x in lengths)
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} lengths")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                term *= val**e
            total += term
        return total


def pgvn_polynomial(g: int, n: int) -> HomogeneousVolumePolynomial:
    """2^n sum over compositions s of g+n of p_{2s} prod L_i^{2s_i-2}/(2s_i)!."""
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    terms: dict[tuple[int, ...], Fraction] = {}
    for comp in compositions(g + n, n):
        exps = tuple(2 * s - 2 for s in comp)
        coeff = Fraction(2**n) * p_value(tuple(2 * s for s in comp))
        for s in comp:
            coeff /= factorial(2 * s)
        terms[exps] = coeff
    return HomogeneousVolumePolynomial(genus=g, n=n, terms=terms)
