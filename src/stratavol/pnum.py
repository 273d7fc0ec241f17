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
    "WeightedMonomialSeries",
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

class WeightedMonomialSeries:
    """Series in t whose coefficients are polynomials in t_2, t_3, ...

    Every term built here carries the power of t equal to its subscript
    weight, the sum of the subscripts of its t_i factors, and products keep
    that so.  A term is therefore keyed by its sorted subscripts alone, and
    the terms of subscript weight above weight are dropped.
    """

    __slots__ = ("weight", "terms")

    def __init__(self, weight: int, terms: dict[tuple[int, ...], Fraction] | None = None) -> None:
        if weight < 1:
            raise ValueError("weight must be positive")
        self.weight = weight
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for subs, c in terms.items():
                self._add_term(subs, Fraction(c))

    def _add_term(self, subs: tuple[int, ...], coeff: Fraction) -> None:
        if coeff == 0 or sum(subs) > self.weight:
            return
        key = tuple(sorted(subs))
        new = self.terms.get(key, Fraction(0)) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @staticmethod
    def one(weight: int) -> "WeightedMonomialSeries":
        return WeightedMonomialSeries(weight, {(): Fraction(1)})

    def __add__(self, other: "WeightedMonomialSeries") -> "WeightedMonomialSeries":
        out = WeightedMonomialSeries(min(self.weight, other.weight), dict(self.terms))
        for subs, c in other.terms.items():
            out._add_term(subs, c)
        return out

    def __mul__(self, other):
        if isinstance(other, WeightedMonomialSeries):
            out = WeightedMonomialSeries(min(self.weight, other.weight))
            for s1, c1 in self.terms.items():
                for s2, c2 in other.terms.items():
                    out._add_term(s1 + s2, c1 * c2)
            return out
        out = WeightedMonomialSeries(self.weight)
        for subs, c in self.terms.items():
            out._add_term(subs, c * other)
        return out

    __rmul__ = __mul__

    def coefficient_of_t(self, k: int) -> dict[tuple[int, ...], Fraction]:
        """Coefficient of t^k as a map subscript-multiset -> rational."""
        return {subs: c for subs, c in self.terms.items() if sum(subs) == k}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedMonomialSeries):
            return NotImplemented
        return self.terms == other.terms


def t_series(weight: int) -> WeightedMonomialSeries:
    """The generating series of the p-numbers, truncated to total weight.

    The term at t^s carries (s-1) * p_{s_1,..,s_n} / (prod multiplicities!)
    on the monomial t_{s_1}..t_{s_n}, for every partition of s into parts
    >= 2 (this is the composition sum divided by n!, folded over equal
    parts).
    """
    if weight < 1:
        raise ValueError("weight must be positive")
    series = WeightedMonomialSeries.one(weight)
    for s in range(2, weight + 1):
        for parts in partitions(s):
            if parts[-1] < 2:
                continue
            coeff = Fraction(s - 1, multiplicity_factorial(parts)) * p_value(parts)
            series._add_term(parts, coeff)
    return series


def exp_subscript_series(weight: int) -> WeightedMonomialSeries:
    """exp(sum_{i>=2} t_i t^i) in the truncated monomial algebra."""
    x = WeightedMonomialSeries(weight)
    for i in range(2, weight + 1):
        x._add_term((i,), Fraction(1))
    result = WeightedMonomialSeries.one(weight)
    power = WeightedMonomialSeries.one(weight)
    for m in range(1, weight // 2 + 1):
        power = power * x
        result = result + power * Fraction(1, factorial(m))
    return result


def verify_multivariate_relation(k_max: int, weight: int) -> bool:
    """Check (1/k!) [t^k] T^k = [t^k] exp(sum t_i t^i) for 0 <= k <= k_max."""
    if weight < k_max:
        raise ValueError("weight must be at least k_max")
    t_ser = t_series(weight)
    rhs = exp_subscript_series(weight)
    power = WeightedMonomialSeries.one(weight)
    for k in range(k_max + 1):
        if k > 0:
            power = power * t_ser
        lhs_coeff = {
            subs: c / factorial(k) for subs, c in power.coefficient_of_t(k).items()
        }
        if lhs_coeff != rhs.coefficient_of_t(k):
            return False
    return True


# ---------------------------------------------------------------------------
# The homogeneous polynomial carrying the top-degree counting terms
# ---------------------------------------------------------------------------


def compositions(total: int, n: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of n positive integers summing to total."""
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
    terms: dict[tuple[int, ...], Fraction] = field(compare=False)

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
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return HomogeneousVolumePolynomial(genus=g, n=n, terms=terms)
