"""Positive-tree counts p_{s_1,..,s_n} and the series built from them.

The numbers satisfy the recursion

    (s-2)! = p_{s_1,..,s_n}
             + sum_{t=2}^{n} (s-2)_{t-2} / t! *
               sum_{labeled partitions I_1,..,I_t of {1..n}}
                   prod_j (sum_{i in I_j} s_i - 1) * p_{s_{I_j}},

with s = s_1 + .. + s_n, base case p_s = (s-2)! for a single index, and
(x)_m the falling factorial, (x)_0 = 1.  The labeled partitions into t
blocks are the unordered set partitions times t! labelings, so the t! and
the 1/t! cancel and every term is an integer.

A term depends only on the multiset of index values in each block, so the
sum runs over the multiset partitions of the sorted key instead of its
Bell(n) set partitions.  For a key with multiplicity m_v of the value v,
the multiset partition into blocks with multiplicities b_{j,v} stands for

    prod_v m_v! / (prod_j prod_v b_{j,v}! * prod_{equal blocks} r!)

set partitions, where r is the number of times a block repeats.  The
weights are computed by exact integer division with remainder asserted 0,
and each value is asserted to be a positive integer.  Values are memoized
per sorted key for the life of the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, perm, prod
from typing import Iterator

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
    "partitions_min2",
]


def _multiplicity_factor(parts) -> int:
    """prod over runs of equal adjacent items of (run length)!

    For a sorted sequence this is the product of the multiplicities' factorials.
    """
    out = 1
    run = 1
    for a, b in zip(parts, parts[1:]):
        if a == b:
            run += 1
        else:
            out *= factorial(run)
            run = 1
    out *= factorial(run)
    return out


def _vector_partitions(
    rem: tuple[int, ...], bound: tuple[int, ...]
) -> Iterator[list[tuple[int, ...]]]:
    """Partitions of the multiplicity vector rem into non-zero blocks.

    Blocks come in non-increasing lexicographic order, none above bound,
    so each partition appears exactly once.  The largest block holds the
    first value still present, which cuts the search to those blocks.
    """
    if not any(rem):
        yield []
        return
    first = next(i for i, r in enumerate(rem) if r)
    for block in product(*(range(r, -1, -1) for r in rem)):
        if block[first] == 0:
            break
        if block > bound:
            continue
        rest = tuple(r - b for r, b in zip(rem, block))
        for tail in _vector_partitions(rest, block):
            yield [block, *tail]


def _multiset_partitions(key: tuple[int, ...]) -> Iterator[tuple[int, list[tuple[int, ...]]]]:
    """(count, blocks) for each multiset partition of a non-increasing key.

    blocks are non-increasing tuples, equal blocks adjacent, and count is
    the number of set partitions of the key's positions with these blocks.
    """
    values = sorted(set(key), reverse=True)
    total = _multiplicity_factor(key)
    multiplicities = tuple(key.count(v) for v in values)
    for vectors in _vector_partitions(multiplicities, multiplicities):
        blocks = [tuple(v for v, c in zip(values, vec) for _ in range(c)) for vec in vectors]
        denominator = _multiplicity_factor(blocks) * prod(map(_multiplicity_factor, blocks))
        count, remainder = divmod(total, denominator)
        if remainder:
            raise AssertionError(f"set-partition count of {blocks} in {key} is not an integer")
        yield count, blocks


@cache
def _p(key: tuple[int, ...]) -> int:
    """p-number of a non-empty, non-increasing key of parts >= 2."""
    s = sum(key)
    top = factorial(s - 2)
    if len(key) == 1:
        return top
    subtracted = 0
    for count, blocks in _multiset_partitions(key):
        if len(blocks) < 2:
            continue
        term = count * perm(s - 2, len(blocks) - 2)
        for block in blocks:
            term *= (sum(block) - 1) * _p(block)
        subtracted += term
    value = top - subtracted
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

Monomial = tuple[int, tuple[int, ...]]  # (power of t, sorted subscript multiset)


class WeightedMonomialSeries:
    """Series in t whose coefficients are polynomials in t_2, t_3, ...

    Terms are kept only while both the power of t and the subscript weight
    (the sum of the subscripts of the t_i factors) stay <= weight.  In all
    series arising here the subscript weight of a term never exceeds its
    t-power, so products truncated this way are exact in every extracted
    t-coefficient.
    """

    __slots__ = ("weight", "terms")

    def __init__(self, weight: int, terms: dict[Monomial, Fraction] | None = None) -> None:
        if weight < 1:
            raise ValueError("weight must be positive")
        self.weight = weight
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for (tp, subs), c in terms.items():
                self._add_term(tp, subs, Fraction(c))

    def _add_term(self, t_pow: int, subs: tuple[int, ...], coeff: Fraction) -> None:
        if coeff == 0 or t_pow > self.weight or sum(subs) > self.weight:
            return
        key = (t_pow, tuple(sorted(subs)))
        new = self.terms.get(key, Fraction(0)) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @staticmethod
    def one(weight: int) -> "WeightedMonomialSeries":
        return WeightedMonomialSeries(weight, {(0, ()): Fraction(1)})

    def __add__(self, other: "WeightedMonomialSeries") -> "WeightedMonomialSeries":
        out = WeightedMonomialSeries(min(self.weight, other.weight), dict(self.terms))
        for (tp, subs), c in other.terms.items():
            out._add_term(tp, subs, c)
        return out

    def __mul__(self, other):
        if isinstance(other, WeightedMonomialSeries):
            out = WeightedMonomialSeries(min(self.weight, other.weight))
            for (tp1, s1), c1 in self.terms.items():
                for (tp2, s2), c2 in other.terms.items():
                    out._add_term(tp1 + tp2, s1 + s2, c1 * c2)
            return out
        out = WeightedMonomialSeries(self.weight)
        for (tp, subs), c in self.terms.items():
            out._add_term(tp, subs, c * other)
        return out

    __rmul__ = __mul__

    def coefficient_of_t(self, k: int) -> dict[tuple[int, ...], Fraction]:
        """Coefficient of t^k as a map subscript-multiset -> rational."""
        return {
            subs: c for (tp, subs), c in self.terms.items() if tp == k and c != 0
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedMonomialSeries):
            return NotImplemented
        return self.terms == other.terms


def partitions_min2(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of total into parts >= 2, non-increasing, in decreasing lexicographic order."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 1, -1):
        if total - first == 1:
            continue
        for rest in partitions_min2(total - first, first):
            yield (first,) + rest


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
        for parts in partitions_min2(s):
            coeff = Fraction(s - 1, _multiplicity_factor(parts)) * p_value(parts)
            series._add_term(s, parts, coeff)
    return series


def exp_subscript_series(weight: int) -> WeightedMonomialSeries:
    """exp(sum_{i>=2} t_i t^i) in the truncated monomial algebra."""
    x = WeightedMonomialSeries(weight)
    for i in range(2, weight + 1):
        x._add_term(i, (i,), Fraction(1))
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


def compositions(total: int, n: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of n integers >= minimum summing to total."""
    if n == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (n - 1) + 1):
        for rest in compositions(total - first, n - 1, minimum):
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
    for comp in compositions(g + n, n, minimum=1):
        exps = tuple(2 * s - 2 for s in comp)
        coeff = Fraction(2**n) * p_value(tuple(2 * s for s in comp))
        for s in comp:
            coeff /= factorial(2 * s)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return HomogeneousVolumePolynomial(genus=g, n=n, terms=terms)
