from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, perm
from typing import Iterator

import pytest

from stratavol import pnum
from stratavol.permutation import partitions
from stratavol.pnum import (
    HomogeneousVolumePolynomial,
    compositions,
    exp_subscript_series,
    p_bw_value,
    p_value,
    pgvn_polynomial,
    t_series,
    verify_multivariate_relation,
)

# Published values for all even-index entries of weight at most 8.
TABLE_2 = {
    (2,): 1,
    (4,): 2,
    (2, 2): 1,
    (6,): 24,
    (4, 2): 18,
    (2, 2, 2): 11,
    (8,): 720,
    (6, 2): 600,
    (4, 4): 684,
    (4, 2, 2): 486,
    (2, 2, 2, 2): 335,
}


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def set_partitions(n: int) -> Iterator[list[tuple[int, ...]]]:
    """Unordered partitions of {0,..,n-1} into non-empty blocks.

    Element i joins an existing block or opens a new one, which is the
    restricted-growth enumeration; each partition appears exactly once.
    """
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[list[tuple[int, ...]]]:
        if i == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def reference_sum(parts: tuple[int, ...]) -> Fraction:
    """The subtracted double sum of the recursion, as written, for indices in the given order.

    Sums in rationals over all Bell(n) set partitions of the positions, each
    counted with its t! labelings and the 1/t! of the recursion.
    """
    s = sum(parts)
    acc = Fraction(0)
    for blocks in set_partitions(len(parts)):
        t = len(blocks)
        if t < 2:
            continue
        term = Fraction(perm(s - 2, t - 2) * factorial(t), factorial(t))
        for block in blocks:
            block_sum = sum(parts[i] for i in block)
            term *= (block_sum - 1) * p_value(tuple(parts[i] for i in block))
        acc += term
    return acc


class TestPartitionIndex:
    # A key of p_value is a partition index: a non-empty multiset of parts >= 2.
    def test_rejects_small_parts(self):
        with pytest.raises(ValueError):
            p_value((2, 1))
        with pytest.raises(ValueError):
            p_value(())


class TestPValue:
    @pytest.mark.parametrize("parts, expected", sorted(TABLE_2.items()))
    def test_published_table(self, parts, expected):
        assert p_value(parts) == expected

    @pytest.mark.parametrize("s", range(2, 13))
    def test_single_part_factorial(self, s):
        assert p_value((s,)) == factorial(s - 2)

    def test_worked_two_part_check(self):
        # 2! = p_{2,2} + (1/2)(1*1 + 1*1)
        assert factorial(2) == p_value((2, 2)) + 1

    def test_odd_indices_computable_and_positive(self):
        for parts in [(3,), (3, 2), (5, 3), (3, 3, 2), (7, 2)]:
            value = p_value(parts)
            assert isinstance(value, int) and value > 0

    def test_order_invariance_of_raw_recursion(self):
        # Every key of weight <= 12, odd parts included, in every order of
        # its parts: the integer core equals the set-partition route.
        for weight in range(2, 13):
            for parts in partitions(weight):
                if parts[-1] < 2:
                    continue
                s = sum(parts)
                for ordering in set(permutations(parts)):
                    assert p_value(ordering) == factorial(s - 2) - reference_sum(ordering)

    def test_part_below_two_rejected(self):
        with pytest.raises(ValueError):
            p_value((4, 1))

    def test_nonpositive_value_is_an_internal_error(self, monkeypatch):
        # p_{2,2} = 2! - S_2(2, 2); an inflated S_2 must not pass silently.
        # The cached _p and _blocks are left alone, so no poisoned entry outlives the patch.
        uncached = pnum._p.__wrapped__
        monkeypatch.setattr(pnum, "_blocks", lambda key, t: 2)
        with pytest.raises(AssertionError):
            uncached((2, 2))


class TestPbw:
    @pytest.mark.parametrize(
        "b, w, expected",
        [((1, 1), (1, 1), 1), ((2,), (2,), 2), ((1,), (2,), 1), ((2, 1), (1, 1), 4)],
    )
    def test_examples(self, b, w, expected):
        assert p_bw_value(b, w) == expected

    def test_depends_only_on_sums(self):
        assert p_bw_value((3, 1), (1, 1)) == p_bw_value((2, 1), (2, 1)) == p_value((4, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            p_bw_value((1, 1), (2,))


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in BELL.items():
            assert sum(1 for _ in set_partitions(n)) == bell

    def test_blocks_partition_ground_set(self):
        for blocks in set_partitions(4):
            flat = sorted(i for block in blocks for i in block)
            assert flat == [0, 1, 2, 3]


class TestMultisetPartitions:
    @pytest.mark.parametrize("key", [(6, 4, 4, 2, 2, 2), (2, 2, 2, 2, 2, 2)])
    def test_weights_sum_to_bell_number(self, key):
        # Splitting off the first block recursively, with each block weighted
        # by the position blocks it stands for, counts every set partition once.
        def count(key):
            if not key:
                return 1
            return sum(n * count(left) for n, _, left in pnum._first_blocks(key))

        assert count(key) == BELL[6]


class TestBlocks:
    def test_each_block_count_matches_set_partitions(self):
        # S_t(K) for every key of weight <= 12 and every t: the binomial
        # first-block count equals the sum over the set partitions into t blocks.
        for weight in range(2, 13):
            for key in partitions(weight):
                if key[-1] < 2:
                    continue
                expected = {t: 0 for t in range(1, len(key) + 1)}
                for blocks in set_partitions(len(key)):
                    term = 1
                    for block in blocks:
                        parts = tuple(key[i] for i in block)
                        term *= (sum(parts) - 1) * p_value(parts)
                    expected[len(blocks)] += term
                for t, value in expected.items():
                    assert pnum._blocks(key, t) == value, (key, t)


def coefficient_of_t(series, k):
    """The terms of a subscript-keyed series that carry t^k."""
    return {s: c for s, c in series.items() if sum(s) == k}


def reference_times(a, b, weight):
    """Product of two subscript-keyed series, dropping terms of weight above weight."""
    out = {}
    for (s1, c1), (s2, c2) in product(a.items(), b.items()):
        key = tuple(sorted(s1 + s2, reverse=True))
        if sum(key) <= weight:
            out[key] = out.get(key, 0) + c1 * c2
    return out


def reference_exp_series(weight):
    """exp(x) as sum_{m <= weight/2} x^m / m! with x = sum_{i>=2} t_i t^i."""
    x = {(i,): Fraction(1) for i in range(2, weight + 1)}
    result = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for m in range(1, weight // 2 + 1):
        power = reference_times(power, x, weight)
        for key, c in power.items():
            result[key] = result.get(key, 0) + c / factorial(m)
    return result


def unfolded_t_series(weight):
    """T as the sum over compositions of s into n parts >= 2 of (s-1) p / n!."""
    series = {(): Fraction(1)}
    for s in range(2, weight + 1):
        for n in range(1, s // 2 + 1):
            for comp in compositions(s, n):
                if min(comp) >= 2:
                    key = tuple(sorted(comp, reverse=True))
                    term = Fraction((s - 1) * p_value(comp), factorial(n))
                    series[key] = series.get(key, 0) + term
    return series


class TestTSeries:
    def test_constant_term(self):
        assert coefficient_of_t(t_series(4), 0) == {(): Fraction(1)}

    def test_linear_coefficient(self):
        assert coefficient_of_t(t_series(4), 2) == {(2,): Fraction(1)}

    def test_weight_four_coefficient(self):
        c4 = coefficient_of_t(t_series(4), 4)
        assert c4 == {(4,): Fraction(6), (2, 2): Fraction(3, 2)}

    @pytest.mark.parametrize("weight", range(1, 11))
    def test_matches_unfolded_composition_sum(self, weight):
        assert t_series(weight) == unfolded_t_series(weight)


class TestMultivariateRelation:
    def test_trivial_orders(self):
        assert verify_multivariate_relation(0, 4)
        assert verify_multivariate_relation(1, 4)

    def test_exp_side_normalization(self):
        rhs = exp_subscript_series(6)
        assert coefficient_of_t(rhs, 4) == {(4,): Fraction(1), (2, 2): Fraction(1, 2)}

    @pytest.mark.parametrize("weight", range(1, 13))
    def test_exp_side_matches_power_sum(self, weight):
        # the closed form 1 / prod m_i! against the truncated sum of x^m / m!
        assert exp_subscript_series(weight) == reference_exp_series(weight)

    def test_full_weight_eight(self):
        assert verify_multivariate_relation(8, 8)

    def test_weight_below_kmax_rejected(self):
        with pytest.raises(ValueError):
            verify_multivariate_relation(4, 3)


class TestPgvn:
    @pytest.mark.parametrize(
        "g, n, terms",
        [
            (0, 1, {(0,): Fraction(1)}),
            (1, 1, {(2,): Fraction(1, 6)}),
            (0, 2, {(0, 0): Fraction(1)}),
        ],
    )
    def test_examples(self, g, n, terms):
        assert pgvn_polynomial(g, n).terms == terms

    def test_positivity_and_degree(self):
        for g, n in [(1, 2), (2, 1), (2, 2), (3, 2)]:
            poly = pgvn_polynomial(g, n)
            assert all(c > 0 for c in poly.terms.values())
            assert all(sum(e) == 2 * g for e in poly.terms)

    def test_evaluate(self):
        assert pgvn_polynomial(1, 1).evaluate((3,)) == Fraction(3, 2)

    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousVolumePolynomial(1, 1, {(2,): Fraction(-1)})
        with pytest.raises(ValueError):
            HomogeneousVolumePolynomial(1, 1, {(1,): Fraction(1)})

    def test_equality_compares_terms(self):
        poly = pgvn_polynomial(2, 1)
        assert poly != HomogeneousVolumePolynomial(2, 1, {(4,): Fraction(999)})
        same = HomogeneousVolumePolynomial(2, 1, dict(poly.terms))
        assert poly == same and hash(poly) == hash(same)


def test_compositions_enumeration():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 1)) == [(3,)]
    for total in range(1, 11):
        for n in range(1, total + 1):
            found = list(compositions(total, n))
            assert len(found) == len(set(found)) == comb(total - 1, n - 1)
            assert all(len(c) == n and sum(c) == total and min(c) >= 1 for c in found)


@pytest.mark.parametrize("n", [0, -2])
def test_compositions_need_a_part(n):
    with pytest.raises(ValueError, match="n >= 1"):
        list(compositions(3, n))
