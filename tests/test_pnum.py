from fractions import Fraction
from itertools import permutations
from math import factorial, perm
from typing import Iterator

import pytest

from stratavol import pnum
from stratavol.pnum import (
    HomogeneousVolumePolynomial,
    _multiset_partitions,
    compositions,
    exp_subscript_series,
    p_bw_value,
    p_value,
    partitions_min2,
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
            for parts in partitions_min2(weight):
                s = sum(parts)
                for ordering in set(permutations(parts)):
                    assert p_value(ordering) == factorial(s - 2) - reference_sum(ordering)

    def test_part_below_two_rejected(self):
        with pytest.raises(ValueError):
            p_value((4, 1))

    def test_nonpositive_value_is_an_internal_error(self, monkeypatch):
        # p_{2,2} = 2! - p_2 * p_2; an inflated p_2 must not pass silently.
        uncached = pnum._p.__wrapped__
        monkeypatch.setattr(pnum, "_p", lambda key: 2)
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
        assert sum(count for count, _ in _multiset_partitions(key)) == BELL[6]

    def test_each_partition_once(self):
        found = [tuple(blocks) for _, blocks in _multiset_partitions((4, 2, 2))]
        assert sorted(found) == sorted(
            [((4, 2, 2),), ((4, 2), (2,)), ((4,), (2, 2)), ((4,), (2,), (2,))]
        )


class TestTSeries:
    def test_constant_term(self):
        assert t_series(4).coefficient_of_t(0) == {(): Fraction(1)}

    def test_linear_coefficient(self):
        assert t_series(4).coefficient_of_t(2) == {(2,): Fraction(1)}

    def test_weight_four_coefficient(self):
        c4 = t_series(4).coefficient_of_t(4)
        assert c4 == {(4,): Fraction(6), (2, 2): Fraction(3, 2)}


class TestMultivariateRelation:
    def test_trivial_orders(self):
        assert verify_multivariate_relation(0, 4)
        assert verify_multivariate_relation(1, 4)

    def test_exp_side_normalization(self):
        rhs = exp_subscript_series(6)
        assert rhs.coefficient_of_t(4) == {(4,): Fraction(1), (2, 2): Fraction(1, 2)}

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


def test_compositions_enumeration():
    assert sorted(compositions(4, 2, 1)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 1, 1)) == [(3,)]
