"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance and runtime bound is pinned here.
"""

import time
from fractions import Fraction

from stratavol.pnum import (
    compositions,
    p_bw_value,
    p_value,
    pgvn_polynomial,
    verify_multivariate_relation,
)
from stratavol.ribbon import (
    PerimeterPair,
    Wall,
    count_positive_trees,
    fit_ray_polynomial,
    p0_oracle,
    wall_sample_point,
)
from stratavol.ribbon import _sign_pattern
from stratavol.scalars import PiScaled
from stratavol.sts import verify_cylinder_formula
from stratavol.volumes import (
    a_gn,
    asymptotic_prediction,
    c_series,
    c_series_inverse_route,
    cylinder_partial_sum,
    total_volume,
    verify_bivariate_relation,
)

TABLE_1 = {
    (1, 1): "1/24",
    (2, 1): "1/1440",
    (2, 2): "1/1152",
    (3, 1): "1/7560",
    (3, 2): "1/3840",
    (3, 3): "11/82944",
    (4, 1): "1/13440",
    (4, 2): "5197/29030400",
    (4, 3): "3/20480",
    (4, 4): "335/7962624",
}

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


class _Criterion:
    def __init__(self, number: int, description: str, limit_s: float | None):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} ({elapsed:.2f} s)")
        if exc_type is None and self.limit_s is not None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s} s budget "
                f"({elapsed:.2f} s)"
            )
        return False


def test_criterion_01_table_one():
    with _Criterion(1, "all ten Table-1 contributions reproduced exactly", 5.0):
        for (g, n), text in TABLE_1.items():
            assert a_gn(g, n) == Fraction(text), (g, n)


def test_criterion_02_table_two():
    with _Criterion(2, "all eleven Table-2 p-numbers reproduced exactly", 1.0):
        for parts, expected in TABLE_2.items():
            assert p_value(parts) == expected, parts


def test_criterion_03_bivariate_relation():
    with _Criterion(3, "bivariate relation holds exactly for g <= 6", 30.0):
        assert verify_bivariate_relation(6)


def test_criterion_04_multivariate_relation():
    with _Criterion(4, "multivariate relation holds exactly through weight 8", 60.0):
        assert verify_multivariate_relation(8, 8)


def test_criterion_05_two_route_agreement():
    with _Criterion(5, "table route and inversion route agree to order 12", None):
        assert c_series(12) == c_series_inverse_route(12)


def test_criterion_06_positive_tree_oracle():
    with _Criterion(6, "tree oracle equals the recursion on all small block walls", 600.0):
        checked = 0
        for k in range(1, 5):
            for l in range(1, 5):
                for n in range(1, min(k, l) + 1):
                    for b in compositions(k, n):
                        for w in compositions(l, n):
                            assert p0_oracle(b, w) == p_bw_value(b, w), (b, w)
                            checked += 1
        assert checked == 69


def test_criterion_07_wall_crossing_constancy():
    with _Criterion(7, "positive-tree count constant across >= 4 cells of V_3", None):
        cell_points = [(1, 2, 4), (2, 3, 4), (4, 2, 1), (3, 4, 2), (1, 4, 2)]
        patterns = set()
        for lengths in cell_points:
            point = PerimeterPair(lengths, lengths)
            patterns.add(_sign_pattern(3, 3, point))
            assert count_positive_trees(3, 3, point) == 11
        assert len(patterns) >= 4
        # sampled points of the wall agree with the fixed ones
        for seed in range(3):
            point = wall_sample_point(Wall.diagonal(3), seed=seed)
            assert count_positive_trees(3, 3, point) == 11
        # fully generic points give (3+3-2)! = 24
        for seed in range(3):
            point = wall_sample_point(Wall.full_space(3, 3), seed=seed)
            assert count_positive_trees(3, 3, point) == 24


def test_criterion_08_square_tiled_cross_check():
    with _Criterion(8, "cylinder identity for (g=1, N<=8) and (g=2, N<=6)", 1800.0):
        assert verify_cylinder_formula(1, 8)
        assert verify_cylinder_formula(2, 6)


def test_criterion_09_degree_and_leading_term():
    with _Criterion(9, "ray polynomials have degree 2g and the predicted top term", None):
        poly = fit_ray_polynomial(1, 1, 1, PerimeterPair((1,), (1,)), 6)
        assert poly[-1] == Fraction(1, 6) == pgvn_polynomial(1, 1).evaluate((1,))
        # further cells: the fit itself asserts vanishing differences above 2g
        poly = fit_ray_polynomial(1, 2, 2, PerimeterPair((5, 1), (5, 1)), 6)
        assert poly[-1] == pgvn_polynomial(1, 2).evaluate((5, 1))
        poly = fit_ray_polynomial(1, 2, 2, PerimeterPair((4, 1), (3, 2)), 6)
        assert len(poly) - 1 <= 2


def test_criterion_10_total_volumes():
    with _Criterion(10, "total volumes pi^2/3 (g=1) and pi^4/120 (g=2)", None):
        assert total_volume(1) == PiScaled(Fraction(1, 3), 2)
        assert total_volume(2) == PiScaled(Fraction(1, 120), 4)


def test_criterion_11_asymptotics_sanity():
    with _Criterion(11, "partial sum over prediction in [0.95, 1.05] at N = 10^4", None):
        ratio = cylinder_partial_sum((1,), 10**4) / asymptotic_prediction((1,), 10**4)
        assert 0.95 <= ratio <= 1.05


def test_criterion_12_top_terms_beyond_genus_one():
    with _Criterion(12, "genus-2 and genus-3 ray polynomials, and P^1_{3,3}, have the predicted top term", None):
        poly = fit_ray_polynomial(2, 2, 2, PerimeterPair((2, 1), (2, 1)), 6)
        assert len(poly) - 1 == 4
        assert poly[-1] == Fraction(142, 3) == pgvn_polynomial(2, 2).evaluate((2, 1))
        # two points of the diagonal wall of H_{2,2}, in its two open cells
        cells = set()
        for lengths, top in (((1, 3), Fraction(2153, 12)), ((5, 1), Fraction(13945, 12))):
            point = PerimeterPair(lengths, lengths)
            cells.add(_sign_pattern(2, 2, point))
            poly = fit_ray_polynomial(2, 2, 2, point, 6)
            assert len(poly) - 1 == 4
            assert poly[-1] == top == pgvn_polynomial(2, 2).evaluate(lengths)
        assert len(cells) == 2
        poly = fit_ray_polynomial(3, 1, 1, PerimeterPair((1,), (1,)), 8)
        assert len(poly) - 1 == 6
        assert poly[-1] == Fraction(1, 28) == pgvn_polynomial(3, 1).evaluate((1,))
        # P^1_{3,3} on the diagonal wall of H_{3,3}
        poly = fit_ray_polynomial(1, 3, 3, PerimeterPair((1, 2, 4), (1, 2, 4)), 4)
        assert len(poly) - 1 == 2
        assert poly[-1] == Fraction(1701, 2) == pgvn_polynomial(1, 3).evaluate((1, 2, 4))
