from fractions import Fraction

import pytest

from stratavol import volumes
from stratavol.scalars import PiScaled
from stratavol.series import UPoly
from stratavol.volumes import (
    a_gn,
    asymptotic_prediction,
    c_series,
    c_series_inverse_route,
    cylinder_partial_sum,
    total_volume,
    verify_bivariate_relation,
    vol_n,
)

# Published normalized contributions for g <= 4.
TABLE_1 = {
    (1, 1): Fraction(1, 24),
    (2, 1): Fraction(1, 1440),
    (2, 2): Fraction(1, 1152),
    (3, 1): Fraction(1, 7560),
    (3, 2): Fraction(1, 3840),
    (3, 3): Fraction(11, 82944),
    (4, 1): Fraction(1, 13440),
    (4, 2): Fraction(5197, 29030400),
    (4, 3): Fraction(3, 20480),
    (4, 4): Fraction(335, 7962624),
}


class TestAgn:
    @pytest.mark.parametrize("key, expected", sorted(TABLE_1.items()))
    def test_published_table(self, key, expected):
        assert a_gn(*key) == expected

    def test_positivity(self):
        for g in range(1, 6):
            for n in range(1, g + 1):
                assert a_gn(g, n) > 0

    @pytest.mark.parametrize("g, n", [(1, 2), (2, 0), (0, 1)])
    def test_domain_rejected(self, g, n):
        with pytest.raises(ValueError):
            a_gn(g, n)

    def test_nonpositive_value_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(volumes, "p_value", lambda parts: 0)
        with pytest.raises(AssertionError):
            a_gn.__wrapped__(2, 1)


class TestVolN:
    def test_torus_contribution(self):
        assert vol_n(1, 1) == PiScaled(Fraction(1, 3), 2)

    def test_genus_two_contributions(self):
        # 2 * 2^4 / 3! times the table entries.
        assert vol_n(2, 1) == PiScaled(Fraction(1, 270), 4)
        assert vol_n(2, 2) == PiScaled(Fraction(1, 216), 4)

    def test_zeta_and_bernoulli_forms_agree_through_g8(self):
        # vol_n computes both forms and raises on any mismatch.
        for g in range(1, 9):
            for n in range(1, g + 1):
                vol_n(g, n)

    def test_total_volumes(self):
        assert total_volume(1) == PiScaled(Fraction(1, 3), 2)
        assert total_volume(2) == PiScaled(Fraction(1, 120), 4)


class TestCSeries:
    def test_low_coefficients(self):
        c = c_series(6)
        assert c.coefficient(0) == UPoly.const(1)
        assert c.coefficient(2) == UPoly((0, Fraction(1, 24)))
        assert c.coefficient(3).is_zero()
        assert c.coefficient(4) == UPoly((0, Fraction(3, 1440), Fraction(3, 1152)))

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            c_series(5)


class TestInverseRoute:
    def test_normalization(self):
        c = c_series_inverse_route(4)
        assert c.coefficient(0) == UPoly.const(1)
        assert c.coefficient(2) == UPoly((0, Fraction(1, 24)))

    def test_agreement_with_table_route(self):
        assert c_series_inverse_route(8) == c_series(8)


class TestBivariateRelation:
    def test_trivial(self):
        assert verify_bivariate_relation(0)

    def test_first_identity(self):
        assert verify_bivariate_relation(1)

    def test_through_genus_three(self):
        assert verify_bivariate_relation(3)


class TestPartialSums:
    @pytest.mark.parametrize(
        "s, n, expected", [((1,), 1, 1), ((1,), 2, 4), ((1, 1), 2, 1)]
    )
    def test_small_exact_values(self, s, n, expected):
        assert cylinder_partial_sum(s, n) == expected

    def test_one_variable_matches_divisor_sums(self):
        def sigma(m):
            return sum(d for d in range(1, m + 1) if m % d == 0)

        assert cylinder_partial_sum((1,), 30) == sum(sigma(m) for m in range(1, 31))

    def test_prediction_formula_shape(self):
        import math

        value = asymptotic_prediction((1,), 100)
        zeta2 = math.pi**2 / 6
        assert value == pytest.approx(100**2 / 2 * zeta2, rel=1e-9)

    def test_ratio_converges_moderate_n(self):
        ratio = cylinder_partial_sum((1,), 2000) / asymptotic_prediction((1,), 2000)
        assert 0.95 <= ratio <= 1.05

    def test_ratio_two_variables(self):
        ratio = cylinder_partial_sum((1, 1), 400) / asymptotic_prediction((1, 1), 400)
        assert 0.85 <= ratio <= 1.15
