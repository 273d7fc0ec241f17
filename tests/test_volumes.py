import io
import math
from fractions import Fraction
from functools import cache

import pytest

from stratavol import volumes
from stratavol.cli import main
from stratavol.permutation import multiplicity_factorial, partitions
from stratavol.pnum import p_value
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
        with pytest.raises(AssertionError, match="must be positive"):
            volumes._genus_walk.__wrapped__(2)

    def test_one_walk_per_genus(self):
        # a_gn, vol_n and the totals of `volumes --gmax 10` share each walk
        volumes._genus_walk.cache_clear()
        assert main(["volumes", "--gmax", "10"], out=io.StringIO()) == 0
        assert volumes._genus_walk.cache_info().misses == 10


class TestVolN:
    def test_torus_contribution(self):
        assert vol_n(1, 1) == PiScaled(Fraction(1, 3), 2)

    def test_genus_two_contributions(self):
        # 2 * 2^4 / 3! times the table entries.
        assert vol_n(2, 1) == PiScaled(Fraction(1, 270), 4)
        assert vol_n(2, 2) == PiScaled(Fraction(1, 216), 4)

    def test_total_volumes(self):
        assert total_volume(1) == PiScaled(Fraction(1, 3), 2)
        assert total_volume(2) == PiScaled(Fraction(1, 120), 4)


@cache
def zeta_over_pi_power(s: int) -> Fraction:
    """r_s = zeta(2s) / pi^(2s), with no Bernoulli number on the way.

    r_1 = 1/6 and (s + 1/2) r_s = sum_{k=1}^{s-1} r_k r_{s-k}, the
    recurrence of the power series of (1 - x cot x) / 2 = sum r_s x^(2s).
    """
    if s == 1:
        return Fraction(1, 6)
    total = sum(zeta_over_pi_power(k) * zeta_over_pi_power(s - k) for k in range(1, s))
    return total / Fraction(2 * s + 1, 2)


class TestZetaForm:
    @pytest.mark.parametrize(
        "s, ratio",
        [(1, Fraction(1, 6)), (2, Fraction(1, 90)), (3, Fraction(1, 945))],
    )
    def test_small_values(self, s, ratio):
        assert zeta_over_pi_power(s) == ratio

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_float_sanity_against_partial_sums(self, s):
        partial = sum(n ** (-2.0 * s) for n in range(1, 10**6 + 1))
        value = PiScaled(zeta_over_pi_power(s), 2 * s).to_float()
        assert abs(value - partial) / partial < 1e-6

    def test_vol_n_is_the_zeta_form_through_g10(self):
        # vol_n(g, n) = (2/(2g-1)!) (1/n!) sum over compositions of g of
        # p_{2s} prod zeta(2s_i)/s_i, summed here over partitions instead
        for g in range(1, 11):
            sums = [Fraction(0)] * (g + 1)
            for parts in partitions(g):
                term = Fraction(p_value(tuple(2 * s for s in parts)), multiplicity_factorial(parts))
                for s in parts:
                    term *= zeta_over_pi_power(s) / s
                sums[len(parts)] += term
            for n in range(1, g + 1):
                expected = PiScaled(Fraction(2, math.factorial(2 * g - 1)) * sums[n], 2 * g)
                assert vol_n(g, n) == expected, (g, n)


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

    def test_agreement_at_benchmark_order(self):
        assert c_series_inverse_route(20) == c_series(20)

    def test_agreement_at_order_30(self):
        assert c_series_inverse_route(30) == c_series(30)


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

    @pytest.mark.parametrize("s", [(-1,), (1, -2)])
    def test_negative_exponent_refused(self, s):
        # a negative power of L is no longer an integer
        with pytest.raises(ValueError, match="every exponent must be >= 0"):
            cylinder_partial_sum(s, 4)

    def test_one_variable_matches_divisor_sums(self):
        def sigma(m):
            return sum(d for d in range(1, m + 1) if m % d == 0)

        assert cylinder_partial_sum((1,), 30) == sum(sigma(m) for m in range(1, 31))

    @pytest.mark.parametrize("function", [cylinder_partial_sum, asymptotic_prediction])
    def test_empty_exponents_refused(self, function):
        with pytest.raises(ValueError, match="need at least one exponent"):
            function((), 4)

    def test_prediction_formula_shape(self):
        value = asymptotic_prediction((1,), 100)
        zeta2 = math.pi**2 / 6
        assert value == pytest.approx(100**2 / 2 * zeta2, rel=1e-9)

    @pytest.mark.parametrize("s", [(0,), (1, 0), (-1,)])
    def test_prediction_refuses_exponent_below_one(self, s):
        # zeta(s_i + 1) diverges at s_i = 0
        with pytest.raises(ValueError, match="every exponent must be >= 1"):
            asymptotic_prediction(s, 4)

    def test_ratio_converges_moderate_n(self):
        ratio = cylinder_partial_sum((1,), 2000) / asymptotic_prediction((1,), 2000)
        assert 0.95 <= ratio <= 1.05

    def test_ratio_two_variables(self):
        ratio = cylinder_partial_sum((1, 1), 400) / asymptotic_prediction((1, 1), 400)
        assert 0.85 <= ratio <= 1.15
