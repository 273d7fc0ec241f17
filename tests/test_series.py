import random
from fractions import Fraction
from math import factorial

import pytest

from stratavol.series import (
    TruncatedSeries,
    UPoly,
    _dot,
    _power,
    lagrange_invert,
    series_exp,
    series_inverse,
    series_pow_u,
    sine_quotient,
)


def random_series(rng, order, constant, u_free=True):
    coeffs = [UPoly.const(constant)]
    for _ in range(order):
        if u_free:
            coeffs.append(UPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        else:
            coeffs.append(
                UPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)])
            )
    return TruncatedSeries(order, coeffs)


# The algorithms the recurrences in stratavol.series replaced, kept here as
# references only: the power sum for exp, exp(u log f) for f^u with log by
# its power sum, the convolution loop for 1/f and back-substitution for
# the compositional inverse.  The log round trips run through reference_log.
# Every product in them is the Fraction double loop of fraction_mul and
# every series sum the Fraction loop of series_add, so no reference runs
# through the integer kernel stratavol.series._dot.


def fraction_mul(a, b):
    """a * b for UPolys, one Fraction product per pair of coefficients."""
    out = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return UPoly(out)


def series_add(f, g, c=1):
    """f + c*g, summed coefficient by coefficient on Fractions, at the lower order."""
    sums = []
    for a, b in zip(f.coeffs, g.coeffs):
        width = max(len(a.coeffs), len(b.coeffs))
        sums.append(UPoly(a.coefficient(j) + c * b.coefficient(j) for j in range(width)))
    return TruncatedSeries(len(sums) - 1, sums)


def reference_exp(f):
    n = f.order
    result = TruncatedSeries.one(n)
    power = TruncatedSeries.one(n)
    for m in range(1, n + 1):
        power = reference_mul(power, f)
        result = series_add(result, power, Fraction(1, factorial(m)))
    return result


def reference_log(f):
    n = f.order
    g = series_add(f, TruncatedSeries.one(n), -1)
    result = TruncatedSeries.from_dict(n, {})
    power = TruncatedSeries.one(n)
    for m in range(1, n + 1):
        power = reference_mul(power, g)
        result = series_add(result, power, Fraction((-1) ** (m + 1), m))
    return result


def reference_pow_u(f):
    logf = reference_log(f)
    return reference_exp(
        TruncatedSeries(logf.order, [fraction_mul(UPoly.u(), c) for c in logf.coeffs])
    )


def reference_inverse(f):
    n = f.order
    inv = [UPoly.const(1)]
    for m in range(1, n + 1):
        acc = UPoly.zero()
        for k in range(1, m + 1):
            acc = acc + fraction_mul(f.coeffs[k], inv[m - k])
        inv.append(acc * -1)
    return TruncatedSeries(n, inv)


def reference_lagrange_invert(q):
    """Back-substitution: once r is right modulo t^k, subtract the defect of q(r) at t^k.

    powers[j][i] is [t^i] r^j.  For j >= 2 it reads only r_1 .. r_(i-1),
    so each step first extends every power by its t^k coefficient, then
    reads the defect [t^k] q(r) off them: O(order^3) products in all.
    """
    n = q.order
    rs = [UPoly.zero(), UPoly.const(1)]
    powers = [None, rs]
    for k in range(2, n + 1):
        rs.append(UPoly.zero())
        for j in range(2, k + 1):
            if j == k:
                powers.append([UPoly.zero()] * k)
            power, lower = powers[j], powers[j - 1]
            acc = UPoly.zero()
            for i in range(1, k - j + 2):
                acc = acc + fraction_mul(rs[i], lower[k - i])
            power.append(acc)
        defect = UPoly.zero()
        for j in range(1, k + 1):
            defect = defect + fraction_mul(q.coeffs[j], powers[j][k])
        rs[k] = defect * -1
    return TruncatedSeries(n, rs)


def reference_mul(f, g):
    """The product loop that the _dot kernel replaced: one UPoly sum per term."""
    n = min(f.order, g.order)
    out = [UPoly.zero()] * (n + 1)
    for i in range(n + 1):
        a = f.coeffs[i]
        if a.is_zero():
            continue
        for j in range(n + 1 - i):
            b = g.coeffs[j]
            if not b.is_zero():
                out[i + j] = out[i + j] + fraction_mul(a, b)
    return TruncatedSeries(n, out)


PRIMES = [p for p in range(2, 700) if all(p % d for d in range(2, p))]


def kernel_series(rng, order, constant, degree):
    """A series of u-degree <= degree for the kernel tests.

    Each t-coefficient is the empty UPoly with probability 1/4.  Every other
    rational coefficient has its own prime denominator and a numerator in
    -9..9, so the denominators are pairwise different and some coefficients
    are negative or zero.
    """
    primes = iter(rng.sample(PRIMES, order * (degree + 1)))
    coeffs = [UPoly.const(constant)]
    for _ in range(order):
        if rng.random() < 0.25:
            coeffs.append(UPoly.zero())
        else:
            coeffs.append(
                UPoly([Fraction(rng.randint(-9, 9), next(primes)) for _ in range(degree + 1)])
            )
    return TruncatedSeries(order, coeffs)


def at_u(f, m):
    """f with u set to the integer m."""
    return TruncatedSeries(
        f.order, [sum(c * m**i for i, c in enumerate(p.coeffs)) for p in f.coeffs]
    )


class TestUPoly:
    def test_trailing_zeros_trimmed(self):
        assert UPoly((1, 0, 0)) == UPoly((1,))

    def test_arithmetic(self):
        u = UPoly.u()
        assert u + u == UPoly((0, 2))


class TestSeriesBasics:
    def test_mixed_order_truncates_to_min(self):
        a = TruncatedSeries.one(5)
        b = TruncatedSeries.from_dict(3, {1: 1})
        assert (a * b).order == 3

    def test_coefficient_past_order_raises(self):
        with pytest.raises(IndexError):
            TruncatedSeries.one(2).coefficient(3)


class TestExpLog:
    def test_exp_of_zero(self):
        assert series_exp(TruncatedSeries.from_dict(4, {})) == TruncatedSeries.one(4)

    def test_exp_of_t(self):
        e = series_exp(TruncatedSeries.from_dict(3, {1: 1}))
        assert [c.coefficient(0) for c in e.coeffs] == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_log_of_one_plus_t(self):
        one_plus_t = series_add(TruncatedSeries.one(3), TruncatedSeries.from_dict(3, {1: 1}))
        l = reference_log(one_plus_t)
        assert [c.coefficient(0) for c in l.coeffs] == [0, 1, Fraction(-1, 2), Fraction(1, 3)]

    def test_constant_term_violations(self):
        with pytest.raises(ValueError):
            series_exp(TruncatedSeries.one(3))

    def test_round_trips_random_order_12(self):
        rng = random.Random(20240229)
        one = TruncatedSeries.one(12)
        for _ in range(5):
            f = random_series(rng, 12, constant=0)
            assert reference_log(series_exp(f)) == f
            assert series_exp(reference_log(series_add(one, f))) == series_add(one, f)


class TestPowU:
    def test_power_of_one(self):
        assert series_pow_u(TruncatedSeries.one(4)) == TruncatedSeries.one(4)

    def test_binomial_first_term(self):
        f = TruncatedSeries.from_dict(4, {0: 1, 2: 1})
        assert series_pow_u(f).coefficient(2) == UPoly.u()

    def test_sine_quotient_t4(self):
        powu = series_pow_u(sine_quotient(6))
        assert powu.coefficient(4) == UPoly((0, Fraction(1, 2880), Fraction(1, 1152)))

    def test_rejects_u_dependent_coefficients(self):
        f = TruncatedSeries.from_dict(3, {0: UPoly.const(1), 2: UPoly.u()})
        with pytest.raises(ValueError):
            series_pow_u(f)

    def test_rejects_constant_term_other_than_one(self):
        for constant in (0, 2):
            f = TruncatedSeries.from_dict(3, {0: constant, 2: 1})
            with pytest.raises(ValueError):
                series_pow_u(f)
            with pytest.raises(ValueError):
                series_inverse(f)


class TestSineQuotient:
    def test_low_coefficients(self):
        sq = sine_quotient(6)
        assert sq.coefficient(0) == UPoly.const(1)
        assert sq.coefficient(1).is_zero()
        assert sq.coefficient(2) == UPoly.const(Fraction(1, 24))

    def test_odd_coefficients_vanish(self):
        sq = sine_quotient(13)
        for k in range(1, 14, 2):
            assert sq.coefficient(k).is_zero()

    def test_inverse_contract(self):
        sq = sine_quotient(8)
        assert sq * series_inverse(sq) == TruncatedSeries.one(8)


class TestLagrangeInvert:
    def test_identity_fixed_point(self):
        t = TruncatedSeries.from_dict(5, {1: 1})
        assert lagrange_invert(t) == t

    def test_catalan_like_example(self):
        q = TruncatedSeries.from_dict(4, {1: 1, 2: 1})
        r = lagrange_invert(q)
        assert [c.coefficient(0) for c in r.coeffs] == [0, 1, -1, 2, -5]

    def test_defining_contract_random(self):
        rng = random.Random(7)
        for _ in range(4):
            coeffs = [UPoly.zero(), UPoly.const(1)] + [
                UPoly.const(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                for _ in range(11)
            ]
            q = TruncatedSeries(12, coeffs)
            r = lagrange_invert(q)
            assert q.compose(r) == TruncatedSeries.from_dict(12, {1: 1})
            assert lagrange_invert(r) == q  # involution

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lagrange_invert(TruncatedSeries.one(4))
        with pytest.raises(ValueError):
            lagrange_invert(TruncatedSeries.from_dict(4, {1: 2}))


class TestAgainstReferences:
    """The recurrences equal the algorithms they replaced, exactly."""

    ORDERS = (1, 2, 3, 5, 8, 12)

    def test_exp_log_inverse_u_dependent(self):
        rng = random.Random(4711)
        for order in self.ORDERS:
            f = random_series(rng, order, constant=0, u_free=False)
            one_plus_f = series_add(TruncatedSeries.one(order), f)
            assert series_exp(f) == reference_exp(f)
            assert series_inverse(one_plus_f) == reference_inverse(one_plus_f)

    def test_product_u_dependent(self):
        rng = random.Random(4715)
        for order in self.ORDERS:
            f = random_series(rng, order, constant=rng.randint(-3, 3), u_free=False)
            g = random_series(rng, order + 2, constant=0, u_free=False)
            sparse = TruncatedSeries.from_dict(order, {1: UPoly.u(), order: 3})
            for x, y in [(f, g), (g, f), (f, f), (sparse, g)]:
                assert x * y == reference_mul(x, y)

    def test_pow_u(self):
        rng = random.Random(4712)
        for order in self.ORDERS:
            f = random_series(rng, order, constant=1)
            assert series_pow_u(f) == reference_pow_u(f)

    def test_lagrange_invert_u_dependent(self):
        rng = random.Random(4713)
        for order in self.ORDERS:
            f = random_series(rng, order, constant=0, u_free=False)
            q = TruncatedSeries(order, [UPoly.zero(), UPoly.const(1)] + list(f.coeffs[2:]))
            assert lagrange_invert(q) == reference_lagrange_invert(q)

    def test_pow_u_at_integer_u_is_repeated_product(self):
        rng = random.Random(4714)
        f = random_series(rng, 10, constant=1)
        powu = series_pow_u(f)
        power = TruncatedSeries.one(10)
        for m in range(5):
            assert at_u(powu, m) == power
            power = power * f

    def test_compose_undoes_inverse_at_order_30(self):
        # u enters at every fourth power of t, so the u-degree of the inverse
        # grows like order / 3 and the Horner check stays under two seconds.
        rng = random.Random(4715)
        coeffs = [UPoly.zero(), UPoly.const(1)] + [
            UPoly((rng.randint(-3, 3), rng.randint(-3, 3) if k % 4 == 0 else 0))
            for k in range(2, 31)
        ]
        q = TruncatedSeries(30, coeffs)
        assert any(not c.is_constant() for c in q.coeffs)
        assert q.compose(lagrange_invert(q)) == TruncatedSeries.from_dict(30, {1: 1})


class TestKernel:
    """The integer kernel against the Fraction references at orders 1-30."""

    def test_upoly_product(self):
        rng = random.Random(2030)
        polys = [UPoly.zero(), UPoly.const(-3), UPoly.u()] + list(
            kernel_series(rng, 30, 0, 3).coeffs
        )
        assert any(p.is_zero() for p in polys[3:])
        for a in polys:
            for b in polys[::7]:
                assert _dot((((1,), a, b),)) == fraction_mul(a, b), (a, b)

    @pytest.mark.parametrize("order", range(1, 31))
    def test_series_product(self, order):
        rng = random.Random(order)
        f = kernel_series(rng, order, rng.randint(-3, 3), 2)
        g = kernel_series(rng, order, 0, 1)
        for x, y in [(f, g), (g, f), (f, f), (f, TruncatedSeries.from_dict(order, {}))]:
            assert x * y == reference_mul(x, y)

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 11, 18, 30])
    def test_inverse(self, order):
        rng = random.Random(100 + order)
        f = kernel_series(rng, order, 1, 1 if order > 11 else 2)
        assert series_inverse(f) == reference_inverse(f)

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 11, 18, 30])
    def test_exp(self, order):
        rng = random.Random(200 + order)
        f = kernel_series(rng, order, 0, 1 if order > 11 else 2)
        assert series_exp(f) == reference_exp(f)

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 11, 18, 30])
    def test_pow_u(self, order):
        rng = random.Random(300 + order)
        f = kernel_series(rng, order, 1, 0)
        assert series_pow_u(f) == reference_pow_u(f)

    # test_compose_undoes_inverse_at_order_30 covers order 30.
    @pytest.mark.parametrize("order", [1, 2, 3, 6, 11, 18])
    def test_lagrange_invert(self, order):
        rng = random.Random(400 + order)
        f = kernel_series(rng, order, 0, 1 if order > 6 else 2)
        q = TruncatedSeries(order, [UPoly.zero(), UPoly.const(1)] + list(f.coeffs[2:]))
        assert lagrange_invert(q) == reference_lagrange_invert(q)

    def test_power_with_polynomial_exponent(self):
        # f^(2u - 3) = (f^u)^2 / f^3, with each side from the references
        rng = random.Random(500)
        f = kernel_series(rng, 12, 1, 0)
        inverse, power_u = reference_inverse(f), reference_pow_u(f)
        expected = reference_mul(
            reference_mul(power_u, power_u),
            reference_mul(reference_mul(inverse, inverse), inverse),
        )
        assert _power(f, UPoly((-3, 2))) == expected

    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 2), UPoly((0, Fraction(1, 2))), UPoly((Fraction(-3, 2), 1))]
    )
    def test_power_refuses_non_integral_exponent(self, alpha):
        with pytest.raises(ValueError, match="integer coefficients"):
            _power(TruncatedSeries.one(4), alpha)
