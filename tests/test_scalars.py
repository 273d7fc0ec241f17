from fractions import Fraction
from math import comb

import pytest

from stratavol.scalars import (
    PiScaled,
    bernoulli,
    format_rational,
)


def binomial_recurrence_oracle(m: int) -> Fraction:
    """B_m from sum_{k=0}^{m} C(m+1,k) B_k = 0, independent of the implementation."""
    values = [Fraction(1)]
    for n in range(1, m + 1):
        acc = sum(comb(n + 1, k) * values[k] for k in range(n))
        values.append(-acc / (n + 1))
    return values[m]


class TestBernoulli:
    def test_base(self):
        assert bernoulli(0) == 1

    def test_forced_by_recurrence(self):
        assert bernoulli(2) == Fraction(1, 6)

    def test_b12_against_recurrence_oracle(self):
        assert binomial_recurrence_oracle(12) == Fraction(-691, 2730)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_sign_convention(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_recurrence_identity_through_20(self):
        for m in range(1, 21):
            assert sum(comb(m + 1, k) * bernoulli(k) for k in range(m + 1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestPiScaled:
    def test_addition_same_exponent(self):
        a = PiScaled(Fraction(1, 3), 2)
        b = PiScaled(Fraction(1, 6), 2)
        assert a + b == PiScaled(Fraction(1, 2), 2)

    def test_addition_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PiScaled(Fraction(1), 2) + PiScaled(Fraction(1), 4)

    def test_zero_any_exponent(self):
        assert PiScaled(Fraction(0), 6).coeff == 0

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiScaled(Fraction(1), 3)

    def test_serialization(self):
        assert PiScaled(Fraction(1, 3), 2).to_json() == {"coeff": "1/3", "pi_exp": 2}


class TestRationalStrings:
    @pytest.mark.parametrize("text", ["1/3", "-7/2", "5", "0"])
    def test_round_trip(self, text):
        assert format_rational(Fraction(text)) == text

    def test_integer_form(self):
        assert format_rational(Fraction(4, 2)) == "2"
