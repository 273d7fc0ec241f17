"""Exact scalar arithmetic: rationals, Bernoulli numbers, pi-power values.

Every quantity in this package that feeds an exact identity is either an
arbitrary-precision integer, a :class:`fractions.Fraction`, or a
:class:`PiScaled` (a rational multiple of an even power of pi).  Floats
appear only in display helpers and in the numeric sanity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

__all__ = [
    "PiScaled",
    "bernoulli",
    "format_rational",
]


def format_rational(q: Fraction | int) -> str:
    """Serialize as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@cache
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, convention B_1 = -1/2.

    Computed by the Akiyama-Tanigawa triangle, which yields B_1 = +1/2;
    the sign is flipped to match the B_1 = -1/2 convention.  Only even
    indices matter downstream, where the two conventions agree.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    row = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        row[k] = Fraction(1, k + 1)
        for j in range(k, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return -row[0] if m == 1 else row[0]


@dataclass(frozen=True)
class PiScaled:
    """A rational multiple of an even power of pi: coeff * pi**pi_exponent."""

    coeff: Fraction
    pi_exponent: int

    def __post_init__(self) -> None:
        if self.pi_exponent < 0 or self.pi_exponent % 2 != 0:
            raise ValueError("pi exponent must be a non-negative even integer")
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def __add__(self, other: "PiScaled") -> "PiScaled":
        if not isinstance(other, PiScaled):
            return NotImplemented
        if self.pi_exponent != other.pi_exponent:
            raise ValueError(
                "cannot add pi-powers with different exponents: "
                f"{self.pi_exponent} vs {other.pi_exponent}"
            )
        return PiScaled(self.coeff + other.coeff, self.pi_exponent)

    def to_float(self) -> float:
        return float(self.coeff) * math.pi**self.pi_exponent

    def to_json(self) -> dict[str, object]:
        return {"coeff": format_rational(self.coeff), "pi_exp": self.pi_exponent}

