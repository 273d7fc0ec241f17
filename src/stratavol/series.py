"""Truncated formal power series in t with polynomial-in-u coefficients.

The coefficient ring is Q[u], dense polynomials over exact rationals
(:class:`UPoly`).  A :class:`TruncatedSeries` holds coefficients for
t^0 .. t^order inclusive; the product of series of different orders
truncates to the shorter one, so precision never silently inflates.
The two types keep only the arithmetic the package runs: a UPoly adds
and takes a rational multiple, a series multiplies and shifts by t, and
both compare by ==.

Powers and exp run a coefficient recurrence, O(n^2) products of
coefficients at order n; the inverse runs one power per coefficient:

* f^alpha, for f(0) = 1 and alpha a rational or a polynomial in u, by
  J.C.P. Miller's recurrence k P_k = sum_{j=1..k} (alpha j - k + j)
  f_j P_{k-j} (Knuth, TAOCP vol. 2, section 4.7); 1/f is alpha = -1 and
  f^u is alpha = u;
* exp by the recurrence E' = f' E;
* the compositional inverse r of q by the Lagrange inversion formula
  [t^k] r = (1/k) [t^(k-1)] (q/t)^(-k) (Stanley, Enumerative
  Combinatorics vol. 2, Theorem 5.4.2), O(n^3) products in all.  Newton
  iteration with fast composition (Brent and Kung, J. ACM 25 (1978)) is
  asymptotically faster, but not needed at the orders used here.

Composition keeps its Horner evaluation; the tests use it as the
independent check q(r(t)) = t of the inverse.

Every product of coefficients, in those recurrences, in series
multiplication and in composition, runs through one kernel, ``_dot``.
It works on integers inside: each UPoly keeps, next to its public tuple
of Fractions, its numerators over the lcm of their denominators, and
``_dot`` sums into ``int`` accumulators over one common denominator.
Fractions appear at the boundary only, once per output coefficient, and
the recurrences' division by k rides along as that denominator's last
factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

__all__ = [
    "UPoly",
    "TruncatedSeries",
    "series_exp",
    "series_pow_u",
    "series_inverse",
    "sine_quotient",
    "lagrange_invert",
]


class UPoly:
    """Dense polynomial in the auxiliary variable u over Fraction."""

    __slots__ = ("coeffs", "_form")

    def __init__(self, coeffs=()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._form = None

    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, den) with coeffs[j] = nums[j] / den, den the lcm of the denominators.

        Computed on first use and kept: the product kernel ``_dot`` works on
        this form only.
        """
        if self._form is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            self._form = (tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den)
        return self._form

    @staticmethod
    def const(q) -> "UPoly":
        return UPoly((Fraction(q),))

    @staticmethod
    def zero() -> "UPoly":
        return UPoly(())

    @staticmethod
    def u() -> "UPoly":
        return UPoly((0, 1))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coefficient(self, j: int) -> Fraction:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(
            tuple(self.coefficient(j) + other.coefficient(j) for j in range(n))
        )

    def __mul__(self, q: Fraction | int) -> "UPoly":
        return UPoly(tuple(c * q for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*u")
            else:
                parts.append(f"{c}*u^{j}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UPoly({self.coeffs})"


class TruncatedSeries:
    """Series sum_k c_k(u) t^k known exactly for k = 0..order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = list(coeffs)
        if len(cs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(cs)}")
        self.order = order
        self.coeffs = tuple(c if isinstance(c, UPoly) else UPoly.const(c) for c in cs)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, [UPoly.const(1)] + [UPoly.zero()] * order)

    @staticmethod
    def from_dict(order: int, entries: dict) -> "TruncatedSeries":
        cs = [UPoly.zero()] * (order + 1)
        for k, c in entries.items():
            if 0 <= k <= order:
                cs[k] = c if isinstance(c, UPoly) else UPoly.const(c)
        return TruncatedSeries(order, cs)

    def coefficient(self, k: int) -> UPoly:
        if k < 0:
            return UPoly.zero()
        if k > self.order:
            raise IndexError(f"coefficient t^{k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def constant_term(self) -> UPoly:
        return self.coeffs[0]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(
            n,
            [_dot(((1,), a[i], b[k - i]) for i in range(k + 1)) for k in range(n + 1)],
        )

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by t (order preserved, top coefficient dropped)."""
        return TruncatedSeries(
            self.order, (UPoly.zero(),) + self.coeffs[: self.order]
        )

    def shift_down(self) -> "TruncatedSeries":
        """Divide by t; requires zero constant term.  Order drops by one."""
        if not self.coeffs[0].is_zero():
            raise ValueError("cannot divide by t: non-zero constant term")
        return TruncatedSeries(self.order - 1, self.coeffs[1:])

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)); inner must have zero constant term."""
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition requires inner constant term 0")
        n = min(self.order, inner.order)
        # Horner evaluation in the truncated ring.
        result = TruncatedSeries.from_dict(n, {0: self.coeffs[n]})
        inner_t = inner.truncate(n)
        for k in range(n - 1, -1, -1):
            result = result * inner_t
            result = TruncatedSeries(
                n, [result.coeffs[0] + self.coeffs[k]] + list(result.coeffs[1:])
            )
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"({c})*t^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"<series order {self.order}: {body}>"


def _dot(terms, divisor: int = 1) -> UPoly:
    """The sum of w * x * y over the triples (w, x, y) in terms, over divisor.

    x and y are UPolys; w is a tuple of ``int`` u-coefficients, so a small
    weight such as (j,) or (j - k, j) costs no UPoly of its own.  The loop
    runs on integers: it convolves w with the numerators of the integer
    forms of x and y, adding into one ``int`` accumulator per power of u
    over a running common denominator, which grows to the lcm when a term
    brings a new denominator.  Fractions appear only at the boundary, one
    per output coefficient.
    """
    acc: list[int] = []
    den = 1
    for w, x, y in terms:
        xs, dx = x._integer_form()
        ys, dy = y._integer_form()
        if not xs or not ys:
            continue
        d = dx * dy
        if den % d:
            grown = lcm(den, d)
            scale = grown // den
            acc = [v * scale for v in acc]
            den = grown
        scale = den // d
        top = len(w) + len(xs) + len(ys) - 2
        if len(acc) < top:
            acc.extend([0] * (top - len(acc)))
        for i, a in enumerate(w):
            a *= scale
            if not a:
                continue
            for j, b in enumerate(xs, i):
                ab = a * b
                if not ab:
                    continue
                for k, c in enumerate(ys, j):
                    acc[k] += ab * c
    den *= divisor
    return UPoly(Fraction(v, den) for v in acc)


def _power(f: TruncatedSeries, alpha, order: int | None = None) -> TruncatedSeries:
    """f^alpha to t^order (default f.order) for f(0) = 1, by Miller's recurrence.

    alpha is an ``int`` or a UPoly with integer coefficients (the callers
    pass -1, u and -k); any other alpha raises ValueError.  The
    coefficients P_k of f^alpha obey k P_k = sum_{j=1..k} (alpha j - k + j)
    f_j P_{k-j}, since f (f^alpha)' = alpha f' f^alpha, so each weight
    alpha j - k + j is a tuple of ints and k is the divisor of one integer
    ``_dot``.  Each coefficient costs O(k) products, so the whole power
    costs O(order^2).
    """
    n = f.order if order is None else order
    alpha = alpha.coeffs if isinstance(alpha, UPoly) else (Fraction(alpha),)
    if any(a.denominator != 1 for a in alpha):
        raise ValueError("alpha must be an int or a UPoly with integer coefficients")
    a0, *rest = [a.numerator for a in alpha] or [0]
    ps = [UPoly.const(1)]
    for k in range(1, n + 1):
        terms = (
            ((a0 * j + j - k,) + tuple(a * j for a in rest), f.coeffs[j], ps[k - j])
            for j in range(1, k + 1)
        )
        ps.append(_dot(terms, k))
    return TruncatedSeries(n, ps)


def series_exp(f: TruncatedSeries) -> TruncatedSeries:
    """exp(f) for f with zero constant term.

    E = exp(f) solves E' = f' E, so k E_k = sum_{j=1..k} j f_j E_{k-j},
    one integer ``_dot`` with divisor k per coefficient.
    """
    if not f.constant_term().is_zero():
        raise ValueError("series_exp requires constant term 0")
    es = [UPoly.const(1)]
    for k in range(1, f.order + 1):
        terms = (((j,), f.coeffs[j], es[k - j]) for j in range(1, k + 1))
        es.append(_dot(terms, k))
    return TruncatedSeries(f.order, es)


def series_pow_u(f: TruncatedSeries) -> TruncatedSeries:
    """f(t)^u for f with constant term 1 and u-free coefficients."""
    if any(not c.is_constant() for c in f.coeffs):
        raise ValueError("series_pow_u requires coefficients constant in u")
    if f.constant_term() != UPoly.const(1):
        raise ValueError("series_pow_u requires constant term 1")
    return _power(f, UPoly.u())


def series_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse 1/f for f with constant term 1."""
    if f.constant_term() != UPoly.const(1):
        raise ValueError("series_inverse requires constant term 1")
    return _power(f, -1)


def sine_quotient(order: int) -> TruncatedSeries:
    """The even series (t/2) / sin(t/2) to the given order.

    Inverts sin(x)/x = sum (-1)^m x^(2m) / (2m+1)! at x = t/2.
    """
    if order < 1:
        raise ValueError("order must be positive")
    entries = {}
    for m in range(0, order // 2 + 1):
        entries[2 * m] = Fraction((-1) ** m, 4**m * factorial(2 * m + 1))
    return series_inverse(TruncatedSeries.from_dict(order, entries))


def lagrange_invert(q: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse r of q: q(r(t)) = t modulo t^(order+1).

    Requires q(0) = 0 and [t]q = 1.  By the Lagrange inversion formula
    (Stanley, EC2 Theorem 5.4.2), [t^k] r = (1/k) [t^(k-1)] (q/t)^(-k).
    Each power comes from Miller's recurrence k P_k = sum_{j=1..k}
    (alpha j - k + j) f_j P_{k-j} at f = q/t, alpha = -k, taken to t^(k-1)
    in O(k^2) products (Knuth, TAOCP vol. 2, section 4.7), so the whole
    inverse costs O(order^3) products.
    """
    if not q.constant_term().is_zero():
        raise ValueError("lagrange_invert requires constant term 0")
    if q.order < 1 or q.coefficient(1) != UPoly.const(1):
        raise ValueError("lagrange_invert requires coefficient of t equal to 1")
    h = q.shift_down()
    rs = [UPoly.zero()]
    for k in range(1, q.order + 1):
        rs.append(_power(h, -k, k - 1).coefficient(k - 1) * Fraction(1, k))
    return TruncatedSeries(q.order, rs)
