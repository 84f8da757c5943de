"""Real cyclotomic number fields Q(2*cos(pi/d)) with exact arithmetic.

The generator g = 2*cos(pi/d) is an algebraic integer, so the cosines
cos(k*pi/d) that appear as Chebyshev critical coordinates are elements
with denominator at most 2.  Field elements are dense coefficient vectors
reduced modulo the minimal polynomial of g, which is read off the
palindromic cyclotomic polynomial Phi_2d; all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import upoly
from .upoly import Coeffs


class SelfCheckError(ArithmeticError):
    """An internal consistency check failed: a fault of the program, not of its input."""


def _totient(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Coeffs:
    """The n-th cyclotomic polynomial, by exact division of t**n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = upoly.upoly([-1] + [0] * (n - 1) + [1])
    for m in range(1, n):
        if n % m == 0:
            num = upoly.exact_div(num, cyclotomic(m))
    return num


@dataclass(frozen=True)
class FieldSpec:
    """The field Q(2*cos(pi/d)), presented by the generator's minimal polynomial."""

    d: int
    minpoly: Coeffs
    degree: int

    def zero(self) -> "AlgNum":
        return AlgNum(self, (Fraction(0),) * self.degree)

    def one(self) -> "AlgNum":
        return self.from_rational(1)

    def gen(self) -> "AlgNum":
        if self.degree == 1:
            # g is rational: minpoly is t - c
            return self.from_rational(-self.minpoly[0])
        cs = [Fraction(0)] * self.degree
        cs[1] = Fraction(1)
        return AlgNum(self, tuple(cs))

    def from_rational(self, q) -> "AlgNum":
        cs = [Fraction(0)] * self.degree
        cs[0] = Fraction(q)
        return AlgNum(self, tuple(cs))

    def element(self, coeffs) -> "AlgNum":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = list(_reduce_mod(self, cs))
        cs += [Fraction(0)] * (self.degree - len(cs))
        return AlgNum(self, tuple(cs))


def _reduce_mod(field: FieldSpec, cs: list[Fraction]) -> tuple[Fraction, ...]:
    mp = field.minpoly
    n = field.degree
    for i in range(len(cs) - 1, n - 1, -1):
        c = cs[i]
        if c:
            cs[i] = Fraction(0)
            for j in range(n):
                cs[i - n + j] -= c * mp[j]
    out = cs[:n]
    out += [Fraction(0)] * (n - len(out))
    return tuple(out)


class AlgNum:
    """An element of a FieldSpec, stored as a reduced coefficient vector in g."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, AlgNum):
            if other.field.d != self.field.d:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        return AlgNum(self.field, _reduce_mod(self.field, prod))

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        a = upoly.upoly(self.coeffs)
        g, u, _ = upoly.xgcd(a, self.field.minpoly)
        if upoly.degree(g) != 0:
            raise SelfCheckError("minimal polynomial is not irreducible")
        red = list(upoly.poly_mod(u, self.field.minpoly))
        return self.field.element(red)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.field.d, self.coeffs))

    def __str__(self):
        return upoly.to_string(upoly.upoly(self.coeffs), var="g")

    def __repr__(self):
        return f"AlgNum({self}, d={self.field.d})"


@lru_cache(maxsize=None)
def real_cyclotomic_field(d: int) -> FieldSpec:
    """Field spec for Q(2*cos(pi/d)), d >= 2.

    Phi_2d is palindromic of degree 2h, so t^-h * Phi_2d(t) = c_h +
    sum_k c_(h+k) * (t^k + t^-k) for its coefficients c, and
    t^k + t^-k = V_k(t + 1/t) with V_0 = 2, V_1 = s and
    V_k = s * V_(k-1) - V_(k-2).  The minimal polynomial of 2*cos(pi/d) is
    therefore c_h + sum_k c_(h+k) * V_k(s), monic of degree h.
    """
    if d < 2:
        raise ValueError("require d >= 2")
    phi = cyclotomic(2 * d)
    h = upoly.degree(phi) // 2
    minpoly = upoly.upoly([phi[h]])
    v_prev, v = upoly.upoly([2]), upoly.T
    for k in range(1, h + 1):
        minpoly = upoly.add(minpoly, upoly.scale(v, phi[h + k]))
        v_prev, v = v, upoly.sub(upoly.mul(upoly.T, v), v_prev)
    expected = _totient(2 * d) // 2
    if upoly.degree(minpoly) != expected:
        raise SelfCheckError("minimal polynomial has unexpected degree")
    return FieldSpec(d=d, minpoly=minpoly, degree=expected)


def cos_multiple(field: FieldSpec, k: int) -> AlgNum:
    """cos(k*pi/d) as a field element, valid for any integer k.

    Uses the recurrence V_0 = 2, V_1 = g, V_k = g*V_{k-1} - V_{k-2}, which
    satisfies V_k(2 cos a) = 2 cos(k a); negative k folds by evenness.
    """
    k = abs(k)
    v_prev = field.from_rational(2)
    if k == 0:
        return v_prev * Fraction(1, 2)
    v = field.gen()
    g = field.gen()
    for _ in range(k - 1):
        v_prev, v = v, g * v - v_prev
    return v * Fraction(1, 2)


def critical_point(field: FieldSpec, k: int) -> AlgNum:
    """The k-th critical point cos(k*pi/d) of the degree-d Chebyshev polynomial."""
    if not 0 < k < field.d:
        raise ValueError(f"critical point index must satisfy 0 < k < {field.d}")
    return cos_multiple(field, k)
