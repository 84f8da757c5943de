"""Real cyclotomic number fields Q(2*cos(pi/d)) with exact arithmetic.

The generator g = 2*cos(pi/d) is an algebraic integer, so the cosines
cos(k*pi/d) that appear as Chebyshev critical coordinates are elements
with denominator at most 2.  The minimal polynomial psi of g is read off
the palindromic cyclotomic polynomial Phi_2d.

An element is sum(num[i] * g**i) / den: a tuple of ``degree`` int
numerators over one positive int denominator, kept canonical, with
gcd(den, *num) = 1 (zero is all zeros over 1), so equal elements have
equal (num, den).  Because g is an algebraic integer, psi is monic with
integer coefficients, and g**degree is the int vector ``FieldSpec.tail``.
A product is therefore an integer convolution whose high coefficients are
folded back by adding int multiples of ``tail``, with no division, over the
product of the denominators, followed by one gcd.  ``coeffs`` is the
Fraction view of an element, for output and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

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
    """The field Q(2*cos(pi/d)), presented by the generator's minimal polynomial.

    ``tail`` is g**degree as an int vector in 1, g, ..., g**(degree-1):
    minus the lower coefficients of the monic integral minimal polynomial,
    which is checked when the spec is made.
    """

    d: int
    minpoly: Coeffs
    degree: int
    tail: tuple[int, ...] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        psi = self.minpoly
        integral = all(Fraction(c).denominator == 1 for c in psi)
        if len(psi) != self.degree + 1 or psi[-1] != 1 or not integral:
            raise SelfCheckError("minimal polynomial is not monic in Z[t] of the field's degree")
        object.__setattr__(self, "tail", tuple(-int(c) for c in psi[:-1]))

    def zero(self) -> "AlgNum":
        return AlgNum(self, (0,) * self.degree, 1)

    def one(self) -> "AlgNum":
        return self.from_rational(1)

    def gen(self) -> "AlgNum":
        if self.degree == 1:
            # g is rational: minpoly is t - g
            return self.from_rational(self.tail[0])
        return AlgNum(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def from_rational(self, q) -> "AlgNum":
        q = q if isinstance(q, (int, Fraction)) else Fraction(q)
        return AlgNum(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def element(self, coeffs) -> "AlgNum":
        """The element sum(coeffs[i] * g**i), for any number of rational coefficients."""
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        num = _reduce(self, [c.numerator * (den // c.denominator) for c in cs])
        return _canonical(self, num, den)


def _reduce(field: FieldSpec, cs: list[int]) -> tuple[int, ...]:
    """The int vector cs of powers of g, folded into 1, g, ..., g**(degree-1).

    The top coefficient c at g**k becomes c * tail at g**(k-degree), from
    the top down; psi is monic, so this needs no division.
    """
    n = field.degree
    tail = field.tail
    for k in range(len(cs) - 1, n - 1, -1):
        c = cs[k]
        if c:
            for j, t in enumerate(tail, k - n):
                cs[j] += c * t
    del cs[n:]
    cs += [0] * (n - len(cs))
    return tuple(cs)


def _canonical(field: FieldSpec, num: tuple[int, ...], den: int) -> "AlgNum":
    """num / den (den > 0) with gcd(den, *num) divided out."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return AlgNum(field, num, den)


class AlgNum:
    """An element sum(num[i] * g**i) / den of a FieldSpec, in canonical form."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, g, ..., g**(degree-1)."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other):
        if isinstance(other, AlgNum):
            if other.field.d != self.field.d:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _combine(self, o: "AlgNum", op) -> "AlgNum":
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _canonical(self.field, tuple(map(op, self.num, o.num)), d1)
        num = tuple(op(a * d2, b * d1) for a, b in zip(self.num, o.num))
        return _canonical(self.field, num, d1 * d2)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, add)

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, sub)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar (an int has numerator and denominator too)
            # only scales the numerators
            num = tuple(a * other.numerator for a in self.num)
            return _canonical(self.field, num, self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num, i):
                    prod[j] += a * b
        return _canonical(self.field, _reduce(self.field, prod), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # (num / den)^-1 = den * u with u * num = 1 modulo the minimal polynomial
        g, u, _ = upoly.xgcd(upoly.upoly(self.num), self.field.minpoly)
        if upoly.degree(g) != 0:
            raise SelfCheckError("minimal polynomial is not irreducible")
        return self.field.element(upoly.scale(upoly.poly_mod(u, self.field.minpoly), self.den))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.is_rational():
            return self * o.inverse()
        # a rational divisor a/b only scales: (num/den) / (a/b) = num*b / (den*a),
        # with the sign moved into b so that the denominator stays positive
        a, b = o.num[0], o.den
        if not a:
            raise ZeroDivisionError("division of a field element by zero")
        if a < 0:
            a, b = -a, -b
        return _canonical(self.field, tuple(x * b for x in self.num), self.den * a)

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
        return self.num == o.num and self.den == o.den

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.d, self.num, self.den))

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
