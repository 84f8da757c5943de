"""Dense univariate polynomial arithmetic over the integers or the rationals.

A polynomial is a tuple of int or Fraction coefficients in ascending degree
order with no trailing zeros; the empty tuple is the zero polynomial.
``add``, ``sub``, ``mul``, ``shift`` and ``trim`` keep the coefficient type,
so integer polynomials such as Hilbert numerators stay integral; divisions
(``divmod_poly`` and everything built on it, ``monic``) return Fractions.
``upoly`` is the Fraction constructor.  Everything here is exact, and the
functions are free-standing so coefficient vectors can be treated as plain
data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Coeffs = tuple[Fraction, ...]

ZERO: Coeffs = ()
ONE: Coeffs = (Fraction(1),)
T: Coeffs = (Fraction(0), Fraction(1))


def trim(coeffs: Iterable) -> tuple:
    """The coefficients as a tuple without trailing zeros, types kept."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def upoly(coeffs: Sequence) -> Coeffs:
    """Normalize an ascending coefficient sequence into a Coeffs tuple."""
    return trim(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)


def degree(p: Coeffs) -> int:
    """Degree of p, with the zero polynomial at -1."""
    return len(p) - 1


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return add(p, neg(q))


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ZERO
    out = [p[0] * q[0] * 0] * (len(p) + len(q) - 1)  # zero of the coefficient type
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return trim(out)


def scale(p: Coeffs, c) -> Coeffs:
    c = Fraction(c)
    if not c:
        return ZERO
    return tuple(a * c for a in p)


def shift(p: Coeffs, k: int) -> Coeffs:
    """Multiply by t**k."""
    if not p:
        return ZERO
    return (p[0] * 0,) * k + p


def monic(p: Coeffs) -> Coeffs:
    if not p:
        return ZERO
    lc = p[-1]
    return tuple(Fraction(c) / lc for c in p)


def divmod_poly(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder of a by b over the rationals."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db = degree(b)
    lb = b[-1]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = Fraction(c) / lb
        quo[i - db] = f
        for j in range(db + 1):
            rem[i - db + j] -= f * b[j]
    return upoly(quo), upoly(rem)


def poly_mod(a: Coeffs, b: Coeffs) -> Coeffs:
    return divmod_poly(a, b)[1]


def exact_div(a: Coeffs, b: Coeffs) -> Coeffs:
    quo, rem = divmod_poly(a, b)
    if rem:
        raise ValueError("inexact univariate division")
    return quo


def gcd_poly(a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd via the Euclidean algorithm."""
    while b:
        a, b = b, poly_mod(a, b)
    return monic(a)


def xgcd(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs, Coeffs]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g and g monic."""
    r0, r1 = a, b
    u0, u1 = ONE, ZERO
    v0, v1 = ZERO, ONE
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1))
        v0, v1 = v1, sub(v0, mul(q, v1))
    if not r0:
        return ZERO, ZERO, ZERO
    inv = 1 / Fraction(r0[-1])
    return monic(r0), scale(u0, inv), scale(v0, inv)


def derivative(p: Coeffs) -> Coeffs:
    return upoly([i * c for i, c in enumerate(p)][1:])


def evaluate(p: Coeffs, x):
    """Horner evaluation; x may be a Fraction, field element or polynomial."""
    if not p:
        return Fraction(0)
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def to_string(p: Coeffs, var: str = "t") -> str:
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if e == 0:
            body = str(a)
        else:
            pw = var if e == 1 else f"{var}^{e}"
            body = pw if a == 1 else f"{a}*{pw}"
        parts.append((sign, body))
    head_sign, head = parts[0]
    out = head if head_sign == "+" else "-" + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
