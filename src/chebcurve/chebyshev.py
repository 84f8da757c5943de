"""Chebyshev curve data: defining polynomials, node grids and factorizations.

For degree d the affine curves are T_d(x) + T_d(y) (the curve under study)
and T_d(x) - T_d(y) (its companion whose nodes carry the interpolation
grid).  Critical coordinates cos(k*pi/d) live in the real cyclotomic field,
so every check here is symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import upoly
from .numberfield import (
    AlgNum, FieldSpec, SelfCheckError, cos_multiple, critical_point, real_cyclotomic_field
)
from .polyring import MPoly, homogenize
from .upoly import Coeffs

Point = tuple[AlgNum, AlgNum]


@lru_cache(maxsize=None)
def chebyshev_T(d: int) -> Coeffs:
    """Coefficients of the degree-d Chebyshev polynomial of the first kind."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d == 0:
        return upoly.ONE
    if d == 1:
        return upoly.T
    prev, cur = upoly.ONE, upoly.T
    two_t = upoly.upoly([0, 2])
    for _ in range(d - 1):
        prev, cur = cur, upoly.sub(upoly.mul(two_t, cur), prev)
    return cur


def curve_affine(d: int, sign: str) -> MPoly:
    """T_d(x) + T_d(y) for sign "plus", T_d(x) - T_d(y) for sign "minus"."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    s = 1 if sign == "plus" else -1
    items = []
    for j, c in enumerate(chebyshev_T(d)):
        items += [((j, 0), c), ((0, j), s * c)]
    return MPoly(2, items)


@lru_cache(maxsize=None)
def curve_polynomial(d: int) -> MPoly:
    """The projective Chebyshev curve: homogenization of T_d(x) + T_d(y)."""
    return homogenize(curve_affine(d, "plus"), d)


def _quadratic_factor(field: FieldSpec, lam: AlgNum, xy_sign: int) -> MPoly:
    """x^2 +- 2*lam*x*y + y^2 - (1 - lam^2) with field coefficients."""
    one = field.one()
    return MPoly(
        2,
        {
            (2, 0): one,
            (1, 1): 2 * xy_sign * lam,
            (0, 2): one,
            (0, 0): -(one - lam * lam),
        },
    )


def _linear_factor(field: FieldSpec, y_sign: int) -> MPoly:
    return MPoly(2, {(1, 0): field.one(), (0, 1): y_sign * field.one()})


def factor_curve(d: int, sign: str) -> tuple[Fraction, tuple[MPoly, ...]]:
    """Split T_d(x) +- T_d(y) into 2^(d-1) times linear and conic factors.

    With s = +1 for "plus" and -1 for "minus", T_d(-t*y) = (-t)^d T_d(y),
    so the line x + t*y divides the curve exactly when s*(-t)^d = -1; the
    lines come first, t = s before t = -s.  Then, for each 0 < j < d with
    j = d + 1 (mod 2) for "plus" and j even for "minus", the conic
    x^2 + 2*s*c*x*y + y^2 - (1 - c^2) with c = cos(j*pi/d).  The factor
    product times the constant reproduces the curve polynomial identically
    over the cyclotomic field.
    """
    if d < 3:
        raise ValueError("require d >= 3")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    field = real_cyclotomic_field(d)
    s = 1 if sign == "plus" else -1
    lines = [_linear_factor(field, t) for t in (s, -s) if s * (-t) ** d == -1]
    parity = (d + 1) * (s == 1) % 2
    conics = [
        _quadratic_factor(field, critical_point(field, j), s)
        for j in range(1, d)
        if j % 2 == parity
    ]
    return Fraction(2) ** (d - 1), tuple(lines + conics)


def minus_conics(d: int) -> tuple[MPoly, ...]:
    """The conic factors of T_d(x) - T_d(y), in increasing index order."""
    _, factors = factor_curve(d, "minus")
    return tuple(p for p in factors if p.degree() == 2)


@dataclass(frozen=True)
class ChebData:
    d: int
    field: FieldSpec
    chebyshev: Coeffs
    plus_curve: MPoly
    minus_curve: MPoly
    projective_curve: MPoly
    critical_points: tuple[AlgNum, ...]
    plus_nodes: tuple[Point, ...]
    minus_nodes: tuple[Point, ...]
    plus_factorization: tuple[Fraction, tuple[MPoly, ...]]
    minus_factorization: tuple[Fraction, tuple[MPoly, ...]]


@lru_cache(maxsize=None)
def build(d: int) -> ChebData:
    """All symbolic curve data for degree d >= 3."""
    if d < 3:
        raise ValueError("require d >= 3")
    field = real_cyclotomic_field(d)
    lams = tuple(critical_point(field, k) for k in range(1, d))
    plus_nodes = []
    minus_nodes = []
    for p in range(1, d):
        for q in range(1, d):
            point = (lams[p - 1], lams[q - 1])
            if (p + q) % 2 == 1:
                plus_nodes.append(point)
            else:
                minus_nodes.append(point)
    return ChebData(
        d=d,
        field=field,
        chebyshev=chebyshev_T(d),
        plus_curve=curve_affine(d, "plus"),
        minus_curve=curve_affine(d, "minus"),
        projective_curve=curve_polynomial(d),
        critical_points=lams,
        plus_nodes=tuple(plus_nodes),
        minus_nodes=tuple(minus_nodes),
        plus_factorization=factor_curve(d, "plus"),
        minus_factorization=factor_curve(d, "minus"),
    )


@dataclass(frozen=True)
class NodeVerification:
    d: int
    points_checked: int
    failures: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_nodes(d: int) -> NodeVerification:
    """Check symbolically that every grid point of the curve is a node.

    F = T_d(x) + T_d(y), so at (a, b) the curve takes T_d(a) + T_d(b), the
    gradient is (T_d'(a), T_d'(b)) and the Hessian determinant is
    T_d''(a) * T_d''(b).  These are read from T_d, T_d' and T_d'' evaluated
    once at each critical point: the curve and both partials must vanish
    and the Hessian must not.
    """
    data = build(d)
    T1 = upoly.derivative(data.chebyshev)
    T2 = upoly.derivative(T1)
    values = {
        t: tuple(upoly.evaluate(c, t) for c in (data.chebyshev, T1, T2))
        for t in data.critical_points
    }
    failures: list[tuple[str, str]] = []
    for a, b in data.plus_nodes:
        label = f"({a}, {b})"
        (fa, ga, ha), (fb, gb, hb) = values[a], values[b]
        if fa + fb != 0:
            failures.append((label, "curve does not vanish"))
        if ga != 0:
            failures.append((label, "x-gradient does not vanish"))
        if gb != 0:
            failures.append((label, "y-gradient does not vanish"))
        if not ha * hb:
            failures.append((label, "degenerate Hessian"))
    return NodeVerification(d=d, points_checked=len(data.plus_nodes), failures=tuple(failures))


def conic_intersections(d: int, k: int, l: int) -> tuple[Point, Point, Point, Point]:
    """The four intersection points of the k-th and l-th companion conics.

    The points are (cos((k+l)pi/d), cos((k-l)pi/d)) with both negations and
    the swap; membership in both conics is asserted symbolically.
    """
    conics = minus_conics(d)
    n = len(conics)
    if not (1 <= k < l <= n):
        raise ValueError(f"require 1 <= k < l <= {n}")
    field = real_cyclotomic_field(d)
    cp = cos_multiple(field, k + l)
    cm = cos_multiple(field, abs(k - l))
    points = ((cp, cm), (-cp, -cm), (cm, cp), (-cm, -cp))
    gk, gl = conics[k - 1], conics[l - 1]
    for pt in points:
        if gk.evaluate(pt) != 0 or gl.evaluate(pt) != 0:
            raise SelfCheckError(f"intersection point ({pt[0]}, {pt[1]}) fails membership")
    if len({(str(p[0]), str(p[1])) for p in points}) != 4:
        raise SelfCheckError("intersection points are not distinct")
    return points
