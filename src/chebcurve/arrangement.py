"""Certificate deciding whether a nodal plane curve is a rational arrangement.

The test compares the number of nodes (the Tjurina number, read from the
Milnor algebra at the general stabilization bound) with the graded
dimension at 2d-3: equality certifies that every irreducible component is
rational, and the difference reports the total geometric genus otherwise.
Nodality itself is certified by counting distinct singular points in a
chart z = 1 that holds all of them, which holds exactly when the chart
ideal has tau standard monomials.  The identity chart is tried first, then
the shears z -> z + a*x + a^2*y for a = 1, 2, ...; each singular point
rules out at most two values of a, so one of a = 0..2*tau holds them all.
A singular point is a node exactly when the Hessian does not vanish there,
so all tau points are nodes exactly when the Hessian is a unit modulo the
chart ideal, that is when its multiplication matrix has full rank, which
one elimination mod p proves.  Otherwise the rank of Hermite's trace form
on the chart's quotient algebra counts the points.  Reducedness needs no
gcd: in characteristic 0 a homogeneous f is reduced exactly when its
singular locus is finite, which the Hilbert numerator of the Milnor
algebra already shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groebner import GroebnerBasis, buchberger, leading_ideal, normal_form
from .hilbert import milnor_profile
from .numberfield import SelfCheckError
from .polyring import Monomial, MPoly, dehomogenize, partials, variables


class SingularLocusError(RuntimeError):
    """Raised when the singular locus is not finite: the curve is not reduced."""


def is_reduced(f: MPoly) -> bool:
    """Square-freeness of a homogeneous polynomial in x, y, z of degree >= 2.

    f is reduced exactly when its singular locus is finite, that is when
    (1-t)^2 divides the Hilbert numerator of S/J_f (characteristic 0).
    """
    return milnor_profile(f).q_polynomial is not None


def _standard_monomials(lead: tuple[Monomial, ...]) -> list[Monomial] | None:
    """Monomials outside the leading ideal, or None if infinitely many."""
    bound_x = min((m[0] for m in lead if sum(m) == m[0]), default=None)
    bound_y = min((m[1] for m in lead if sum(m) == m[1]), default=None)
    if bound_x is None or bound_y is None:
        return None
    out = []
    for a in range(bound_x):
        for b in range(bound_y):
            m = (a, b)
            if not any(all(e <= f for e, f in zip(g, m)) for g in lead):
                out.append(m)
    return out


def _row(p: MPoly, index: dict[Monomial, int]) -> dict[int, Fraction]:
    """A normal form as a sparse row over the standard monomials."""
    return {index[m]: c for m, c in p.terms.items()}


def _multiples(p: MPoly, monomials: list[Monomial], gb: GroebnerBasis) -> dict[Monomial, MPoly]:
    """NF(p * m) for each monomial m of a set closed under division.

    The set is listed in increasing (a, b) order, so the parent of x^a y^b
    (divided by y, or by x when b = 0) comes first, and the value at x^a y^b
    is the normal form of that variable times the parent's value: each
    normal form is of a low-degree polynomial.
    """
    x, y = MPoly.variable(0, 2), MPoly.variable(1, 2)
    out: dict[Monomial, MPoly] = {}
    for a, b in monomials:
        if b:
            parent = out[a, b - 1] * y
        elif a:
            parent = out[a - 1, 0] * x
        else:
            parent = p
        out[a, b] = normal_form(parent, gb)
    return out


def _chart_point_count(g: MPoly, tau: int) -> int | None:
    """Distinct singular points of g = 0, or None when one lies on z = 0.

    By Euler's relation the chart ideal I of the partials at z = 1 is
    (G, G_x, G_y) for G = g(x, y, 1), so its standard monomials number the
    sum of the Tjurina numbers of the singular points in the chart.  Each
    is at least 1, so that sum is the total Tjurina number tau of the curve
    exactly when no singular point lies at infinity, and never more: more
    fails a self-check.

    A singular point is a node exactly when the Hessian of G does not
    vanish there, so every point is a node, and there are tau of them,
    exactly when the Hessian is a unit in A = Q[x, y]/I.  By
    Stickelberger's theorem that holds exactly when its tau x tau
    multiplication matrix has full rank.  Otherwise the points are counted
    by Hermite's trace form (a, b) -> Tr(m_ab) on A, whose rank is the
    number of distinct points of V(I) (Pedersen, Roy & Szpirglas 1993): its
    entry at standard monomials s_i, s_j is the trace of NF(s_i s_j), and
    the trace of m_s for a standard monomial s sums the coefficients of s'
    in NF(s s') over the standard monomials s'.
    """
    gb = buchberger(dehomogenize(p) for p in partials(g))
    standard = _standard_monomials(leading_ideal(gb))
    if standard is None or len(standard) > tau:
        raise SelfCheckError("the chart's Tjurina count exceeds the curve's")
    if len(standard) < tau:
        return None  # a singular point lies at infinity
    if tau == 0:
        return 0  # smooth curve: empty singular locus
    gx, gy = (dehomogenize(g).derivative(v) for v in (0, 1))
    gxy = gx.derivative(1)
    hessian = _multiples(gx.derivative(0) * gy.derivative(1) - gxy * gxy, standard, gb)
    index = {m: i for i, m in enumerate(standard)}
    if linalg.rank(_row(p, index) for p in hessian.values()) == tau:
        return tau
    doubled = sorted({(a + c, b + e) for a, b in standard for c, e in standard})
    products = _multiples(MPoly.constant(Fraction(1), 2), doubled, gb)
    traces = {
        (a, b): sum(products[a + c, b + e].terms.get((c, e), 0) for c, e in standard)
        for a, b in standard
    }
    value = {m: sum(c * traces[s] for s, c in p.terms.items()) for m, p in products.items()}
    return linalg.rank([[value[a + c, b + e] for c, e in standard] for a, b in standard])


def count_distinct_singular_points(f: MPoly) -> int:
    """Number of distinct singular points of the projective curve f = 0.

    Counts in the chart z = 1 of f itself, then of the shears
    f(x, y, z + a*x + a^2*y) for a = 1, 2, ..., and returns the first count
    from a chart that holds the whole Tjurina number tau of f, that is, with
    no singular point on the line at infinity; that count is a proof.  A
    singular point (x0:y0:z0) lies on the sheared line at infinity exactly
    when y0*a^2 + x0*a - z0 = 0, which has no root when x0 = y0 = 0 and at
    most two otherwise.  There are at most tau points, so some a in
    0..2*tau is accepted, and finding none is a failed self-check.  A
    non-reduced f has no finite tau.
    """
    if f.nvars != 3:
        raise ValueError("expected a polynomial in x, y, z")
    tau = milnor_profile(f).tau
    if tau is None:
        raise SingularLocusError("the singular locus is not finite: the curve is not reduced")
    x, y, z = variables(3)
    for a in range(2 * tau + 1):
        g = f.evaluate([x, y, z + a * x + a * a * y]) if a else f
        count = _chart_point_count(g, tau)
        if count is not None:
            return count
    raise SelfCheckError("every shear a = 0..2*tau leaves a singular point at infinity")


def is_nodal(f: MPoly) -> bool:
    """Whether every singularity is a node: the Tjurina number equals the
    number of distinct singular points exactly when all local types are A1.
    A non-reduced curve has no finite Tjurina number and is not nodal."""
    tau = milnor_profile(f).tau
    return tau is not None and tau == count_distinct_singular_points(f)


VERDICT_ALL_RATIONAL = "all_rational"
VERDICT_IRRATIONAL = "has_irrational_component"
VERDICT_NOT_NODAL = "not_nodal"
VERDICT_NOT_REDUCED = "not_reduced"


@dataclass(frozen=True)
class CurveReport:
    degree: int
    verdict: str
    tau: int | None = None
    distinct_singular_points: int | None = None
    dim_at_2d_minus_3: int | None = None
    genus_sum: int | None = None


def rationality_test(f: MPoly) -> CurveReport:
    """Classify a plane curve: rational arrangement, irrational component,
    not nodal, or not reduced.

    For nodal curves the verdict is all_rational exactly when the Milnor
    algebra dimension at 2d-3 equals the node count; their difference is
    the total geometric genus of the components.
    """
    if f.nvars != 3:
        raise ValueError("expected a polynomial in x, y, z")
    if f.is_zero() or not f.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous polynomial")
    d = f.degree()
    if d < 3:
        raise ValueError("require degree >= 3")
    prof = milnor_profile(f)
    if not is_reduced(f):
        return CurveReport(degree=d, verdict=VERDICT_NOT_REDUCED)
    points = count_distinct_singular_points(f)
    if prof.tau != points:
        return CurveReport(
            degree=d,
            verdict=VERDICT_NOT_NODAL,
            tau=prof.tau,
            distinct_singular_points=points,
        )
    dim = prof.dims[2 * d - 3]
    genus_sum = dim - prof.tau
    verdict = VERDICT_ALL_RATIONAL if genus_sum == 0 else VERDICT_IRRATIONAL
    constant_tail = all(v == prof.dims[2 * d - 3] for v in prof.dims[2 * d - 3 :])
    if constant_tail != (verdict == VERDICT_ALL_RATIONAL):
        raise SelfCheckError("stabilization at 2d-3 disagrees with the dimension test")
    return CurveReport(
        degree=d,
        verdict=verdict,
        tau=prof.tau,
        distinct_singular_points=points,
        dim_at_2d_minus_3=dim,
        genus_sum=genus_sum,
    )
