"""Certificate deciding whether a nodal plane curve is a rational arrangement.

The test compares the number of nodes (the Tjurina number, read from the
Milnor algebra at the general stabilization bound) with the graded
dimension at 2d-3: equality certifies that every irreducible component is
rational, and the difference reports the total geometric genus otherwise.
Nodality itself is certified by counting the distinct singular points in
two disjoint parts, the chart z = 1 and the line z = 0.  In the chart, a
singular point is a node exactly when the Hessian does not vanish there,
so all n points of the chart ideal (n its standard monomials) are nodes
exactly when the Hessian is a unit modulo the ideal, that is when its
multiplication matrix has full rank, which one elimination mod p proves.
Otherwise the rank of Hermite's trace form on the chart's quotient algebra,
which counts the points of any zero-dimensional chart ideal, gives them.
On z = 0 the singular points are, by Euler's relation, the common zeros
of the three partials, which one univariate gcd finds.
Each point has Tjurina number at least 1, so n equals tau exactly when no
point lies at infinity; a disagreement is a failed self-check.
Reducedness needs no gcd: in characteristic 0 a homogeneous f is reduced
exactly when its singular locus is finite, which the Hilbert numerator of
the Milnor algebra already shows.

The chart needs no basis of its own: the elements g(x, y, 1) of the exact
basis G of the partials, which ``milnor_profile`` keeps, are a Groebner
basis of the chart ideal.  In grevlex with z last, monomials x^a y^b z^c
of one degree compare by a + b, then by the smaller b, which is grevlex on
x^a y^b, so LM(g(x, y, 1)) = LM(g)(x, y, 1).  An h in the chart ideal has
some F = z^k * h^hom among the forms of the ideal of the partials; then
LM(h) = LM(F)(x, y, 1), which LM(g)(x, y, 1) divides for a g whose LM
divides LM(F).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, upoly
from .groebner import GroebnerBasis, buchberger, leading_ideal, multiple_rows, normal_form
from .hilbert import MilnorProfile, milnor_profile
from .numberfield import SelfCheckError
from .polyring import Monomial, MPoly, dehomogenize, partials


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


def _normal_forms(monomials: list[Monomial], gb: GroebnerBasis) -> dict[Monomial, MPoly]:
    """NF(m) for each monomial m of a set closed under division.

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
            parent = MPoly.constant(Fraction(1), 2)
        out[a, b] = normal_form(parent, gb)
    return out


def _chart_basis(f: MPoly, G: GroebnerBasis | None) -> GroebnerBasis:
    """The Groebner basis g(x, y, 1) of the chart ideal, g in the exact basis
    G of the partials (see the module docstring).  Only a cone, with a zero
    partial, proves tau > 0 with no exact basis; its G is made here."""
    G = G or buchberger(partials(f))
    return GroebnerBasis(tuple(map(dehomogenize, G.elements)))


def _chart_point_count(f: MPoly, prof: MilnorProfile, at_infinity: int) -> int:
    """Distinct singular points of f = 0 in the chart z = 1, from the
    Milnor profile of f.

    By Euler's relation the chart ideal I of the partials at z = 1 is
    (F, F_x, F_y) for F = f(x, y, 1), so its n standard monomials number
    the sum of the Tjurina numbers of the singular points in the chart.
    Each is at least 1, so n is the total Tjurina number tau of the curve
    exactly when no singular point lies at infinity, and never more: more,
    or an n that disagrees with ``at_infinity``, fails a self-check.

    A singular point is a node exactly when the Hessian of F does not
    vanish there, so every point is a node, and there are n of them,
    exactly when the Hessian is a unit in A = Q[x, y]/I.  By
    Stickelberger's theorem that holds exactly when its n x n
    multiplication matrix has full rank, which its rows from
    ``multiple_rows`` prove mod linalg's p (rank_p <= rank <= n).  Otherwise,
    a rank short of n or an unlucky prime alike, the points are counted
    by Hermite's trace form (a, b) -> Tr(m_ab) on A, whose rank is the
    number of distinct points of V(I) (Pedersen, Roy & Szpirglas 1993): its
    entry at standard monomials s_i, s_j is the trace of NF(s_i s_j), and
    the trace of m_s for a standard monomial s sums the coefficients of s'
    in NF(s s') over the standard monomials s'.
    """
    tau = prof.tau
    # tau = 0: no singular point, and no basis to read it from
    gb = _chart_basis(f, prof.basis) if tau else None
    standard = _standard_monomials(leading_ideal(gb)) if tau else []
    if standard is None or len(standard) > tau:
        raise SelfCheckError("the chart's Tjurina count exceeds the curve's")
    n = len(standard)
    if n == tau and at_infinity:
        raise SelfCheckError("the chart holds all of tau, yet a singular point lies at infinity")
    if n < tau and not at_infinity:
        raise SelfCheckError("the chart misses part of tau, yet no singular point lies at infinity")
    if not n:
        return 0
    fx, fy = (dehomogenize(f).derivative(v) for v in (0, 1))
    fxy = fx.derivative(1)
    hessian = fx.derivative(0) * fy.derivative(1) - fxy * fxy
    echelon = linalg.Echelon(linalg.residue_map(None)[0])
    if all(echelon.insert(row) for row in multiple_rows(gb, hessian, standard)):
        return n
    doubled = sorted({(a + c, b + e) for a, b in standard for c, e in standard})
    products = _normal_forms(doubled, gb)
    traces = {
        (a, b): sum(products[a + c, b + e].terms.get((c, e), 0) for c, e in standard)
        for a, b in standard
    }
    value = {m: sum(c * traces[s] for s, c in p.terms.items()) for m, p in products.items()}
    return linalg.rank([[value[a + c, b + e] for c, e in standard] for a, b in standard])


def _points_at_infinity(f: MPoly) -> int:
    """Distinct singular points of f = 0 on the line z = 0.

    By Euler's relation d*f = x*f_x + y*f_y + z*f_z, a point of z = 0 is
    singular exactly when f_x, f_y and f_z vanish there, that is when it is
    a common zero of their restrictions to z = 0, binary forms of degree
    d - 1.  Dehomogenized at y = 1, the common zeros (x0:1:0) are the
    roots of the gcd h of the nonzero forms, of which there are
    deg h - deg gcd(h, h') distinct ones; (1:0:0) is a common zero exactly
    when y divides every nonzero form.  All three forms zero means the
    line z = 0 is singular, which a reduced curve rules out.
    """
    d = f.degree()
    forms = []
    for p in partials(f):
        coeffs = [0] * d
        for (a, _, c), v in p.terms.items():
            if not c:
                coeffs[a] = v
        if any(coeffs):
            forms.append(upoly.upoly(coeffs))
    if not forms:
        raise SelfCheckError("the line z = 0 is singular, yet the curve is reduced")
    h = forms[0]
    for p in forms[1:]:
        h = upoly.gcd_poly(h, p)
    distinct = upoly.degree(h) - upoly.degree(upoly.gcd_poly(h, upoly.derivative(h)))
    return distinct + all(upoly.degree(p) < d - 1 for p in forms)


def count_distinct_singular_points(f: MPoly) -> int:
    """Number of distinct singular points of the projective curve f = 0.

    The points in the chart z = 1 and on the line z = 0 are counted apart
    and added; each has Tjurina number at least 1, so a sum above the
    Tjurina number tau of f is a failed self-check.  A non-reduced f has no
    finite tau.
    """
    if f.nvars != 3:
        raise ValueError("expected a polynomial in x, y, z")
    prof = milnor_profile(f)
    tau = prof.tau
    if tau is None:
        raise SingularLocusError("the singular locus is not finite: the curve is not reduced")
    at_infinity = _points_at_infinity(f)
    count = _chart_point_count(f, prof, at_infinity) + at_infinity
    if count > tau:
        raise SelfCheckError("more distinct singular points than the Tjurina number")
    return count


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
