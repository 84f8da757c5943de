"""The rational-arrangement certificate and its building blocks."""

import dataclasses
import random
from fractions import Fraction

import pytest

from chebcurve import arrangement, upoly
from chebcurve.arrangement import (
    _points_at_infinity,
    count_distinct_singular_points,
    is_nodal,
    is_reduced,
    rationality_test,
)
from chebcurve.chebyshev import curve_polynomial
from chebcurve.groebner import buchberger, leading_ideal, multiple_rows, normal_form
from chebcurve.hilbert import expected_node_count, milnor_profile
from chebcurve.numberfield import SelfCheckError
from chebcurve.polyring import MPoly, dehomogenize, grevlex_unpack, parse, partials


class TestIsReduced:
    def test_three_axes(self):
        assert is_reduced(parse("x*y*z"))

    def test_double_line(self):
        assert not is_reduced(parse("x^2*y"))

    def test_chebyshev_sextic(self):
        assert is_reduced(curve_polynomial(6))

    def test_double_conic(self):
        conic = parse("x^2 + y^2 - z^2")
        assert not is_reduced(conic * conic)


def _random_factor(rng):
    """A nonzero line, or a conic (possibly singular), with small coefficients."""
    monos = (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        if rng.random() < 0.5
        else [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    )
    while True:
        p = MPoly(3, {m: rng.randint(-2, 2) for m in monos})
        if not p.is_zero():
            return p


class TestIsReducedOracle:
    """is_reduced reads reducedness off the Milnor algebra's Hilbert
    numerator; sympy's squarefree factorization is an independent oracle."""

    def test_agrees_with_sympy_sqf(self):
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        rng = random.Random(2011)
        seen = {True: 0, False: 0}
        for _ in range(40):
            factors = [_random_factor(rng) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.3:
                factors.append(factors[0])  # a repeated factor
            f = factors[0]
            for g in factors[1:]:
                f = f * g
            expected = all(
                mult == 1
                for _, mult in sympy.Poly.from_dict(
                    {m: int(c) for m, c in f.terms.items()}, x, y, z
                ).sqf_list()[1]
            )
            assert is_reduced(f) == expected, f
            seen[expected] += 1
        assert seen[True] and seen[False]


# invertible integer coordinate changes, by the rows of their matrices
# (determinants 1, 2 and 9)
CHANGES = (
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((2, -1, 0), (1, 1, -1), (0, 3, 1)),
)


class TestSingularPointCount:
    def test_quartic_grid(self):
        assert count_distinct_singular_points(curve_polynomial(4)) == 4

    def test_three_axes(self):
        assert count_distinct_singular_points(parse("x*y*z")) == 3

    def test_line_meets_cubic(self):
        f = parse("x + y + z") * parse("x^3 + y^3 + z^3")
        assert count_distinct_singular_points(f) == 3

    def test_cusp_counts_once(self):
        assert count_distinct_singular_points(parse("z*y^2 - x^3")) == 1

    def test_smooth_curve_has_none(self):
        assert count_distinct_singular_points(parse("x^4 + y^4 + z^4")) == 0

    def test_ordinary_triple_point_counts_once(self):
        # the Hessian vanishes at a triple point, so the count comes from
        # the radical of the chart ideal
        assert count_distinct_singular_points(parse("x^2*y - x*y^2")) == 1

    def test_triple_point_and_nodes(self):
        f = parse("x^2*y - x*y^2") * parse("x + 2*y + 3*z")
        assert count_distinct_singular_points(f) == 4

    @pytest.mark.parametrize(
        "f",
        [curve_polynomial(d) for d in range(4, 8)]
        + [
            parse("x*y*z"),
            parse("y^2*z - x^3 - x^2*z"),
            parse("x + y + z") * parse("x^3 + y^3 + z^3"),
            parse("z*y^2 - x^3"),
            parse("x*y*z") * parse("x + y - z"),
            curve_polynomial(6) * parse("z"),
            curve_polynomial(8) * parse("x*z"),
        ],
    )
    def test_independent_trials_agree(self, f):
        # the count is projectively invariant, so f and its images under
        # fixed invertible coordinate changes, each counted in its own
        # chart, must give the same count
        count = count_distinct_singular_points(f)
        for rows in CHANGES:
            images = [MPoly(3, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in rows]
            assert count_distinct_singular_points(f.evaluate(images)) == count

    def test_one_groebner_basis_on_t5(self, monkeypatch):
        # the chart's basis is read from the Jacobian basis milnor_profile
        # computed, so the count computes no basis of its own
        from chebcurve import hilbert

        calls = []
        buchberger = hilbert.buchberger

        def counted(ideal):
            calls.append(tuple(ideal))
            return buchberger(calls[-1])

        monkeypatch.setattr(hilbert, "buchberger", counted)
        monkeypatch.setattr(arrangement, "buchberger", counted)
        hilbert.milnor_profile.cache_clear()
        assert count_distinct_singular_points(curve_polynomial(5)) == 8
        assert len(calls) == 1
        assert [p.nvars for p in calls[0]] == [3, 3, 3]

    def test_chart_count_above_tau_fails_self_check(self, monkeypatch):
        profile = arrangement.milnor_profile

        def low_tau(f):
            prof = profile(f)
            return dataclasses.replace(prof, tau=prof.tau - 1)

        monkeypatch.setattr(arrangement, "milnor_profile", low_tau)
        with pytest.raises(SelfCheckError):
            count_distinct_singular_points(curve_polynomial(4))

    def test_t12_times_line_in_the_identity_chart(self, monkeypatch):
        chart = arrangement._chart_point_count
        counts = []

        def recorded(*args):
            counts.append(chart(*args))
            return counts[-1]

        monkeypatch.setattr(arrangement, "_chart_point_count", recorded)
        f = curve_polynomial(12) * parse("x")
        assert arrangement.milnor_profile(f).tau == 78
        assert count_distinct_singular_points(f) == 60
        assert counts == [60]

    def _with_points_at_infinity(self, monkeypatch, count):
        monkeypatch.setattr(arrangement, "_points_at_infinity", lambda f: count)

    def test_point_at_infinity_with_the_whole_tau_in_the_chart_fails_self_check(
        self, monkeypatch
    ):
        # the four nodes of T4 lie in the chart z = 1 and hold all of tau
        self._with_points_at_infinity(monkeypatch, 1)
        with pytest.raises(SelfCheckError, match="yet a singular point lies at infinity"):
            count_distinct_singular_points(curve_polynomial(4))

    def test_chart_short_of_tau_without_points_at_infinity_fails_self_check(self, monkeypatch):
        # (1:0:0) and (0:1:0) of x*y*z lie on z = 0
        self._with_points_at_infinity(monkeypatch, 0)
        with pytest.raises(SelfCheckError, match="yet no singular point lies at infinity"):
            count_distinct_singular_points(parse("x*y*z"))

    def test_count_above_tau_fails_self_check(self, monkeypatch):
        # the chart of x*y*z holds one of its tau = 3 points, so three more
        # at infinity make four
        self._with_points_at_infinity(monkeypatch, 3)
        with pytest.raises(SelfCheckError, match="more distinct singular points"):
            count_distinct_singular_points(parse("x*y*z"))

    def test_non_reduced_raises_before_any_trial(self, monkeypatch):
        from chebcurve.arrangement import SingularLocusError

        calls = []
        monkeypatch.setattr(arrangement, "_chart_point_count", lambda *args: calls.append(args))
        monkeypatch.setattr(arrangement, "_points_at_infinity", lambda f: calls.append(f))
        with pytest.raises(SingularLocusError):
            count_distinct_singular_points(parse("x^2*y"))
        assert calls == []

    def test_positive_dimensional_locus_raises(self):
        from chebcurve.arrangement import SingularLocusError

        with pytest.raises(SingularLocusError):
            count_distinct_singular_points(parse("x^2*y"))


def _seeded_products(seed, degrees):
    """Reduced products of lines and conics, one of each given degree."""
    rng = random.Random(seed)
    out = []
    for target in degrees:
        while True:
            f = _random_factor(rng)
            while f.degree() < target:
                f = f * _random_factor(rng)
            if f.degree() == target and is_reduced(f):
                out.append(f)
                break
    return out


class TestPointsAtInfinity:
    """The singular points on z = 0 are the common zeros there of the
    three partials, counted by one univariate gcd."""

    def test_axes(self):
        # (1:0:0) and (0:1:0)
        assert _points_at_infinity(parse("x*y*z")) == 2

    def test_axes_and_a_line(self):
        # (1:0:0), (0:1:0) and (1:-1:0); (0:1:1) and the others lie in the chart
        assert _points_at_infinity(parse("x*y*z") * parse("x + y - z")) == 3

    @pytest.mark.parametrize("d", range(4, 9))
    def test_chebyshev_curves_have_none(self, d):
        assert _points_at_infinity(curve_polynomial(d)) == 0

    def test_t10_times_the_line_at_infinity(self):
        # z = 0 meets T10 in ten distinct points
        assert _points_at_infinity(curve_polynomial(10) * parse("z")) == 10

    def test_tangent_at_a_flex(self):
        # x + y = 0 meets the Fermat cubic only at (1:-1:0)
        assert _points_at_infinity(parse("x + y") * parse("x^3 + y^3 + z^3")) == 1

    def test_singular_line_at_infinity_fails_self_check(self):
        # every partial of x*z^2 vanishes on z = 0
        with pytest.raises(SelfCheckError, match="line z = 0 is singular"):
            _points_at_infinity(parse("x*z^2"))

    def test_agrees_with_sympy_roots(self):
        # the distinct projective roots of the gcd of the restricted
        # partials, found by sympy's factorization of the binary forms
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        corpus = _seeded_products(11, (3, 4, 4, 5, 5, 6)) + [
            parse("x*y*z") * parse("x + y - z"),
            curve_polynomial(6) * parse("z"),
        ]
        for f in corpus:
            g = sympy.Poly.from_dict({m: int(c) for m, c in f.terms.items()}, x, y, z).as_expr()
            forms = [sympy.diff(g, v).subs(z, 0) for v in (x, y, z)]
            h = sympy.Integer(0)
            for form in forms:
                h = sympy.gcd(h, form)
            assert h != 0
            # the distinct irreducible factors of a binary form over C are
            # its distinct roots: one per linear factor over Q-bar
            roots = sum(
                sympy.Poly(factor, x, y).total_degree()
                for factor, _ in sympy.factor_list(h, x, y)[1]
            )
            assert _points_at_infinity(f) == roots, f


class TestHessianCertificate:
    """A singular point is a node exactly when the Hessian of the chart
    polynomial is nonzero there, so a unit Hessian proves tau nodes; any
    other input is counted by the rank of Hermite's trace form."""

    CORPUS = (
        [curve_polynomial(d) for d in range(4, 9)]
        + _seeded_products(7, (4, 4, 5, 5))
        + [
            parse("x + y + z") * parse("x^3 + y^3 + z^3"),
            # tangent at a flex, at (1:0:-1) in the chart z = 1
            parse("x + z") * parse("x^3 + y^3 + z^3"),
        ]
    )

    @pytest.mark.parametrize("f", CORPUS)
    def test_radical_path_agrees(self, f, monkeypatch):
        # Hessian rows mod p that fall short (all zero here) go straight to
        # the trace form on the same chart, whose rank is the one rank taken
        expected = count_distinct_singular_points(f)
        calls = []
        rank = arrangement.linalg.rank

        def counted(rows):
            calls.append(1)
            return rank(rows)

        monkeypatch.setattr(arrangement, "multiple_rows", lambda gb, h, standard: ({} for _ in standard))
        monkeypatch.setattr(arrangement.linalg, "rank", counted)
        assert count_distinct_singular_points(f) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("d", range(4, 9))
    def test_nodal_chebyshev_curves_take_no_exact_rank(self, d, monkeypatch):
        # the Hessian's rows mod p reach full rank, which proves the nodes
        def refuse(rows):
            raise AssertionError("an exact rank was taken")

        monkeypatch.setattr(arrangement.linalg, "rank", refuse)
        assert count_distinct_singular_points(curve_polynomial(d)) == expected_node_count(d)

    def test_t10_without_gcd(self, monkeypatch):
        calls = []
        gcd_poly = upoly.gcd_poly

        def counted(a, b):
            calls.append((a, b))
            return gcd_poly(a, b)

        monkeypatch.setattr(upoly, "gcd_poly", counted)
        rep = rationality_test(curve_polynomial(10))
        assert rep.verdict == "all_rational"
        assert rep.distinct_singular_points == 40
        # only the restrictions to z = 0 of the degree-9 partials, and the
        # square-free test of their gcd
        assert 0 < len(calls) <= 4
        assert all(upoly.degree(p) <= 9 for call in calls for p in call)

    def test_t8_times_line_is_not_nodal(self):
        # the line x = 0 passes through nodes of T8, making them triple points
        rep = rationality_test(curve_polynomial(8) * parse("x"))
        assert rep.verdict == "not_nodal"
        assert rep.tau == 36
        assert rep.distinct_singular_points == 24


def _chart_oracle(f):
    """The chart ideal's reduced basis, computed from the dehomogenized partials."""
    return buchberger(dehomogenize(p) for p in partials(f))


def _chart_of_jacobian(f):
    """The chart's basis as the count reads it from the Jacobian basis."""
    return arrangement._chart_basis(f, milnor_profile(f).basis)


def _hessian(f):
    fx, fy = (dehomogenize(f).derivative(v) for v in (0, 1))
    return fx.derivative(0) * fy.derivative(1) - fx.derivative(1) * fx.derivative(1)


class TestChartBasis:
    """The chart's Groebner basis is the Jacobian basis at z = 1, checked
    against the basis of the dehomogenized partials."""

    CORPUS = (
        TestHessianCertificate.CORPUS
        + _seeded_products(11, (3, 4, 4, 5, 5, 6))
        + [
            parse("x*y*z") * parse("x + y - z"),
            curve_polynomial(6) * parse("z"),
            # a cone: f_z = 0, so the complete-intersection route keeps no basis
            parse("x^2*y - x*y^2"),
        ]
    )

    @pytest.mark.parametrize("f", CORPUS)
    def test_dehomogenized_jacobian_basis_is_a_groebner_basis(self, f):
        from test_groebner import s_polynomial

        gb = _chart_of_jacobian(f)
        oracle = _chart_oracle(f)
        assert all(g.nvars == 2 for g in gb.elements)
        # every S-polynomial reduces to zero, and each basis lies in the
        # other's ideal
        for i, g in enumerate(gb.elements):
            for h in gb.elements[i + 1 :]:
                assert normal_form(s_polynomial(g, h), gb).is_zero()
        assert all(normal_form(g, oracle).is_zero() for g in gb.elements)
        assert all(normal_form(g, gb).is_zero() for g in oracle.elements)

    @pytest.mark.parametrize("f", CORPUS)
    def test_standard_monomials_match_the_oracle(self, f):
        standard = arrangement._standard_monomials(leading_ideal(_chart_of_jacobian(f)))
        assert standard == arrangement._standard_monomials(leading_ideal(_chart_oracle(f)))

    @pytest.mark.parametrize("f", TestHessianCertificate.CORPUS)
    def test_hessian_rows_are_multiples_of_the_normal_forms(self, f):
        gb = _chart_of_jacobian(f)
        standard = arrangement._standard_monomials(leading_ideal(gb))
        exact = {m: normal_form(_hessian(f) * MPoly(2, {m: Fraction(1)}), gb) for m in standard}
        rows = list(multiple_rows(gb, _hessian(f), standard))
        assert len(rows) == len(standard)
        for m, row in zip(standard, rows):
            terms = {grevlex_unpack(-k, 2): c for k, c in row.items()}
            assert set(terms) == set(exact[m].terms)
            assert len({Fraction(c) / exact[m].terms[mono] for mono, c in terms.items()}) <= 1


def _line_through(p, q):
    """The coefficients of the line through two projective points."""
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _projective_point(v):
    """A projective point as a tuple scaled to lead with 1."""
    lead = next(c for c in v if c)
    return tuple(Fraction(c, lead) for c in v)


def _concurrent_lines(seed):
    """4-6 distinct integer lines, two to four of them forced through one point."""
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    centre = [rng.randint(-3, 3) for _ in range(3)]
    centre[2] = rng.randint(1, 3)
    through = rng.randint(2, 4)
    lines = []
    while len(lines) < n:
        if len(lines) < through:
            line = _line_through(centre, [rng.randint(-4, 4) for _ in range(3)])
        else:
            line = tuple(rng.randint(-4, 4) for _ in range(3))
        if any(line) and _projective_point(line) not in {_projective_point(l) for l in lines}:
            lines.append(line)
    return lines


class TestLineArrangementOracle:
    """The singular points of a reduced line arrangement are the distinct
    pairwise intersections, each the cross product of two lines."""

    @pytest.mark.parametrize("seed", range(8))
    def test_count_matches_pairwise_intersections(self, seed):
        lines = _concurrent_lines(seed)
        points = {
            _projective_point(_line_through(a, b))
            for i, a in enumerate(lines)
            for b in lines[i + 1 :]
        }
        f = MPoly.constant(Fraction(1), 3)
        for a, b, c in lines:
            f = f * MPoly(3, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
        assert count_distinct_singular_points(f) == len(points)


class TestIsNodal:
    def test_chebyshev_quintic(self):
        assert is_nodal(curve_polynomial(5))

    def test_cusp_is_not(self):
        assert not is_nodal(parse("z*y^2 - x^3"))

    def test_three_axes(self):
        assert is_nodal(parse("x*y*z"))

    def test_non_reduced_is_not(self):
        assert not is_nodal(parse("x^2*y"))


class TestRationalityTest:
    def test_chebyshev_quartic(self):
        rep = rationality_test(curve_polynomial(4))
        assert rep.verdict == "all_rational"
        assert rep.tau == 4
        assert rep.dim_at_2d_minus_3 == 4
        assert rep.genus_sum == 0

    def test_line_plus_cubic(self):
        rep = rationality_test(parse("x + y + z") * parse("x^3 + y^3 + z^3"))
        assert rep.verdict == "has_irrational_component"
        assert rep.tau == 3
        assert rep.dim_at_2d_minus_3 == 4
        assert rep.genus_sum == 1

    def test_nodal_cubic(self):
        rep = rationality_test(parse("y^2*z - x^3 - x^2*z"))
        assert rep.verdict == "all_rational"
        assert rep.tau == 1
        assert rep.dim_at_2d_minus_3 == 1

    def test_cusp(self):
        rep = rationality_test(parse("z*y^2 - x^3"))
        assert rep.verdict == "not_nodal"
        assert rep.tau == 2
        assert rep.distinct_singular_points == 1

    def test_two_tacnodes(self):
        # two conics tangent at (0:0:1) and (0:1:0), tau 3 each
        rep = rationality_test(parse("y^2*z^2 - x^4"))
        assert rep.verdict == "not_nodal"
        assert rep.tau == 6
        assert rep.distinct_singular_points == 2

    def test_not_reduced(self):
        rep = rationality_test(parse("x^2*y"))
        assert rep.verdict == "not_reduced"
        assert rep.tau is None

    def test_three_axes(self):
        rep = rationality_test(parse("x*y*z"))
        assert rep.verdict == "all_rational"
        assert rep.tau == 3 and rep.dim_at_2d_minus_3 == 3

    def test_smooth_quartic_reports_genus(self):
        rep = rationality_test(parse("x^4 + y^4 + z^4"))
        assert rep.verdict == "has_irrational_component"
        assert rep.tau == 0
        assert rep.genus_sum == 3

    def test_ordinary_triple_point(self):
        rep = rationality_test(parse("x^2*y - x*y^2"))
        assert rep.verdict == "not_nodal"
        assert rep.tau == 4  # an ordinary triple point has tau 4
        assert rep.distinct_singular_points == 1

    def test_double_conic_not_reduced(self):
        conic = parse("x^2 + y^2 - z^2")
        rep = rationality_test(conic * conic * parse("x"))
        assert rep.verdict == "not_reduced"

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            rationality_test(parse("x^2 + y*z"))


def _random_lines(rng, n):
    while True:
        lines = [
            MPoly(
                3,
                {
                    (1, 0, 0): rng.randint(-5, 5),
                    (0, 1, 0): rng.randint(-5, 5),
                    (0, 0, 1): rng.randint(-5, 5),
                },
            )
            for _ in range(n)
        ]
        if all(not l.is_zero() for l in lines):
            f = lines[0]
            for l in lines[1:]:
                f = f * l
            if is_reduced(f):
                return f


class TestLineArrangements:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_general_position_counts(self, n):
        rng = random.Random(100 + n)
        rep = rationality_test(_random_lines(rng, n))
        assert rep.verdict == "all_rational"
        assert rep.tau == n * (n - 1) // 2

    def test_degree_eight_curve(self):
        rep = rationality_test(curve_polynomial(8))
        assert rep.verdict == "all_rational"
        assert rep.tau == 24

    @pytest.mark.parametrize("d", range(3, 8))
    def test_nodal_corpus_tail_behaviour(self, d):
        # stabilized dims equal the node count and the tail never increases
        from chebcurve.hilbert import milnor_profile

        prof = milnor_profile(curve_polynomial(d))
        rep = rationality_test(curve_polynomial(d))
        assert rep.genus_sum == 0
        assert prof.dims[-1] == rep.tau


class TestCompanionCurve:
    """The difference curve is itself a rational arrangement whose node count
    is the complementary grid size."""

    @pytest.mark.parametrize("d", range(4, 8))
    def test_companion_is_rational_arrangement(self, d):
        from chebcurve.chebyshev import curve_affine
        from chebcurve.hilbert import expected_node_count, milnor_profile
        from chebcurve.polyring import homogenize

        f = homogenize(curve_affine(d, "minus"), d)
        rep = rationality_test(f)
        assert rep.verdict == "all_rational"
        assert rep.tau == (d - 1) ** 2 - expected_node_count(d)


class TestKnownArrangements:
    """Verdicts with node counts known independently from intersection theory."""

    def test_two_conics(self):
        f = parse("x^2 + y^2 - z^2") * parse("x^2 + 2*y^2 - 3*z^2 + x*y")
        rep = rationality_test(f)
        assert rep.verdict == "all_rational"
        assert rep.tau == 4  # Bezout: 2 * 2

    def test_conic_and_line(self):
        f = parse("x^2 + y^2 - z^2") * parse("x + 2*y + 3*z")
        rep = rationality_test(f)
        assert rep.verdict == "all_rational"
        assert rep.tau == 2

    def test_smooth_cubic_and_conic(self):
        f = parse("x^3 + y^3 + z^3") * parse("x^2 + y^2 - 2*z^2 + x*y")
        rep = rationality_test(f)
        assert rep.verdict == "has_irrational_component"
        assert rep.tau == 6  # Bezout: 3 * 2
        assert rep.genus_sum == 1  # the smooth cubic

    def test_line_through_two_conic_intersections(self):
        # the line meets both conics at two of their four common points,
        # making two ordinary triple points (tau 4 each) and two nodes
        f = (
            parse("-x + y - z")
            * parse("-x^2 - x*y + y^2 - x*z + y*z - z^2")
            * parse("-x^2 - x*y + y^2 + x*z - y*z + z^2")
        )
        rep = rationality_test(f)
        assert rep.verdict == "not_nodal"
        assert rep.tau == 10
        assert rep.distinct_singular_points == 4

    def test_nodal_cubic_and_line(self):
        f = parse("y^2*z - x^3 - x^2*z") * parse("x + 3*y + 2*z")
        rep = rationality_test(f)
        assert rep.verdict == "all_rational"
        assert rep.tau == 4  # own node plus three transversal crossings


class TestNodalTailMonotonicity:
    CORPUS = [
        parse("x*y*z"),
        parse("y^2*z - x^3 - x^2*z"),
        parse("x + y + z") * parse("x^3 + y^3 + z^3"),
        curve_polynomial(5),
        _random_lines(random.Random(42), 4),
    ]

    @pytest.mark.parametrize("f", CORPUS)
    def test_dims_non_increasing_after_2d_minus_3(self, f):
        from chebcurve.hilbert import milnor_profile

        prof = milnor_profile(f)
        d = f.degree()
        dims = prof.dims
        assert all(dims[k - 1] >= dims[k] for k in range(2 * d - 3, len(dims)))
        assert dims[-1] == prof.tau
        assert prof.tau >= 0
