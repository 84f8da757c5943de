"""Curve construction, node grids, factorizations, conic intersections."""

from fractions import Fraction

import pytest

from chebcurve import upoly
from chebcurve.chebyshev import (
    build,
    chebyshev_T,
    conic_intersections,
    curve_affine,
    curve_polynomial,
    factor_curve,
    minus_conics,
    verify_nodes,
)
from chebcurve.hilbert import expected_node_count
from chebcurve.numberfield import real_cyclotomic_field
from chebcurve.polyring import MPoly, parse, partials


class TestChebyshevPolynomial:
    def test_linear(self):
        assert chebyshev_T(1) == upoly.T

    def test_cubic(self):
        assert chebyshev_T(3) == upoly.upoly([0, -3, 0, 4])

    def test_quartic(self):
        assert chebyshev_T(4) == upoly.upoly([1, 0, -8, 0, 8])

    @pytest.mark.parametrize("d", range(1, 12))
    def test_leading_coefficient(self, d):
        assert chebyshev_T(d)[-1] == 2 ** (d - 1)


class TestBuild:
    def test_quartic_nodes(self):
        data = build(4)
        field = data.field
        a = field.gen() * Fraction(1, 2)  # cos(pi/4)
        zero = field.zero()
        expected = {(a, zero), (zero, a), (zero, -a), (-a, zero)}
        assert set(data.plus_nodes) == expected

    def test_quintic_node_count(self):
        assert len(build(5).plus_nodes) == 8

    def test_cubic_companion_nodes(self):
        data = build(3)
        half = data.field.from_rational(Fraction(1, 2))
        assert set(data.minus_nodes) == {(half, half), (-half, -half)}

    @pytest.mark.parametrize("d", range(3, 11))
    def test_grid_partition(self, d):
        data = build(d)
        assert len(data.plus_nodes) == expected_node_count(d)
        assert len(data.plus_nodes) + len(data.minus_nodes) == (d - 1) ** 2
        assert not set(data.plus_nodes) & set(data.minus_nodes)

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            build(2)


class TestFactorizations:
    def test_cubic_minus(self):
        constant, factors = factor_curve(3, "minus")
        assert constant == 4
        assert factors[0] == parse("x - y", nvars=2).map_coefficients(
            real_cyclotomic_field(3).from_rational
        )
        assert factors[1] == parse("x^2 + x*y + y^2 - 3/4", nvars=2).map_coefficients(
            real_cyclotomic_field(3).from_rational
        )

    def test_quartic_plus(self):
        constant, factors = factor_curve(4, "plus")
        assert constant == 8
        field = real_cyclotomic_field(4)
        g = field.gen()
        expected = MPoly(
            2,
            {
                (2, 0): field.one(),
                (1, 1): g,
                (0, 2): field.one(),
                (0, 0): field.from_rational(Fraction(-1, 2)),
            },
        )
        assert expected in factors

    def test_quintic_plus_shape(self):
        constant, factors = factor_curve(5, "plus")
        assert constant == 16
        degrees = sorted(f.degree() for f in factors)
        assert degrees == [1, 2, 2]

    @pytest.mark.parametrize("d", range(3, 31))
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_product_identity(self, d, sign):
        data = build(d)
        constant, factors = (
            data.plus_factorization if sign == "plus" else data.minus_factorization
        )
        prod = MPoly.constant(Fraction(constant), 2)
        for p in factors:
            prod = prod * p
        target = curve_affine(d, sign).map_coefficients(data.field.from_rational)
        assert prod == target

    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_odd_mirror_equivalence(self, d):
        plus = curve_affine(d, "plus")
        mirrored = MPoly(2, {(a, b): c * (-1) ** b for (a, b), c in plus.terms.items()})
        assert mirrored == curve_affine(d, "minus")

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_even_factor_counts(self, d):
        m = d // 2
        assert len(factor_curve(d, "minus")[1]) == 2 + (m - 1)
        assert len(factor_curve(d, "plus")[1]) == m

    @pytest.mark.parametrize("d", range(3, 11))
    def test_companion_nodes_are_singular(self, d):
        data = build(d)
        Fm = data.minus_curve
        Fmx, Fmy = partials(Fm)
        for a, b in data.minus_nodes:
            assert Fm.evaluate((a, b)) == 0
            assert Fmx.evaluate((a, b)) == 0
            assert Fmy.evaluate((a, b)) == 0


class TestNodeVerification:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_all_nodes_certified(self, d):
        report = verify_nodes(d)
        assert report.ok
        assert report.points_checked == expected_node_count(d)

    def test_even_grid_point_not_on_curve(self):
        # (1/2, 1/2) has critical gradient but value -2, so it is not a node
        data = build(3)
        half = data.field.from_rational(Fraction(1, 2))
        assert data.plus_curve.evaluate((half, half)) == -2

    def test_companion_grid_point_is_not_a_node(self, monkeypatch):
        # at a companion-grid point T_d takes +-1 at both coordinates with
        # the same sign, so the curve takes +-2 while the gradient vanishes
        import dataclasses

        import chebcurve.chebyshev as chebyshev

        data = build(5)
        extra = data.minus_nodes[0]
        widened = dataclasses.replace(data, plus_nodes=data.plus_nodes + (extra,))
        monkeypatch.setattr(chebyshev, "build", lambda d: widened)
        report = verify_nodes(5)
        assert report.points_checked == len(data.plus_nodes) + 1
        assert report.failures == ((f"({extra[0]}, {extra[1]})", "curve does not vanish"),)


class TestConicIntersections:
    @pytest.mark.parametrize("d,k,l", [(6, 1, 2), (8, 1, 3), (8, 2, 3), (7, 1, 2)])
    def test_four_distinct_points(self, d, k, l):
        points = conic_intersections(d, k, l)
        assert len(points) == 4

    @pytest.mark.parametrize("d", range(5, 11))
    def test_all_pairs_intersect_in_grid_points(self, d):
        data = build(d)
        grid = set(data.minus_nodes)
        n = len(minus_conics(d))
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                for pt in conic_intersections(d, k, l):
                    assert pt in grid

    def test_points_lie_on_companion_grid(self):
        data = build(5)
        for pt in conic_intersections(5, 1, 2):
            assert pt in data.minus_nodes

    def test_failed_membership_is_a_self_check(self, monkeypatch):
        import chebcurve.chebyshev as chebyshev
        from chebcurve.numberfield import SelfCheckError

        shifted = [g + 1 for g in minus_conics(6)]
        monkeypatch.setattr(chebyshev, "minus_conics", lambda d: shifted)
        with pytest.raises(SelfCheckError, match="fails membership"):
            conic_intersections(6, 1, 2)

    def test_degenerate_indices_rejected(self):
        with pytest.raises(ValueError):
            conic_intersections(6, 2, 2)
        with pytest.raises(ValueError):
            conic_intersections(6, 1, 5)

    def test_homogenized_curve_matches_parse(self):
        assert curve_polynomial(4) == parse("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4")
