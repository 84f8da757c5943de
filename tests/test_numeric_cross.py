"""Floating-point trigonometry as an independent oracle for the exact algebra.

The shipped code never touches floats; these tests embed the symbolic
results numerically (g -> 2 cos(pi/d)) and compare against direct
trigonometric evaluation, which exercises a completely different route.
"""

import math
import random

import pytest

from chebcurve import upoly
from chebcurve.chebyshev import build, chebyshev_T, curve_affine
from chebcurve.numberfield import AlgNum, critical_point, real_cyclotomic_field

TOL = 1e-8


def alg_to_float(a: AlgNum, gamma: float) -> float:
    return sum(float(c) * gamma**i for i, c in enumerate(a.coeffs))


def mpoly_to_float(p, point, gamma: float) -> float:
    total = 0.0
    for mono, c in p.terms.items():
        cf = alg_to_float(c, gamma) if isinstance(c, AlgNum) else float(c)
        for xi, e in zip(point, mono):
            cf *= xi**e
        total += cf
    return total


class TestNumericEmbedding:
    @pytest.mark.parametrize("d", range(2, 25))
    def test_minimal_polynomial_has_the_right_root(self, d):
        gamma = 2.0 * math.cos(math.pi / d)
        value = upoly.evaluate(real_cyclotomic_field(d).minpoly, gamma)
        assert abs(float(value)) < TOL

    @pytest.mark.parametrize("d", range(2, 13))
    def test_critical_points_embed_to_cosines(self, d):
        field = real_cyclotomic_field(d)
        gamma = 2.0 * math.cos(math.pi / d)
        for k in range(1, d):
            lam = critical_point(field, k)
            assert abs(alg_to_float(lam, gamma) - math.cos(k * math.pi / d)) < TOL

    @pytest.mark.parametrize("d", range(1, 13))
    def test_chebyshev_polynomial_matches_cosine_identity(self, d):
        for theta in (0.3, 1.1, 2.2):
            value = upoly.evaluate(chebyshev_T(d), math.cos(theta))
            assert abs(float(value) - math.cos(d * theta)) < TOL


class TestNumericFactorization:
    @pytest.mark.parametrize("d", range(3, 11))
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_factor_product_tracks_curve(self, d, sign):
        data = build(d)
        gamma = 2.0 * math.cos(math.pi / d)
        constant, factors = (
            data.plus_factorization if sign == "plus" else data.minus_factorization
        )
        curve = curve_affine(d, sign)
        rng = random.Random(d)
        for _ in range(5):
            pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            product = float(constant)
            for f in factors:
                product *= mpoly_to_float(f, pt, gamma)
            direct = mpoly_to_float(curve, pt, gamma)
            assert abs(product - direct) < TOL * max(1.0, abs(direct))


class TestNumericNodes:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_node_grid_embeds_onto_the_curve(self, d):
        data = build(d)
        gamma = 2.0 * math.cos(math.pi / d)
        curve = curve_affine(d, "plus")
        for a, b in data.plus_nodes:
            pt = (alg_to_float(a, gamma), alg_to_float(b, gamma))
            assert abs(mpoly_to_float(curve, pt, gamma)) < 1e-6
