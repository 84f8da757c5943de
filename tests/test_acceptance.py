"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer or field-element equality); the only
tolerances are the wall-clock bounds of criterion 1.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from chebcurve.arrangement import rationality_test
from chebcurve.chebyshev import build, curve_affine, curve_polynomial, verify_nodes
from chebcurve.cli import main
from chebcurve.groebner import buchberger, leading_ideal
from chebcurve.hilbert import (
    chebyshev_milnor_numerator,
    expected_node_count,
    hilbert_numerator,
    milnor_profile,
    series_dims,
)
from chebcurve.interp import evaluation_kernel_dim, evaluation_thresholds
from chebcurve.polyring import MPoly, parse, partials
from chebcurve.syzygy import syzygy_dim, syzygy_dim_from_hilbert, verify_resolution


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_closed_form_numerators():
    with criterion(1, "closed-form numerators d=3..8"):
        milnor_profile.cache_clear()
        for d in range(3, 9):
            start = time.perf_counter()
            gb = buchberger(partials(curve_polynomial(d)))
            numerator = hilbert_numerator(leading_ideal(gb))
            elapsed = time.perf_counter() - start
            assert numerator == chebyshev_milnor_numerator(d), f"d={d}"
            limit = 10.0 if d <= 6 else 60.0
            assert elapsed <= limit, f"d={d} took {elapsed:.1f}s (limit {limit}s)"


def test_criterion_2_node_counts_and_stabilization():
    with criterion(2, "node counts and dims on [2d-3, 3d]"):
        for d in range(3, 9):
            count = expected_node_count(d)
            assert len(build(d).plus_nodes) == count, f"d={d}"
            prof = milnor_profile(curve_polynomial(d), kmax=3 * d)
            for k in range(2 * d - 3, 3 * d + 1):
                assert prof.dims[k] == count, f"d={d}, k={k}"


def test_criterion_3_node_certification():
    with criterion(3, "symbolic node certification d=3..8"):
        for d in range(3, 9):
            report = verify_nodes(d)
            assert report.ok, f"d={d}: {report.failures}"
            assert report.points_checked == expected_node_count(d)


def test_criterion_4_factorizations():
    with criterion(4, "factorizations d=3..10 both signs"):
        for d in range(3, 11):
            data = build(d)
            for sign in ("plus", "minus"):
                constant, factors = (
                    data.plus_factorization if sign == "plus" else data.minus_factorization
                )
                prod = MPoly.constant(Fraction(constant), 2)
                for p in factors:
                    prod = prod * p
                target = curve_affine(d, sign).map_coefficients(data.field.from_rational)
                assert prod == target, f"d={d} {sign}"
            if d % 2 == 1:
                mirrored = MPoly(
                    2, {(a, b): c * (-1) ** b for (a, b), c in data.plus_curve.terms.items()}
                )
                assert mirrored == data.minus_curve, f"d={d} mirror"


def test_criterion_5_evaluation_thresholds():
    with criterion(5, "evaluation thresholds and kernel bridge d=3..6"):
        for d in range(3, 7):
            assert evaluation_thresholds(d) == (d - 3, d - 2), f"d={d}"
            m = d // 2 if d % 2 == 0 else (d - 1) // 2
            expected = m - 1 if d % 2 == 0 else m
            kdim = evaluation_kernel_dim(d, d - 2)
            assert kdim == expected, f"d={d}"
            assert kdim == syzygy_dim(curve_polynomial(d), d - 2), f"d={d} bridge"


def test_criterion_6_resolution_verification():
    with criterion(6, "resolution cross-checks d=3..6"):
        for d in range(3, 7):
            f = curve_polynomial(d)
            for r in range(2 * d + 1):
                assert syzygy_dim(f, r) == syzygy_dim_from_hilbert(f, r), f"d={d} r={r}"
            report = verify_resolution(d)
            assert report.ok, f"d={d}"
            assert report.first_syzygy_degree == d - 2, f"d={d}"


def test_criterion_7_rationality_corpus():
    with criterion(7, "rationality certificate corpus"):
        for d in range(4, 8):
            rep = rationality_test(curve_polynomial(d))
            assert rep.verdict == "all_rational", f"T_{d}"
        rep = rationality_test(parse("x*y*z"))
        assert rep.verdict == "all_rational" and rep.tau == 3 and rep.dim_at_2d_minus_3 == 3
        rep = rationality_test(parse("y^2*z - x^3 - x^2*z"))
        assert rep.verdict == "all_rational" and rep.tau == 1
        rep = rationality_test(parse("x + y + z") * parse("x^3 + y^3 + z^3"))
        assert rep.verdict == "has_irrational_component"
        assert rep.tau == 3 and rep.dim_at_2d_minus_3 == 4 and rep.genus_sum == 1
        rep = rationality_test(parse("z*y^2 - x^3"))
        assert rep.verdict == "not_nodal"
        rep = rationality_test(parse("x^2*y"))
        assert rep.verdict == "not_reduced"


def test_criterion_8_series_sanity():
    with criterion(8, "series degree and double root at t=1"):
        for d in range(3, 9):
            numer = milnor_profile(curve_polynomial(d)).hilbert.numerator
            assert len(numer) - 1 == 2 * d - 1, f"d={d}"
            assert sum(numer) == 0, f"d={d}: P(1) != 0"
            assert sum(i * c for i, c in enumerate(numer)) == 0, f"d={d}: P'(1) != 0"


def test_criterion_9_determinism(capsys):
    with criterion(9, "byte-identical verify output"):
        def canonical(argv):
            rc = main(argv)
            out = capsys.readouterr().out
            assert rc == 0
            rep = json.loads(out)
            rep.pop("volatile")
            return json.dumps(rep, sort_keys=True)

        runs = [canonical(["verify", "-d", "5", "--format", "json"]) for _ in range(3)]
        assert len(set(runs)) == 1
