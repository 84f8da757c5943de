"""Hilbert numerators, Milnor profiles and the closed-form oracles."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebcurve import hilbert
from chebcurve.arrangement import rationality_test
from chebcurve.chebyshev import curve_polynomial
from chebcurve.hilbert import (
    chebyshev_milnor_numerator,
    expected_node_count,
    hilbert_numerator,
    milnor_profile,
    series_dims,
)
from chebcurve.linalg import PRIME
from chebcurve.polyring import MPoly, monomial_basis, parse, partials
from chebcurve.syzygy import syzygy_dim_from_hilbert


def brute_dims(gens, kmax):
    """Independent oracle: count degree-k monomials outside the monomial ideal."""
    dims = []
    for k in range(kmax + 1):
        count = 0
        for a in range(k + 1):
            for b in range(k - a + 1):
                m = (a, b, k - a - b)
                if not any(all(e <= f for e, f in zip(g, m)) for g in gens):
                    count += 1
        dims.append(count)
    return dims


def numerator_from_dims(dims):
    """Invert the (1-t)^3 expansion: c_k = dims[k] - 3 dims[k-1] + 3 dims[k-2] - dims[k-3]."""
    get = lambda i: dims[i] if i >= 0 else 0
    out = [get(k) - 3 * get(k - 1) + 3 * get(k - 2) - get(k - 3) for k in range(len(dims))]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestHilbertNumerator:
    def test_whole_ring(self):
        assert hilbert_numerator(()) == (1,)

    def test_irrelevant_ideal(self):
        assert hilbert_numerator([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == (1, -3, 3, -1)

    def test_three_axes(self):
        # dims 1, 3, 3, 3, ... solve to 1 - 3t^2 + 2t^3
        assert hilbert_numerator([(1, 1, 0), (1, 0, 1), (0, 1, 1)]) == (1, 0, -3, 2)

    @pytest.mark.parametrize(
        "gens",
        [
            [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
            [(3, 1, 0), (0, 2, 2), (1, 0, 4)],
            [(1, 1, 1)],
            [(5, 0, 0), (4, 1, 0), (3, 2, 0), (0, 0, 3)],
        ],
    )
    def test_against_brute_force(self, gens):
        numer = hilbert_numerator(gens)
        kmax = len(numer) + 4
        assert series_dims(numer, kmax) == brute_dims(gens, kmax)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).filter(
                lambda m: sum(m) > 0
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_monomial_ideals(self, gens):
        numer = hilbert_numerator(gens)
        kmax = max(len(numer) + 3, 8)
        dims = brute_dims(gens, kmax)
        assert series_dims(numer, kmax) == dims
        assert numerator_from_dims(dims) == numer
        assert all(v >= 0 for v in dims)


class TestClosedForm:
    def test_even_quartic(self):
        assert chebyshev_milnor_numerator(4) == (1, 0, 0, -3, 0, 1, 3, -2)

    def test_odd_quintic(self):
        assert chebyshev_milnor_numerator(5) == (1, 0, 0, 0, -3, 0, 0, 2, 2, -2)

    def test_cubic(self):
        assert chebyshev_milnor_numerator(3) == (1, 0, -3, 1, 2, -1)

    def test_smooth_conic_collapses(self):
        # at d = 2 the closed form degenerates to the numerator of a point
        assert chebyshev_milnor_numerator(2) == (1, -3, 3, -1)


class TestNodeCount:
    @pytest.mark.parametrize(
        "d,count", [(2, 0), (3, 2), (4, 4), (5, 8), (6, 12), (7, 18), (8, 24)]
    )
    def test_values(self, d, count):
        assert expected_node_count(d) == count


def _cube_of_one_minus_power(e):
    """(1 - t^e)^3 as ascending coefficients."""
    out = [0] * (3 * e + 1)
    for k, c in enumerate((1, -3, 3, -1)):
        out[k * e] = c
    return tuple(out)


class TestSmoothFermatOracle:
    # L1^d + L2^d + L3^d with det(L1, L2, L3) != 0 is the Fermat curve in
    # other coordinates, so it is smooth and its partials are a complete
    # intersection of three forms of degree d - 1: the numerator is
    # (1 - t^(d-1))^3 whatever the coefficients swell to on the way
    @pytest.mark.parametrize(
        "lines",
        [("x + 2*y - z", "x - y + 3*z", "2*x + y + z"), ("3*x - y + 2*z", "x + 4*y - z", "-2*x + y + 5*z")],
        ids=["det3", "det84"],
    )
    @pytest.mark.parametrize("d", range(3, 10))
    def test_numerator_and_tau(self, d, lines):
        f = sum((parse(line) ** d for line in lines), parse("0"))
        prof = milnor_profile(f)
        assert prof.hilbert.numerator == _cube_of_one_minus_power(d - 1)
        assert prof.tau == 0


class TestMilnorProfile:
    def test_quartic_numerator(self):
        prof = milnor_profile(curve_polynomial(4))
        assert prof.hilbert.numerator == (1, 0, 0, -3, 0, 1, 3, -2)

    def test_quintic_numerator(self):
        prof = milnor_profile(curve_polynomial(5))
        assert prof.hilbert.numerator == chebyshev_milnor_numerator(5)

    def test_quartic_dims_and_tau(self):
        prof = milnor_profile(curve_polynomial(4))
        assert prof.dims[:8] == (1, 3, 6, 7, 6, 4, 4, 4)
        assert prof.tau == 4

    def test_cache_is_bounded(self):
        milnor_profile.cache_clear()
        for k in range(1, hilbert.MILNOR_CACHE_SIZE + 6):
            milnor_profile(parse(f"x^2 + {k}*y^2 + z^2"))
        assert milnor_profile.cache_info().currsize <= hilbert.MILNOR_CACHE_SIZE

    def test_one_profile_per_call(self):
        # each caller reads the profile of its polynomial several times
        f = curve_polynomial(5)
        milnor_profile.cache_clear()
        rationality_test(f)
        info = milnor_profile.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        milnor_profile.cache_clear()
        for r in range(11):
            syzygy_dim_from_hilbert(f, r)
        info = milnor_profile.cache_info()
        assert (info.misses, info.hits) == (1, 10)

    @pytest.mark.parametrize("d", range(3, 31))
    def test_oracle_equivalence(self, d):
        prof = milnor_profile(curve_polynomial(d))
        assert prof.hilbert.numerator == chebyshev_milnor_numerator(d)
        assert prof.tau == expected_node_count(d)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_numerator_degree_and_double_root_at_one(self, d):
        numer = milnor_profile(curve_polynomial(d)).hilbert.numerator
        assert len(numer) - 1 == 2 * d - 1
        assert sum(numer) == 0
        assert sum(i * c for i, c in enumerate(numer)) == 0

    @pytest.mark.parametrize("d", range(3, 9))
    def test_stabilization_window(self, d):
        prof = milnor_profile(curve_polynomial(d))
        count = expected_node_count(d)
        assert all(v == count for v in prof.dims[2 * d - 3 :])
        assert prof.hilbert.stabilized_value == count
        assert prof.hilbert.stabilized_from is not None
        assert prof.hilbert.stabilized_from <= 2 * d - 3

    @pytest.mark.parametrize("d", range(3, 9))
    def test_monotone_tail(self, d):
        prof = milnor_profile(curve_polynomial(d))
        dims = prof.dims
        assert all(dims[k - 1] >= dims[k] for k in range(2 * d - 3, len(dims)))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_tau_equals_stabilized_value(self, d):
        prof = milnor_profile(curve_polynomial(d))
        assert prof.tau == prof.hilbert.stabilized_value

    @pytest.mark.parametrize("d", range(3, 8))
    def test_q_polynomial(self, d):
        prof = milnor_profile(curve_polynomial(d))
        assert prof.q_polynomial is not None
        assert len(prof.q_polynomial) - 1 == 2 * d - 3

    def test_three_axes_profile(self):
        prof = milnor_profile(parse("x*y*z"))
        assert prof.dims[:5] == (1, 3, 3, 3, 3)
        assert prof.tau == 3

    def test_non_reduced_has_no_tau(self):
        # the singular locus contains the line x = 0: dims grow without
        # bound, so the Tjurina number is infinite and reported as absent
        prof = milnor_profile(parse("x^2*y"))
        assert prof.q_polynomial is None
        assert prof.tau is None
        assert prof.dims[-1] > prof.dims[-2]

    def test_rejects_nonhomogeneous(self):
        with pytest.raises(ValueError):
            milnor_profile(parse("x^2 + y"))

    def test_negative_kmax_refused_before_any_work(self, monkeypatch):
        def no_buchberger(ideal):
            raise AssertionError("buchberger ran before the input check")

        monkeypatch.setattr(hilbert, "buchberger", no_buchberger)
        monkeypatch.setattr(hilbert, "complete_intersection_certificate", no_buchberger)
        with pytest.raises(ValueError, match="kmax"):
            milnor_profile(curve_polynomial(4), kmax=-1)

    def test_kmax_override(self):
        prof = milnor_profile(curve_polynomial(4), kmax=20)
        assert len(prof.dims) == 21
        assert prof.dims[20] == 4


class TestCertifiedRoute:
    """Smooth curves take the complete-intersection certificate mod PRIME;
    every other input takes the exact basis, with the same numerators."""

    @pytest.fixture
    def no_buchberger(self, monkeypatch):
        def refuse(gens):
            raise AssertionError("the exact basis was computed")

        monkeypatch.setattr(hilbert, "buchberger", refuse)
        milnor_profile.cache_clear()
        yield
        milnor_profile.cache_clear()

    @pytest.mark.parametrize(
        "lines",
        [("x + 2*y - z", "x - y + 3*z", "2*x + y + z"), ("1/2*x + y - z", "x - 1/3*y + 2*z", "3/4*x + y + z")],
        ids=["det3", "fractions"],
    )
    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_smooth_curves_skip_the_exact_basis(self, d, lines, no_buchberger):
        prof = milnor_profile(sum((parse(line) ** d for line in lines), parse("0")))
        assert prof.proof == "complete_intersection"
        assert prof.hilbert.numerator == _cube_of_one_minus_power(d - 1)
        assert prof.tau == 0

    def test_a_zero_partial(self, no_buchberger):
        # f_z = 0: the two other partials are a complete intersection, and
        # the curve is d lines through one point
        prof = milnor_profile(parse("x^4 + y^4"))
        assert prof.proof == "complete_intersection"
        assert prof.hilbert.numerator == (1, 0, 0, -2, 0, 0, 1)
        assert prof.tau == 9

    @pytest.mark.parametrize(
        "text",
        [f"x^{d} + y^{d} + {PRIME}*z^{d}" for d in (3, 4, 5, 6)] + [f"x^3 + y^3 + z^3 - {3 * (1 + PRIME)}*x*y*z"],
        ids=["kill-fz-3", "kill-fz-4", "kill-fz-5", "kill-fz-6", "hesse"],
    )
    def test_unlucky_prime_falls_back(self, text):
        # smooth over Q, singular mod PRIME
        f = parse(text)
        milnor_profile.cache_clear()
        prof = milnor_profile(f)
        assert prof.proof == "buchberger"
        assert prof.hilbert.numerator == _cube_of_one_minus_power(f.degree() - 1)
        assert prof.tau == 0

    @pytest.mark.parametrize(
        "text,numerator",
        [
            ("x^2*y", (1, 0, -2, 1)),
            ("x*y*z", (1, 0, -3, 2)),
            ("y^2*z - x^3 - x^2*z", (1, 0, -3, 0, 4, -2)),
        ],
    )
    def test_singular_curves_take_the_exact_basis(self, text, numerator):
        milnor_profile.cache_clear()
        prof = milnor_profile(parse(text))
        assert prof.proof == "buchberger"
        assert prof.hilbert.numerator == numerator

    @pytest.mark.parametrize("d", range(3, 9))
    def test_chebyshev_curves_take_the_exact_basis(self, d):
        milnor_profile.cache_clear()
        prof = milnor_profile(curve_polynomial(d))
        assert prof.proof == "buchberger"
        assert prof.hilbert.numerator == chebyshev_milnor_numerator(d)


def _sympy_dims(f, kmax):
    """Graded dimensions of S/J_f from the leading monomials of sympy's
    grevlex basis, counted monomial by monomial."""
    sympy = pytest.importorskip("sympy")
    xyz = sympy.symbols("x y z")
    polys = [
        sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(xyz, m)))
             for m, c in p.terms.items()),
            sympy.Integer(0),
        )
        for p in partials(f)
        if not p.is_zero()
    ]
    basis = sympy.groebner(polys, *xyz, order="grevlex", domain="QQ")
    leads = [sympy.Poly(g, *xyz).monoms(order="grevlex")[0] for g in basis.exprs]
    return brute_dims(leads, kmax)


@st.composite
def ternary_forms(draw):
    """Forms of degree 3 to 5 with coefficients in -3..3: sparse ones are
    mostly singular, dense ones mostly smooth."""
    d = draw(st.integers(min_value=3, max_value=5))
    monos = monomial_basis(d, 3)
    if draw(st.booleans()):
        monos = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=6, unique=True))
    f = MPoly(3, {m: draw(st.integers(min_value=-3, max_value=3)) for m in monos})
    assume(not f.is_zero())
    return f


class TestSympyOracle:
    @settings(max_examples=25, deadline=None)
    @given(ternary_forms())
    def test_dims_match_sympy(self, f):
        prof = milnor_profile(f)
        assert prof.dims == tuple(_sympy_dims(f, len(prof.dims) - 1))
