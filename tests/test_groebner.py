"""Buchberger engine: reduced bases, normal forms, determinism."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebcurve.groebner import GroebnerBasis, buchberger, leading_ideal, normal_form
from chebcurve.hilbert import hilbert_numerator, series_dims
from chebcurve.polyring import (
    GREVLEX_WIDTH,
    MPoly,
    dehomogenize,
    grevlex_key,
    mono_div,
    mono_lcm,
    monomial_basis,
    parse,
    partials,
)
from test_hilbert import _cube_of_one_minus_power


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    """S-polynomial over Q, to confirm the Buchberger criterion."""
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    mf = MPoly(f.nvars, {mono_div(lcm, lf): 1 / Fraction(f.terms[lf])})
    mg = MPoly(g.nvars, {mono_div(lcm, lg): 1 / Fraction(g.terms[lg])})
    return mf * f - mg * g


def gb_of(*texts):
    return buchberger([parse(t) for t in texts])


class TestBuchberger:
    def test_two_variables_ideal(self):
        gb = gb_of("x", "y")
        assert set(gb.elements) == {parse("x"), parse("y")}

    def test_monomial_jacobian(self):
        gb = gb_of("y*z", "x*z", "x*y")
        assert set(gb.elements) == {parse("x*y"), parse("x*z"), parse("y*z")}

    def test_all_s_polynomials_reduce_to_zero(self):
        gb = gb_of("y*z - x^2", "x*z - y^2", "x*y - z^2")
        for i, f in enumerate(gb.elements):
            for g in gb.elements[i + 1 :]:
                assert normal_form(s_polynomial(f, g), gb).is_zero()

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_buchberger_criterion_on_jacobians(self, d):
        from chebcurve.chebyshev import curve_polynomial

        gb = buchberger(partials(curve_polynomial(d)))
        for i, f in enumerate(gb.elements):
            for g in gb.elements[i + 1 :]:
                assert normal_form(s_polynomial(f, g), gb).is_zero()

    def test_chebyshev_quartic_dimension(self):
        f = parse("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4")
        gb = buchberger(partials(f))
        dims = series_dims(hilbert_numerator(leading_ideal(gb)), 6)
        assert dims[5] == 4

    def test_basis_is_monic_and_interreduced(self):
        gb = gb_of("2*x^2 + y^2", "4*x*y")
        for p in gb.elements:
            lm = p.leading_monomial()
            assert p.terms[lm] == 1
        lms = [p.leading_monomial() for p in gb.elements]
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not all(e <= f for e, f in zip(a, b))

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            buchberger([MPoly.zero(3)])

    def test_drops_zero_generators(self):
        x, y = parse("x"), parse("y")
        assert buchberger([x, MPoly.zero(3), y]).elements == buchberger([x, y]).elements

    @pytest.mark.parametrize(
        "gens",
        [[], [parse("x", nvars=2), parse("y")], [parse("x"), MPoly.zero(2)]],
        ids=["empty", "mixed", "mixed-zero"],
    )
    def test_rejects_bad_generators(self, gens):
        with pytest.raises(ValueError):
            buchberger(gens)

    def test_generator_past_the_packed_width_raises(self):
        with pytest.raises(ValueError, match="packed width"):
            buchberger([MPoly(3, {(1 << GREVLEX_WIDTH, 0, 0): 1})])

    def test_s_pair_past_the_packed_width_raises(self):
        # each generator fits; the lcm x^40000*y^40000 of their leading terms does not
        gens = [parse("x^40000*y - z"), parse("x*y^40000 - z")]
        with pytest.raises(ValueError, match="packed width"):
            buchberger(gens)


class TestDeterminism:
    """Two strategies, this module's Buchberger and sympy's groebner, give
    the one reduced basis of each ideal."""

    CASES = [
        ("x^2 - y*z", "x*y - z^2"),
        ("y*z", "x*z", "x*y"),
        ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x"),
    ]

    @pytest.mark.parametrize("texts", CASES)
    def test_strategies_agree(self, texts):
        gens = [parse(t) for t in texts]
        assert buchberger(gens).elements == _sympy_reduced_basis(gens, 3)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_strategies_agree_on_jacobians(self, d):
        from chebcurve.chebyshev import curve_polynomial

        gens = partials(curve_polynomial(d))
        assert buchberger(gens).elements == _sympy_reduced_basis(gens, 3)


class TestNormalForm:
    def test_member_of_variable_ideal(self):
        gb = gb_of("x", "y")
        assert normal_form(parse("x"), gb).is_zero()

    def test_irreducible_cube(self):
        gb = gb_of("x*y", "x*z", "y*z")
        assert normal_form(parse("x^3"), gb) == parse("x^3")

    def test_reducible_product(self):
        gb = gb_of("x*y", "x*z", "y*z")
        assert normal_form(parse("x^2*y"), gb).is_zero()

    def test_difference_lies_in_ideal(self):
        gb = gb_of("x^2 - y*z", "x*y - z^2")
        p = parse("x^3 + y^3 - 2*x*z^2 + z^3")
        r = normal_form(p, gb)
        assert normal_form(p - r, gb).is_zero()

    @pytest.mark.parametrize(
        "p, gens",
        [
            (parse("x^2 + y", nvars=2), [parse("x^2 - z^2"), parse("y")]),
            (parse("x + y + z"), [parse("x", nvars=2)]),
        ],
        ids=["two-in-three", "three-in-two"],
    )
    def test_rejects_a_polynomial_of_another_ring(self, p, gens):
        with pytest.raises(ValueError, match="variable count"):
            normal_form(p, buchberger(gens))

    def test_primitive_basis_built_once(self, monkeypatch):
        from chebcurve import groebner

        gb = gb_of("x^2 - y*z", "x*y - z^2")
        polys = [parse("x^3 + y^3 - 2*x*z^2 + z^3"), parse("x^2*y"), parse("1/2*x^4 - y*z^3")]
        expected = [normal_form(p, GroebnerBasis(gb.elements)) for p in polys]
        calls = []
        make = groebner._make_gpoly

        def counted(terms):
            calls.append(1)
            return make(terms)

        monkeypatch.setattr(groebner, "_make_gpoly", counted)
        for _ in range(3):
            assert [normal_form(p, gb) for p in polys] == expected
        assert len(calls) == len(gb.elements)


_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def ideal_members(draw):
    gens = (parse("x^2 - y*z"), parse("x*y - z^2"))
    monos = monomial_basis(2, 3)
    member = MPoly.zero(3)
    for g in gens:
        terms = {
            m: draw(_coeff) for m in draw(st.lists(st.sampled_from(monos), max_size=3))
        }
        member = member + MPoly(3, terms) * g
    return gens, member


class TestMembership:
    @settings(max_examples=40, deadline=None)
    @given(ideal_members())
    def test_explicit_combinations_reduce_to_zero(self, case):
        gens, member = case
        gb = buchberger(gens)
        assert normal_form(member, gb).is_zero()


@st.composite
def small_ideals(draw):
    monos = monomial_basis(2, 3) + monomial_basis(1, 3)
    gens = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        terms = {
            m: draw(_coeff)
            for m in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
        }
        p = MPoly(3, terms)
        if not p.is_zero():
            gens.append(p)
    return tuple(gens)


class TestCriterionProperty:
    @settings(max_examples=50, deadline=None)
    @given(small_ideals())
    def test_full_groebner_certificate(self, gens):
        # complete post-hoc certificate: every S-polynomial reduces to zero
        # (so the output is a Groebner basis of the ideal it spans) and every
        # generator reduces to zero (so it spans the right ideal)
        if not gens:
            return
        gb = buchberger(gens)
        for i, f in enumerate(gb.elements):
            for g in gb.elements[i + 1 :]:
                assert normal_form(s_polynomial(f, g), gb).is_zero()
        for g in gens:
            assert normal_form(g, gb).is_zero()


class TestLeadingIdeal:
    def test_variables(self):
        gb = gb_of("x", "y")
        assert set(leading_ideal(gb)) == {(1, 0, 0), (0, 1, 0)}

    def test_monomial_generators(self):
        gb = gb_of("x*y", "x*z", "y*z")
        assert set(leading_ideal(gb)) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_minimality(self):
        gb = gb_of("x^2 - y*z", "x*y - z^2", "y^2 - x*z")
        lead = leading_ideal(gb)
        for i, a in enumerate(lead):
            for j, b in enumerate(lead):
                if i != j:
                    assert not all(e <= f for e, f in zip(a, b))


_scalar = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda c: c.denominator > 1)


@st.composite
def small_polys(draw):
    monos = [m for k in range(4) for m in monomial_basis(k, 3)]
    terms = {m: draw(_coeff) for m in draw(st.lists(st.sampled_from(monos), max_size=5))}
    return MPoly(3, terms)


def _to_sympy(p, gens):
    import sympy

    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(gens, m)))
         for m, c in p.terms.items()),
        sympy.Integer(0),
    )


class TestRationalNormalForm:
    @settings(max_examples=40, deadline=None)
    @given(small_ideals(), small_polys(), small_polys(), _scalar, _scalar)
    def test_linear_over_q(self, gens, p, q, a, b):
        if not gens:
            return
        gb = buchberger(gens)
        ca, cb = MPoly.constant(a, 3), MPoly.constant(b, 3)
        lhs = normal_form(ca * p + cb * q, gb)
        assert lhs == ca * normal_form(p, gb) + cb * normal_form(q, gb)

    @settings(max_examples=40, deadline=None)
    @given(small_ideals(), small_polys())
    def test_idempotent(self, gens, p):
        if not gens:
            return
        gb = buchberger(gens)
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r
        assert normal_form(p - r, gb).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(small_ideals(), small_polys())
    def test_matches_sympy_remainder(self, gens, p):
        sympy = pytest.importorskip("sympy")
        if not gens:
            return
        gb = buchberger(gens)
        xyz = sympy.symbols("x y z")
        basis = [_to_sympy(g, xyz) for g in gb.elements]
        _, r = sympy.reduced(_to_sympy(p, xyz), basis, *xyz, order="grevlex")
        expected = MPoly(
            3,
            {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(r, *xyz).terms()},
        )
        assert normal_form(p, gb) == expected

    def test_long_reduction_past_content_strip(self):
        # x -> 3y/2 seventy times, past many periodic content strips
        gb = gb_of("2*x - 3*y")
        for c in (Fraction(1), Fraction(1, 5), Fraction(-7, 3)):
            p = MPoly(3, {(70, 0, 0): c, (0, 0, 70): Fraction(1, 2)})
            expected = MPoly(3, {(0, 70, 0): c * Fraction(3, 2) ** 70, (0, 0, 70): Fraction(1, 2)})
            assert normal_form(p, gb) == expected


def _from_sympy(poly, nvars):
    return MPoly(nvars, {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()})


def _sympy_reduced_basis(gens, nvars):
    """The monic reduced grevlex basis by sympy, in buchberger's element order."""
    sympy = pytest.importorskip("sympy")
    xyz = sympy.symbols("x y z")[:nvars]
    polys = [_to_sympy(g, xyz) for g in gens if not g.is_zero()]
    basis = sympy.groebner(polys, *xyz, order="grevlex", domain="QQ")
    elements = [_from_sympy(p, nvars) for p in basis.polys]
    return tuple(sorted(elements, key=lambda p: grevlex_key(p.leading_monomial())))


_small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def ternary_forms(draw):
    d = draw(st.integers(min_value=3, max_value=5))
    monos = draw(st.lists(st.sampled_from(monomial_basis(d, 3)), min_size=2, max_size=8, unique=True))
    f = MPoly(3, {m: draw(_small_int) for m in monos})
    assume(not f.is_zero())
    return f


def _random_form(draw, degree):
    return MPoly(3, {m: draw(_small_int) for m in monomial_basis(degree, 3)})


@st.composite
def chart_ideals(draw):
    """Dehomogenized partials of a product of lines and conics, as arrangement's charts."""
    g = MPoly.constant(1, 3)
    for degree in draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=3)):
        g = g * _random_form(draw, degree)
    assume(g.degree() >= 3)
    return [dehomogenize(p) for p in partials(g)]


class TestSympyReducedBasis:
    @settings(max_examples=12, deadline=None)
    @given(ternary_forms())
    def test_jacobians_of_ternary_forms(self, f):
        gens = partials(f)
        expected = _sympy_reduced_basis(gens, 3)
        assert buchberger(gens).elements == expected

    @settings(max_examples=12, deadline=None)
    @given(chart_ideals())
    def test_two_variable_chart_ideals(self, gens):
        assume(any(not p.is_zero() for p in gens))
        expected = _sympy_reduced_basis(gens, 2)
        assert buchberger(gens).elements == expected


def _dense_partials(d, seed):
    """The partials of the +-1 dense curve of degree d that the benchmark draws."""
    import random

    from test_syzygy import bench_workloads

    workloads = bench_workloads()
    return partials(parse(workloads.poly_text(workloads.dense_curve(random.Random(seed), d))))


def _fermat12_partials():
    lines = ("x + 2*y - z", "x - y + 3*z", "2*x + y + z")
    return partials(sum((parse(l) ** 12 for l in lines), MPoly.zero(3)))


def _special_inputs():
    from chebcurve.chebyshev import curve_polynomial

    cases = {}
    for d in range(3, 13):
        cases[f"T{d}"] = partials(curve_polynomial(d))
        cases[f"T{d}-fx-fy"] = partials(curve_polynomial(d))[:2]
    for name, text in [
        ("x2y", "x^2*y"),
        ("xyz", "x*y*z"),
        ("cusp", "y^2*z - x^3"),
        ("nodal-cubic", "y^2*z - x^3 - x^2*z"),
    ]:
        cases[name] = partials(parse(text))
    cases["z-T5"] = partials(parse("z") * curve_polynomial(5))
    return cases


_SPECIAL = _special_inputs()


class TestCompleteIntersectionSkip:
    """The pairs of a degree that the complete-intersection bound proves
    complete are dropped; the reduced basis is the same without the bound."""

    @pytest.mark.parametrize("name", sorted(_SPECIAL))
    def test_same_basis_without_the_bound(self, name, monkeypatch):
        from chebcurve import groebner

        gens = _SPECIAL[name]
        skipped = buchberger(gens).elements
        monkeypatch.setattr(groebner, "_complete_intersection_numerator", lambda gens: None)
        assert buchberger(gens).elements == skipped

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("d", [5, 6, 7, 8])
    def test_dense_curves(self, d, seed, monkeypatch):
        from chebcurve import groebner

        gens = _dense_partials(d, seed)
        zeros = []
        reduce = groebner._normal_form_int

        def counted(terms, basis, scaled=False):
            rem = reduce(terms, basis, scaled)
            zeros.append(not rem)
            return rem

        monkeypatch.setattr(groebner, "_normal_form_int", counted)
        skipped = buchberger(gens).elements
        # the bound leaves no S-pair that reduces to zero on these smooth curves
        assert zeros and not any(zeros)
        monkeypatch.setattr(groebner, "_complete_intersection_numerator", lambda gens: None)
        assert buchberger(gens).elements == skipped
        assert any(zeros)

    def test_bound_is_the_fermat_hilbert_function(self):
        from chebcurve.groebner import _complete_intersection_numerator

        gens = _fermat12_partials()
        bound = series_dims(_complete_intersection_numerator(gens), 36)
        assert bound == series_dims(hilbert_numerator(leading_ideal(buchberger(gens))), 36)

    @pytest.mark.parametrize("name", ["xyz", "x2y"] + [f"T{d}" for d in range(3, 13)])
    def test_bound_is_below_the_hilbert_function(self, name):
        from chebcurve.groebner import _complete_intersection_numerator

        gens = _SPECIAL[name]
        top = 3 * max(p.degree() for p in gens) + 3
        bound = series_dims(_complete_intersection_numerator([p for p in gens if not p.is_zero()]), top)
        dims = series_dims(hilbert_numerator(leading_ideal(buchberger(gens))), top)
        assert all(b <= h for b, h in zip(bound, dims))

    @pytest.mark.parametrize(
        "gens",
        [
            [parse(t) for t in ("x^2", "y^2", "z^2", "x*y")],
            [parse("x^2 - y"), parse("y^2"), parse("z")],
            [parse("x^2", nvars=2), parse("y^2", nvars=2), parse("x*y", nvars=2)],
        ],
        ids=["four-in-three", "non-homogeneous", "three-in-two"],
    )
    def test_no_bound_outside_its_range(self, gens):
        from chebcurve.groebner import _complete_intersection_numerator

        assert _complete_intersection_numerator(gens) is None

    def test_two_variables(self, monkeypatch):
        from chebcurve import groebner

        gens = [parse("x^3 + x*y^2 - y^3", nvars=2), parse("x^2*y - 2*y^3", nvars=2)]
        assert groebner._complete_intersection_numerator(gens) == (1, 0, 0, -2, 0, 0, 1)
        skipped = buchberger(gens).elements
        assert skipped == _sympy_reduced_basis(gens, 2)
        monkeypatch.setattr(groebner, "_complete_intersection_numerator", lambda gens: None)
        assert buchberger(gens).elements == skipped


def _exact_numerator(gens):
    return hilbert_numerator(leading_ideal(buchberger(gens)))


# L1^d + L2^d + L3^d for independent lines L_i is the Fermat curve in other
# coordinates: smooth, with partials of Fraction coefficients here
_FRACTION_LINES = ("1/2*x + y - z", "x - 1/3*y + 2*z", "3/4*x + y + z")


class TestCompleteIntersectionCertificate:
    """One basis mod PRIME proves the complete-intersection numerator
    exactly when the exact basis gives it, and proves nothing otherwise."""

    def test_prime(self):
        from chebcurve.linalg import PRIME, _is_prime, residue_map

        assert PRIME < 2**61 and _is_prime(PRIME)
        assert residue_map(None)[0] == PRIME

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("d", range(2, 11))
    def test_dense_curves(self, d, seed):
        from chebcurve.groebner import complete_intersection_certificate

        gens = _dense_partials(d, seed)
        certified = complete_intersection_certificate(gens)
        if (d, seed) == (3, 1):
            # this one is a nodal cubic: the route must not close
            assert certified is None
            assert _exact_numerator(gens) == (1, 0, -3, 0, 4, -2)
        else:
            assert certified == _exact_numerator(gens) == _cube_of_one_minus_power(d - 1)

    def test_fermat12_in_other_coordinates(self):
        from chebcurve.groebner import complete_intersection_certificate

        gens = _fermat12_partials()
        assert complete_intersection_certificate(gens) == _exact_numerator(gens)
        assert complete_intersection_certificate(gens) == _cube_of_one_minus_power(11)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_fraction_coefficients(self, d):
        from chebcurve.groebner import complete_intersection_certificate

        gens = partials(sum((parse(l) ** d for l in _FRACTION_LINES), MPoly.zero(3)))
        assert any(c.denominator > 1 for p in gens for c in p.terms.values())
        assert complete_intersection_certificate(gens) == _exact_numerator(gens)
        assert complete_intersection_certificate(gens) == _cube_of_one_minus_power(d - 1)

    def test_two_variables(self):
        from chebcurve.groebner import complete_intersection_certificate

        gens = [parse("x^3 + x*y^2 - y^3", nvars=2), parse("x^2*y - 2*y^3", nvars=2)]
        assert complete_intersection_certificate(gens) == (1, 0, 0, -2, 0, 0, 1)
        assert complete_intersection_certificate(gens) == _exact_numerator(gens)

    @pytest.mark.parametrize("name", sorted(_SPECIAL))
    def test_singular_inputs_prove_nothing(self, name):
        from chebcurve.groebner import complete_intersection_certificate

        # every special input but the two partials of T_d misses the bound
        gens = _SPECIAL[name]
        certified = complete_intersection_certificate(gens)
        if name.endswith("-fx-fy"):
            assert certified == _exact_numerator(gens)
        else:
            assert certified is None

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_prime_that_kills_a_partial(self, d):
        from chebcurve.groebner import complete_intersection_certificate
        from chebcurve.linalg import PRIME

        # smooth over Q, but f_z = d*PRIME*z^(d-1) vanishes mod PRIME
        gens = partials(parse(f"x^{d} + y^{d} + {PRIME}*z^{d}"))
        assert complete_intersection_certificate(gens) is None
        assert _exact_numerator(gens) == _cube_of_one_minus_power(d - 1)

    def test_prime_that_makes_the_curve_singular(self):
        from chebcurve.groebner import complete_intersection_certificate
        from chebcurve.linalg import PRIME

        # the Hesse cubic x^3 + y^3 + z^3 - 3c*x*y*z is singular exactly when
        # c^3 = 1: c = 1 + PRIME is smooth over Q and singular mod PRIME
        gens = partials(parse(f"x^3 + y^3 + z^3 - {3 * (1 + PRIME)}*x*y*z"))
        assert complete_intersection_certificate(gens) is None
        assert _exact_numerator(gens) == _cube_of_one_minus_power(2)

    @pytest.mark.parametrize("d", [6, 9, 12])
    def test_stops_at_the_first_degree_above_the_bound(self, d, monkeypatch):
        from chebcurve import groebner, linalg
        from chebcurve.chebyshev import curve_polynomial

        calls = []
        reduce = groebner._normal_form_mod

        def counted(terms, basis, p):
            calls.append(1)
            return reduce(terms, basis, p)

        monkeypatch.setattr(groebner, "_normal_form_mod", counted)
        gens = partials(curve_polynomial(d))
        assert groebner.complete_intersection_certificate(gens) is None
        stopped = len(calls)
        # run on without stopping: the same loop reduces more S-pairs
        p, image = linalg.residue_map(None)
        forms = [linalg.residues(groebner._packed(g.terms), image) for g in groebner._nonzero_forms(gens)]
        numerator = groebner._complete_intersection_numerator(gens)
        calls.clear()
        basis = groebner._pair_loop(
            forms, 3, numerator, lambda t, b: counted(t, b, p), lambda t: groebner._make_monic(t, p)
        )
        assert stopped < len(calls)
        assert hilbert_numerator([g.exps for g in basis]) == _exact_numerator(gens)

    @pytest.mark.parametrize(
        "gens",
        [
            [parse(t) for t in ("x^2", "y^2", "z^2", "x*y")],
            [parse("x^2 - y"), parse("y^2"), parse("z")],
        ],
        ids=["four-in-three", "non-homogeneous"],
    )
    def test_no_certificate_outside_the_bound(self, gens):
        from chebcurve.groebner import complete_intersection_certificate

        assert complete_intersection_certificate(gens) is None

    @pytest.mark.parametrize("gens", [[MPoly.zero(3)], [parse("x"), parse("y", nvars=2)]])
    def test_rejects_what_buchberger_rejects(self, gens):
        from chebcurve.groebner import complete_intersection_certificate

        with pytest.raises(ValueError):
            complete_intersection_certificate(gens)


@st.composite
def homogeneous_triples(draw):
    """Three forms of degree 1 to 3, sometimes with one common linear
    factor, so that they are not a regular sequence."""
    common = _random_form(draw, 1) if draw(st.booleans()) else MPoly.constant(1, 3)
    assume(not common.is_zero())
    forms = []
    for _ in range(3):
        degree = draw(st.integers(min_value=1, max_value=3 - (common.degree() > 0)))
        monos = draw(st.lists(st.sampled_from(monomial_basis(degree, 3)), min_size=1, max_size=4, unique=True))
        forms.append(MPoly(3, {m: draw(_small_int) for m in monos}) * common)
    assume(any(not p.is_zero() for p in forms))
    return forms


class TestHomogeneousTriples:
    @settings(max_examples=25, deadline=None)
    @given(homogeneous_triples())
    def test_agrees_with_sympy(self, gens):
        assert buchberger(gens).elements == _sympy_reduced_basis(gens, 3)
