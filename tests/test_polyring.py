"""Sparse polynomials: parsing, printing, grading, the grevlex order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcurve.numberfield import real_cyclotomic_field
from chebcurve.polyring import (
    InexactDivisionError,
    MPoly,
    ParseError,
    dehomogenize,
    GREVLEX_WIDTH,
    divide,
    exact_div,
    grevlex_key,
    grevlex_pack,
    grevlex_unpack,
    homogenize,
    mono_divides,
    mono_mul,
    monomial_basis,
    parse,
    partials,
    to_string,
)


class TestParse:
    def test_binomial_square(self):
        p = parse("x^2 - 2*x*y + y^2")
        q = parse("x - y") * parse("x - y")
        assert p == q

    def test_chebyshev_quartic(self):
        p = parse("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4")
        assert p.is_homogeneous() and p.degree() == 4
        assert p.coefficient((0, 0, 4)) == 2

    def test_rational_coefficient(self):
        p = parse("1/2*x + y")
        assert p.coefficient((1, 0, 0)) == Fraction(1, 2)

    def test_roundtrip_of_text(self):
        text = "8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4"
        assert parse(to_string(parse(text))) == parse(text)

    def test_error_position_is_one_based(self):
        with pytest.raises(ParseError) as err:
            parse("x +")
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse("x + z", nvars=2)

    def test_exponent_overflow(self):
        with pytest.raises(ParseError, match="overflow"):
            parse("x^65536")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator"):
            parse("1/0*x")

    def test_missing_star_rejected(self):
        with pytest.raises(ParseError):
            parse("2x")

    def test_whitespace_ignored(self):
        assert parse(" x ^ 2 +  1/2 * y ") == parse("x^2+1/2*y")


class TestHomogenize:
    def test_constant_lift(self):
        p = parse("x^2 + 1", nvars=2)
        assert homogenize(p, 2) == parse("x^2 + z^2")

    def test_chebyshev_cubic(self):
        p = parse("4*x^3 - 3*x + 4*y^3 - 3*y", nvars=2)
        assert homogenize(p, 3) == parse("4*x^3 + 4*y^3 - 3*x*z^2 - 3*y*z^2")

    def test_already_homogeneous(self):
        p = parse("x^2 + x*y", nvars=2)
        h = homogenize(p, 2)
        assert dehomogenize(h) == p
        assert all(m[2] == 0 for m in h.terms)

    def test_degree_check(self):
        with pytest.raises(ValueError):
            homogenize(parse("x^3", nvars=2), 2)


class TestPartials:
    def test_cube(self):
        f = parse("x^3")
        fx, fy, fz = partials(f)
        assert fx == parse("3*x^2") and fy.is_zero() and fz.is_zero()

    def test_product(self):
        fx, fy, fz = partials(parse("x*y*z"))
        assert (fx, fy, fz) == (parse("y*z"), parse("x*z"), parse("x*y"))

    def test_chebyshev_quartic(self):
        f = parse("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4")
        fx, fy, fz = partials(f)
        assert fx == parse("32*x^3 - 16*x*z^2")
        assert fy == parse("32*y^3 - 16*y*z^2")
        assert fz == parse("-16*x^2*z - 16*y^2*z + 8*z^3")


class TestEvaluate:
    def test_rational_point(self):
        assert parse("x + y").evaluate((Fraction(1, 2), Fraction(1, 2), 0)) == 1

    def test_chebyshev_critical_value(self):
        field = real_cyclotomic_field(3)
        lam = field.from_rational(Fraction(1, 2))
        p = parse("4*x^3 - 3*x", nvars=2)
        assert p.evaluate((lam, field.zero())) == -1

    def test_node_on_curve(self):
        field = real_cyclotomic_field(4)
        a = field.gen() * Fraction(1, 2)  # cos(pi/4)
        p = parse("8*x^4 + 8*y^4 - 8*x^2 - 8*y^2 + 2", nvars=2)
        assert p.evaluate((a, field.zero())) == 0

    def test_mixed_fields_rejected(self):
        a = real_cyclotomic_field(4).gen()
        b = real_cyclotomic_field(5).gen()
        p = MPoly(2, {(1, 0): a})
        with pytest.raises(ValueError, match="different fields"):
            p.evaluate((b, b))


class TestMonomialBasis:
    def test_linear(self):
        assert monomial_basis(1, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_counts(self):
        assert len(monomial_basis(2, 3)) == 6
        assert len(monomial_basis(2, 2)) == 6

    @pytest.mark.parametrize("r", range(0, 7))
    def test_binomial_count(self, r):
        expected = (r + 2) * (r + 1) // 2
        assert len(monomial_basis(r, 3)) == expected
        assert len(monomial_basis(r, 2)) == expected


_small_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def sparse_polys(draw, nvars=3, max_degree=6):
    n = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n):
        mono = tuple(
            draw(st.integers(min_value=0, max_value=max_degree)) for _ in range(nvars)
        )
        terms[mono] = draw(_small_coeff)
    return MPoly(nvars, terms)


@st.composite
def homogeneous_polys(draw, degree=None):
    d = degree if degree is not None else draw(st.integers(min_value=1, max_value=8))
    monos = monomial_basis(d, 3)
    terms = {}
    for m in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6)):
        terms[m] = draw(_small_coeff)
    return MPoly(3, terms), d


class TestProperties:
    @settings(max_examples=80)
    @given(sparse_polys())
    def test_print_parse_roundtrip(self, p):
        assert parse(to_string(p)) == p

    @settings(max_examples=80)
    @given(homogeneous_polys())
    def test_euler_relation(self, pd):
        f, d = pd
        if f.is_zero():
            return
        fx, fy, fz = partials(f)
        x, y, z = (MPoly.variable(i, 3) for i in range(3))
        assert x * fx + y * fy + z * fz == d * f

    @settings(max_examples=60)
    @given(
        st.tuples(*[st.integers(min_value=0, max_value=8)] * 3),
        st.tuples(*[st.integers(min_value=0, max_value=8)] * 3),
        st.tuples(*[st.integers(min_value=0, max_value=8)] * 3),
    )
    def test_orders_are_multiplicative_and_total(self, a, b, w):
        ka, kb = grevlex_key(a), grevlex_key(b)
        assert (ka == kb) == (a == b)
        if ka < kb:
            aw = tuple(i + j for i, j in zip(a, w))
            bw = tuple(i + j for i, j in zip(b, w))
            assert grevlex_key(aw) < grevlex_key(bw)

    def test_grevlex_key_matches_sympy(self):
        orderings = pytest.importorskip("sympy.polys.orderings")
        cube = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
        assert all(grevlex_key(m) == orderings.grevlex(m) for m in cube)

    @settings(max_examples=40)
    @given(sparse_polys(max_degree=3), sparse_polys(max_degree=3))
    def test_exact_division_inverts_multiplication(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        assert exact_div(p * q, q) == p


def _monomials_up_to(degree, nvars):
    if nvars == 2:
        return monomial_basis(degree, 2)  # two variables: degree at most r
    return [m for r in range(degree + 1) for m in monomial_basis(r, 3)]


class TestPackedGrevlex:
    @pytest.mark.parametrize("nvars", [2, 3])
    def test_int_order_is_the_tuple_order(self, nvars):
        monos = _monomials_up_to(12, nvars)
        by_key = sorted(monos, key=grevlex_key)
        assert sorted(monos, key=grevlex_pack) == by_key
        assert len({grevlex_pack(m) for m in monos}) == len(monos)

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_product_is_sum_and_unpack_round_trips(self, nvars):
        monos = _monomials_up_to(5, nvars)
        for a in monos:
            assert grevlex_unpack(grevlex_pack(a), nvars) == a
            for b in monos:
                assert grevlex_pack(a) + grevlex_pack(b) == grevlex_pack(mono_mul(a, b))

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_divisibility_on_unpacked_exponents(self, nvars):
        # groebner tests divisibility on three exponents, z's 0 for two variables
        monos = _monomials_up_to(5, nvars)
        for a in monos:
            ea = grevlex_unpack(grevlex_pack(a), 3)
            for b in monos:
                eb = grevlex_unpack(grevlex_pack(b), 3)
                assert mono_divides(ea, eb) == mono_divides(a, b)

    def test_widest_degree_packs(self):
        top = (1 << GREVLEX_WIDTH) - 1
        for m in [(top, 0, 0), (0, 0, top), (0, top), (top - 2, 1, 1)]:
            assert grevlex_unpack(grevlex_pack(m), len(m)) == m
        assert grevlex_pack((0, top, 0)) < grevlex_pack((top, 0, 0))
        assert grevlex_pack((top - 1, 0, 0)) < grevlex_pack((0, 0, top))

    @pytest.mark.parametrize(
        "m",
        [(1 << GREVLEX_WIDTH, 0, 0), (0, 0, 1 << GREVLEX_WIDTH), (1 << 15, 1 << 15, 0), (1 << 15, 1 << 15)],
    )
    def test_degree_past_the_width_raises(self, m):
        with pytest.raises(ValueError, match="packed width"):
            grevlex_pack(m)


_field = real_cyclotomic_field(5)


@st.composite
def evaluation_points(draw):
    """Three Fractions, three elements of Q(2*cos(pi/5)) or three linear forms."""
    kind = draw(st.sampled_from(("fraction", "field", "mpoly")))
    coords = [[draw(_small_coeff) for _ in range(3)] for _ in range(3)]
    if kind == "fraction":
        return tuple(c[0] for c in coords)
    if kind == "field":
        return tuple(_field.element(c[: _field.degree]) for c in coords)
    return tuple(MPoly(3, dict(zip(monomial_basis(1, 3), c))) for c in coords)


def termwise_value(p, point):
    """sum of c * x**a * y**b * z**c, each power computed on its own."""
    total = None
    for m, c in p.terms.items():
        v = c
        for xi, e in zip(point, m):
            if e:
                v = v * xi**e
        total = v if total is None else total + v
    return Fraction(0) if total is None else total


class TestEvaluatePowerTable:
    @settings(max_examples=80)
    @given(sparse_polys(max_degree=3), evaluation_points())
    def test_matches_termwise_evaluation(self, p, point):
        assert p.evaluate(point) == termwise_value(p, point)

    def test_zero_polynomial(self):
        assert MPoly.zero(3).evaluate((1, 2, 3)) == 0

    def test_point_length_checked(self):
        with pytest.raises(ValueError):
            parse("x + y").evaluate((1, 2))


class TestPower:
    def test_powers_square_only_while_bits_remain(self, monkeypatch):
        p = parse("x^2 - 3*x*y + 2*z")
        products = [MPoly.constant(Fraction(1), 3)]
        for _ in range(6):
            products.append(products[-1] * p)
        calls = []
        mul = MPoly.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(MPoly, "__mul__", counted)
        assert p**2 == products[2]
        assert len(calls) == 2
        for e in range(7):
            assert p**e == products[e]


class TestExactDivision:
    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            exact_div(parse("x^2 + y"), parse("x + 1"))

    def test_grevlex_order_of_string(self):
        # printing is deterministic and sorted by the active order
        p = parse("y^2 + x^2 + x*y")
        assert to_string(p) == "x^2 + x*y + y^2"


_MONOS = _monomials_up_to(3, 3)
_COPRIME_LEADS = [
    (a, b)
    for a in _MONOS
    for b in _MONOS
    if sum(a) and sum(b) and not any(i and j for i, j in zip(a, b))
]


@st.composite
def division_cases(draw):
    """(g1, g2, q1, q2, m) over Q, Q(2*cos(pi/5)) or Q(2*cos(pi/7)): g1, g2
    lead with coprime monomials of positive degree, so {g1, g2} is a
    Groebner basis, and m is a monomial that neither leading monomial
    divides."""
    d = draw(st.sampled_from([None, 5, 7]))
    if d is None:
        coeff = _small_coeff
    else:
        field = real_cyclotomic_field(d)
        ints = st.integers(min_value=-3, max_value=3)
        coeff = st.lists(ints, min_size=field.degree, max_size=field.degree).map(field.element)
    nonzero = coeff.filter(bool)

    def poly(lead=None):
        below = [m for m in _MONOS if lead is None or grevlex_key(m) < grevlex_key(lead)]
        terms = {m: draw(coeff) for m in draw(st.lists(st.sampled_from(below), max_size=4))}
        if lead is not None:
            terms[lead] = draw(nonzero)
        return MPoly(3, terms)

    lead1, lead2 = draw(st.sampled_from(_COPRIME_LEADS))
    standard = [m for m in _monomials_up_to(5, 3) if not (mono_divides(lead1, m) or mono_divides(lead2, m))]
    return poly(lead1), poly(lead2), poly(), poly(), draw(st.sampled_from(standard))


class TestDivide:
    @settings(max_examples=60, deadline=None)
    @given(division_cases())
    def test_reproduces_the_numerator(self, case):
        g1, g2, q1, q2, _ = case
        num = q1 * g1 + q2 * g2
        r1, r2 = divide(num, (g1, g2))
        assert r1 * g1 + r2 * g2 == num

    @settings(max_examples=60, deadline=None)
    @given(division_cases())
    def test_standard_monomial_raises(self, case):
        # the normal form of num + m modulo the Groebner basis is m, not 0
        g1, g2, q1, q2, m = case
        with pytest.raises(InexactDivisionError):
            divide(q1 * g1 + q2 * g2 + MPoly(3, {m: 1}), (g1, g2))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divide(parse("x^2"), (parse("x"), MPoly.zero(3)))

    def test_mixed_variable_counts(self):
        with pytest.raises(ValueError):
            divide(parse("x^2"), (parse("x"), parse("y", nvars=2)))

    def test_first_divisor_wins(self):
        # x*y is divisible by both leading monomials; the first takes it
        assert divide(parse("x*y"), (parse("y"), parse("x"))) == (parse("x"), MPoly.zero(3))
