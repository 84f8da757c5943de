"""Rational and cyclotomic field arithmetic."""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebcurve import upoly
from chebcurve.numberfield import (
    AlgNum,
    SelfCheckError,
    cos_multiple,
    critical_point,
    cyclotomic,
    real_cyclotomic_field,
)


def _totient(n):
    count = 0
    from math import gcd

    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == upoly.upoly([-1, 1])

    def test_eighth(self):
        # divide t^8 - 1 by Phi_1 * Phi_2 * Phi_4
        assert cyclotomic(8) == upoly.upoly([1, 0, 0, 0, 1])

    def test_sixth(self):
        assert cyclotomic(6) == upoly.upoly([1, -1, 1])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_product_identity_and_integrality(self, n):
        # prod over divisors of Phi_m = t^n - 1, and all coefficients integral
        prod = upoly.ONE
        for m in range(1, n + 1):
            if n % m == 0:
                prod = upoly.mul(prod, cyclotomic(m))
        assert prod == upoly.upoly([-1] + [0] * (n - 1) + [1])
        assert all(c.denominator == 1 for c in cyclotomic(n))
        if n >= 2:
            assert abs(cyclotomic(n)[0]) == 1


class TestMinimalPolynomial:
    def test_degree_three_is_rational(self):
        # 2*cos(pi/3) = 1
        assert real_cyclotomic_field(3).minpoly == upoly.upoly([-1, 1])

    def test_degree_four(self):
        assert real_cyclotomic_field(4).minpoly == upoly.upoly([-2, 0, 1])

    def test_degree_five_golden(self):
        assert real_cyclotomic_field(5).minpoly == upoly.upoly([-1, -1, 1])

    @pytest.mark.parametrize("d", range(2, 25))
    def test_degree_formula(self, d):
        assert upoly.degree(real_cyclotomic_field(d).minpoly) == _totient(2 * d) // 2

    @pytest.mark.parametrize("d", range(2, 13))
    def test_generator_satisfies_chebyshev_identity(self, d):
        # V_{2d}(g) - 2 == 0 where V_k(2 cos a) = 2 cos(k a): an oracle for the
        # minimal polynomial that bypasses its construction from Phi_2d.
        v_prev, v = upoly.upoly([2]), upoly.T
        for _ in range(2 * d - 1):
            v_prev, v = v, upoly.sub(upoly.mul(upoly.T, v), v_prev)
        identity = upoly.sub(v, upoly.upoly([2]))
        assert upoly.poly_mod(identity, real_cyclotomic_field(d).minpoly) == upoly.ZERO


class TestCriticalPoints:
    def test_rational_case(self):
        field = real_cyclotomic_field(3)
        assert critical_point(field, 1) == Fraction(1, 2)

    def test_middle_point_vanishes(self):
        field = real_cyclotomic_field(4)
        assert critical_point(field, 2) == 0

    def test_half_generator(self):
        field = real_cyclotomic_field(4)
        assert critical_point(field, 1) == field.gen() * Fraction(1, 2)

    def test_range_validation(self):
        field = real_cyclotomic_field(4)
        with pytest.raises(ValueError):
            critical_point(field, 0)
        with pytest.raises(ValueError):
            critical_point(field, 4)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_chebyshev_critical_values(self, d):
        # T_d(c_k) = (-1)^k and T_d'(c_k) = 0, symbolically in the field
        from chebcurve.chebyshev import chebyshev_T

        field = real_cyclotomic_field(d)
        T = chebyshev_T(d)
        T1 = upoly.derivative(T)
        for k in range(1, d):
            lam = critical_point(field, k)
            assert upoly.evaluate(T, lam) == (-1) ** k
            assert upoly.evaluate(T1, lam) == 0

    def test_cos_multiple_folds_negatives(self):
        field = real_cyclotomic_field(5)
        assert cos_multiple(field, -2) == cos_multiple(field, 2)
        assert cos_multiple(field, 0) == 1
        # cos(5*pi/5) = -1
        assert cos_multiple(field, 5) == -1


class TestInverse:
    def test_identity(self):
        field = real_cyclotomic_field(5)
        assert field.one().inverse() == 1

    def test_sqrt2(self):
        field = real_cyclotomic_field(4)
        g = field.gen()
        assert g.inverse() == g * Fraction(1, 2)

    def test_golden(self):
        field = real_cyclotomic_field(5)
        g = field.gen()
        assert g.inverse() == g - 1

    def test_zero_rejected(self):
        field = real_cyclotomic_field(5)
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()


_fields = [real_cyclotomic_field(d) for d in (4, 5, 7, 8)]
_coeff = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@st.composite
def field_elements(draw):
    field = draw(st.sampled_from(_fields))
    coeffs = draw(st.lists(_coeff, min_size=field.degree, max_size=field.degree))
    return field.element(coeffs)


@st.composite
def field_triples(draw):
    field = draw(st.sampled_from(_fields))

    def elem():
        coeffs = draw(st.lists(_coeff, min_size=field.degree, max_size=field.degree))
        return field.element(coeffs)

    return elem(), elem(), elem()


class TestFieldAxioms:
    @settings(max_examples=60)
    @given(field_triples())
    def test_associativity_and_distributivity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(field_elements())
    def test_inverse_roundtrip(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == 1

    @settings(max_examples=30)
    @given(field_elements())
    def test_power_consistency(self, a):
        assert a**3 == a * a * a

    def test_powers_square_only_while_bits_remain(self, monkeypatch):
        a = real_cyclotomic_field(7).element([1, -2, 3])
        products = [a.field.one()]
        for _ in range(6):
            products.append(products[-1] * a)
        calls = []
        mul = AlgNum.__mul__

        def counted(x, y):
            calls.append(1)
            return mul(x, y)

        monkeypatch.setattr(AlgNum, "__mul__", counted)
        assert a**2 == products[2]
        assert len(calls) == 2
        for e in range(7):
            assert a**e == products[e]


def _ref_mul(field, a, b):
    """Fraction reference product: schoolbook, then top-down reduction by psi."""
    n = field.degree
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        for j in range(n + 1):
            prod[k - n + j] -= c * field.minpoly[j]
    return prod[:n]


def _assert_canonical(a):
    assert len(a.num) == a.field.degree
    assert all(type(c) is int for c in a.num) and type(a.den) is int
    assert a.den > 0 and gcd(a.den, *a.num) == 1
    assert a.coeffs == tuple(Fraction(c, a.den) for c in a.num)


@st.composite
def field_pairs(draw):
    """Two elements of Q(2*cos(pi/d)), d = 3..16, and their Fraction coefficients."""
    field = real_cyclotomic_field(draw(st.integers(min_value=3, max_value=16)))
    coeff = st.fractions(min_value=-12, max_value=12, max_denominator=8)
    a, b = (draw(st.lists(coeff, min_size=field.degree, max_size=field.degree)) for _ in "ab")
    return field, a, b


class TestIntegerVectorElements:
    """Each operation against a Fraction-vector reference that lives only here."""

    @settings(max_examples=150)
    @given(field_pairs(), st.fractions(min_value=-9, max_value=9, max_denominator=6))
    def test_ring_operations_match_the_fraction_reference(self, pair, q):
        field, ra, rb = pair
        a, b = field.element(ra), field.element(rb)
        results = {
            "+": (a + b, [x + y for x, y in zip(ra, rb)]),
            "-": (a - b, [x - y for x, y in zip(ra, rb)]),
            "*": (a * b, _ref_mul(field, ra, rb)),
            "q*": (q * a, [q * x for x in ra]),
            "*int": (a * q.numerator, [q.numerator * x for x in ra]),
            "-a": (-a, [-x for x in ra]),
        }
        for op, (got, want) in results.items():
            _assert_canonical(got)
            assert list(got.coeffs) == want, op

    @settings(max_examples=60)
    @given(field_pairs(), st.integers(min_value=-3, max_value=5))
    def test_inverse_and_powers_match_the_fraction_reference(self, pair, e):
        field, ra, _ = pair
        a = field.element(ra)
        one = [Fraction(1)] + [Fraction(0)] * (field.degree - 1)
        if not any(ra):
            assert a.is_zero() and a.den == 1
            return
        inv = a.inverse()
        _assert_canonical(inv)
        assert _ref_mul(field, ra, list(inv.coeffs)) == one
        want = one
        for _ in range(abs(e)):
            want = _ref_mul(field, want, ra if e > 0 else list(inv.coeffs))
        got = a**e
        _assert_canonical(got)
        assert list(got.coeffs) == want

    @pytest.mark.parametrize("d", range(2, 17))
    def test_tail_is_the_integral_minimal_polynomial(self, d):
        field = real_cyclotomic_field(d)
        assert field.minpoly[-1] == 1
        assert field.tail == tuple(-int(c) for c in field.minpoly[:-1])
        g = field.gen()
        assert (g**field.degree).coeffs == tuple(Fraction(t) for t in field.tail)

    def test_non_monic_or_non_integral_minimal_polynomial_is_refused(self):
        field = real_cyclotomic_field(5)
        for wrong in ((-1, -1, 2), (Fraction(1, 2), -1, 1), (-1, 1)):
            with pytest.raises(SelfCheckError):
                dataclasses.replace(field, minpoly=upoly.upoly(wrong))

    def test_rational_elements_hash_like_their_fractions(self):
        field = real_cyclotomic_field(5)
        half = field.from_rational(Fraction(1, 2))
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert len({half, Fraction(1, 2)}) == 1
        assert len({field.from_rational(3), 3, Fraction(6, 2)}) == 1
        assert len({field.gen(), field.gen() * 1, half}) == 2

    def test_zero_is_zeros_over_one(self):
        field = real_cyclotomic_field(7)
        a = field.element([Fraction(1, 3), Fraction(-2, 5), 1])
        for zero in (a - a, a * 0, field.element([]), field.zero()):
            assert zero.num == (0, 0, 0) and zero.den == 1
            assert zero == 0 and hash(zero) == hash(0)

    @settings(max_examples=60)
    @given(field_pairs(), st.fractions(min_value=-9, max_value=9, max_denominator=6))
    def test_rational_division_matches_the_inverse(self, pair, q):
        # an int, Fraction or rational-element divisor only scales the
        # numerators; the general route inverts it by xgcd
        assume(q)
        field, ra, _ = pair
        a = field.element(ra)
        for divisor in (q, -q, q.numerator, -q.numerator):
            got = a / divisor
            _assert_canonical(got)
            assert got == a * field.from_rational(divisor).inverse()
        assert a / field.from_rational(q) == a * field.from_rational(q).inverse()

    def test_division_by_zero_raises(self):
        field = real_cyclotomic_field(7)
        a = field.element([1, -2, 3])
        for zero in (0, Fraction(0), field.zero()):
            with pytest.raises(ZeroDivisionError):
                a / zero

    @pytest.mark.parametrize("d", range(3, 17))
    def test_relations_match_the_inverse_route(self, monkeypatch, d):
        # the distinguished relations divide by rational leading
        # coefficients; dividing through the inverse gives the same strings
        from chebcurve.chebyshev import minus_conics
        from chebcurve.syzygy import nontrivial_syzygy

        js = range(1, len(minus_conics(d)) + 1)
        scaled = [[str(c) for c in nontrivial_syzygy.__wrapped__(d, j)] for j in js]
        monkeypatch.setattr(AlgNum, "__truediv__", lambda a, b: a * a._coerce(b).inverse())
        assert [[str(c) for c in nontrivial_syzygy.__wrapped__(d, j)] for j in js] == scaled


class TestUPoly:
    def test_divmod_roundtrip(self):
        a = upoly.upoly([1, 0, -3, 2, 5])
        b = upoly.upoly([2, 1, 1])
        q, r = upoly.divmod_poly(a, b)
        assert upoly.add(upoly.mul(q, b), r) == a
        assert upoly.degree(r) < upoly.degree(b)

    def test_xgcd_bezout(self):
        a = upoly.upoly([-1, 0, 1])  # t^2 - 1
        b = upoly.upoly([1, 1])  # t + 1
        g, u, v = upoly.xgcd(a, b)
        assert g == upoly.upoly([1, 1])
        assert upoly.add(upoly.mul(u, a), upoly.mul(v, b)) == g

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
    )
    def test_xgcd_identity_property(self, ca, cb):
        a, b = upoly.upoly(ca), upoly.upoly(cb)
        if not a and not b:
            return
        g, u, v = upoly.xgcd(a, b)
        assert upoly.add(upoly.mul(u, a), upoly.mul(v, b)) == g
        if a:
            assert not upoly.poly_mod(a, g)
        if b:
            assert not upoly.poly_mod(b, g)

    def test_derivative(self):
        assert upoly.derivative(upoly.upoly([5, 3, 0, 2])) == upoly.upoly([3, 0, 6])

    def test_evaluate_horner(self):
        p = upoly.upoly([1, -2, 1])  # (t-1)^2
        assert upoly.evaluate(p, Fraction(1)) == 0
        assert upoly.evaluate(p, Fraction(3)) == 4


class TestUPolyCoefficientTypes:
    def test_exact_div_of_integer_polynomials(self):
        q = upoly.exact_div((1, 1), (3, 3))
        assert q == (Fraction(1, 3),)
        assert all(type(c) is Fraction for c in q)

    def test_gcd_of_integer_polynomials_has_no_float(self):
        g = upoly.gcd_poly((0, 0, 2), (0, 4))
        assert g == (0, 1)
        assert all(type(c) is Fraction for c in g)

    def test_monic_and_xgcd_of_integer_polynomials(self):
        assert all(type(c) is Fraction for c in upoly.monic((0, 3)))
        g, u, v = upoly.xgcd((0, 1), (3,))
        assert (g, u, v) == ((1,), (), (Fraction(1, 3),))
        assert all(type(c) is Fraction for c in g + u + v)

    def test_ring_operations_keep_integers(self):
        p, q = (1, -1), (0, 2, 3)
        for out, expected in (
            (upoly.add(p, q), (1, 1, 3)),
            (upoly.mul(p, q), (0, 2, 1, -3)),
            (upoly.shift(p, 2), (0, 0, 1, -1)),
            (upoly.trim([4, 0, 0]), (4,)),
            (upoly.add((1, 2), (0, -2)), (1,)),
        ):
            assert out == expected
            assert all(type(c) is int for c in out)

    def test_ring_operations_keep_fractions(self):
        p = upoly.upoly([1, 0, 2])
        for out in (upoly.add(p, p), upoly.mul(p, p), upoly.shift(p, 3)):
            assert all(type(c) is Fraction for c in out)
