"""Exact elimination: rank, kernels, unique solving, the modular certificates."""

import dataclasses
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcurve import interp, linalg, syzygy
from chebcurve.chebyshev import curve_polynomial
from chebcurve.linalg import (
    Echelon,
    _modulus,
    _rank_exact,
    _reaches_rank_mod_p,
    _reduce_mod_p,
    _to_rows,
    kernel_certificate_mod_p,
    primitive,
    rank,
    rational_reconstruction,
    solve_unique,
    strip_content,
)
from chebcurve.numberfield import SelfCheckError, real_cyclotomic_field


def exact_rank(matrix) -> int:
    """Rank by the exact elimination alone, the reference for the certificate."""
    return _rank_exact([r for r in _to_rows(matrix) if r])


def kernel_certificate(matrix, kernel_rows, lift=None):
    """``kernel_certificate_mod_p`` on exact rows of A and K, reduced
    together by ``_reduce_mod_p``; None when no reduction applies."""
    rows, kernel = _to_rows(matrix), _to_rows(kernel_rows)
    reduced = _reduce_mod_p(rows + kernel)
    if reduced is None:
        return None
    residues, p = reduced
    return kernel_certificate_mod_p(residues[: len(rows)], residues[len(rows) :], p, lift)


def full_rank_bound(rows) -> int:
    return min(len(rows), len(set().union(*rows)))


class TestRank:
    def test_sparse_dict_rows(self):
        rows = [{0: 1, 3: 2}, {0: 2, 3: 4}, {1: 1}]
        assert rank(rows) == 2

    def test_integer_and_fraction_rows_agree(self):
        ints = [[2, 4, 0], [1, 0, 3]]
        fracs = [[Fraction(1, 2), 1, 0], [Fraction(1, 3), 0, 1]]
        assert rank(ints) == rank(fracs) == 2

    def test_field_entries(self):
        field = real_cyclotomic_field(4)
        g = field.gen()
        rows = [[g, field.one()], [field.from_rational(2), g]]  # g^2 = 2: singular
        assert rank(rows) == 1

    def test_field_full_rank(self):
        field = real_cyclotomic_field(5)
        g = field.gen()
        rows = [[g, field.one()], [field.one(), g]]  # det g^2 - 1 = g != 0
        assert rank(rows) == 2

    def test_column_counts_stay_current(self):
        # the exact elimination alone on a rank-deficient Jacobian matrix,
        # and the certified ranks of the relation module
        f = curve_polynomial(5)
        rows, _ = syzygy.jacobian_degree_matrix(f, 4)
        assert exact_rank(rows) == 45 - 8
        assert syzygy.relation_module_kernel_dim(5, 6) == (26, 12)


class TestSolveUnique:
    def test_small_system(self):
        rows = [[1, 1], [1, -1]]
        x = solve_unique(rows, [Fraction(3), Fraction(1)], 2)
        assert x == [2, 1]

    def test_overdetermined_consistent(self):
        rows = [[1, 0], [0, 1], [1, 1]]
        x = solve_unique(rows, [Fraction(2), Fraction(5), Fraction(7)], 2)
        assert x == [2, 5]

    def test_inconsistent_raises(self):
        with pytest.raises(ArithmeticError):
            solve_unique([[1, 0], [1, 0]], [Fraction(1), Fraction(2)], 2)

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError):
            solve_unique([[1, 1]], [Fraction(1)], 2)

    def test_field_system(self):
        field = real_cyclotomic_field(4)
        g = field.gen()
        x = solve_unique([[g]], [field.from_rational(2)], 1)
        assert x[0] == g  # g * g = 2

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    )
    def test_solution_satisfies_system(self, matrix, sol):
        # construct rhs from a known solution; solver must reproduce a valid one
        rhs = [sum(row[j] * sol[j] for j in range(3)) for row in matrix]
        if rank(matrix) < 3:
            return
        x = solve_unique(matrix, [Fraction(b) for b in rhs], 3)
        assert [sum(row[j] * x[j] for j in range(3)) for row in matrix] == rhs


class TestContent:
    def test_primitive_clears_denominators_and_content(self):
        assert primitive({0: Fraction(1, 2), 3: Fraction(-3, 4)}) == {0: 2, 3: -3}
        assert primitive({1: -6, 2: 4}) == {1: -3, 2: 2}

    def test_strip_content_is_joint(self):
        a, b = {0: 6, 1: -4}, {7: 10}
        strip_content(a, b)
        assert (a, b) == ({0: 3, 1: -2}, {7: 5})
        c, e = {0: 6}, {1: 9}
        strip_content(c)
        strip_content(e)
        assert (c, e) == ({0: 1}, {1: 1})


class TestEchelon:
    def test_reduce_and_insert(self):
        ech = Echelon()
        assert ech.insert({0: Fraction(2), 1: Fraction(4)}) == {0: 2, 1: 4}
        assert ech.pivots == {0: {0: 1, 1: 2}}
        assert ech.reduce({0: Fraction(1), 1: Fraction(3)}) == {1: 1}
        assert ech.insert({0: Fraction(3), 1: Fraction(6)}) == {}
        assert list(ech.pivots) == [0]


def _entries(domain):
    if domain == "int":
        return st.integers(min_value=-3, max_value=3)
    if domain == "fraction":
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    field = real_cyclotomic_field(domain)
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=field.degree, max_size=field.degree)
    return coeffs.map(field.element)


@st.composite
def product_matrices(draw):
    """A*B with A n x k and B k x m, so the rank is at most k; k < min(n, m)
    gives rank-deficient matrices."""
    entry = _entries(draw(st.sampled_from(["int", "fraction", 5, 7])))
    n, m, k = (draw(st.integers(min_value=lo, max_value=5)) for lo in (1, 1, 0))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    return [[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(m)] for i in range(n)], k


@st.composite
def kernel_pairs(draw):
    """(A, K, s): A = X [I_s | Y] and K = [-Y; I_t], with A's columns and K's
    rows permuted alike.  A K = 0 and rank K = t, so K spans the kernel of A
    exactly when rank A = s."""
    entry = _entries(draw(st.sampled_from(["int", "fraction", 5, 7])))
    n_rows, s, t = (draw(st.integers(min_value=lo, max_value=4)) for lo in (1, 0, 0))
    x = draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=n_rows, max_size=n_rows))
    y = draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=s, max_size=s))
    perm = draw(st.permutations(range(s + t)))
    left = [[int(i == j) for j in range(s)] + y[i] for i in range(s)]
    kernel = [[-v for v in y[i]] for i in range(s)]
    kernel += [[int(i == j) for j in range(t)] for i in range(t)]
    a = [[sum((x[i][k] * left[k][c] for k in range(s)), 0) for c in perm] for i in range(n_rows)]
    return a, [kernel[c] for c in perm], s


class TestKernelCertificate:
    def test_proves_a_rank_deficient_rank(self):
        # columns 0 and 1 pivot, column 2 is free; (1, 1, -1) spans the kernel
        a = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
        assert kernel_certificate(a, [[1], [1], [-1]]) == 2

    def test_reads_the_kernel_at_free_columns(self):
        # K is zero at A's pivot column 0 and nonzero at its free column 1
        assert kernel_certificate([[1, 0]], [[0], [1]]) == 1

    def test_kernel_short_of_the_nullity(self):
        # the kernel of [1 1 1] has dimension 2; K holds one of its vectors
        assert kernel_certificate([[1, 1, 1]], [[1], [-1], [0]]) is None
        assert kernel_certificate([[1, 1, 1]], [[1, 1], [-1, 0], [0, -1]]) == 1

    def test_denominator_divisible_by_p(self):
        p = _modulus(2)
        q = Fraction(1, p)
        assert kernel_certificate([[q, q], [1, 1]], [[1], [-1]]) is None
        assert kernel_certificate([[1, 1]], [[q], [-q]]) is None

    def test_field_prime_for_both(self):
        field = real_cyclotomic_field(5)
        g = field.gen()
        # rational A, field K: (g, -g) spans the kernel of [1 1]
        assert kernel_certificate([[1, 1]], [[g], [-g]]) == 1

    def test_kernel_needs_a_row_per_column(self):
        with pytest.raises(ValueError):
            kernel_certificate([[1, 0, 1]], [[0], [1]])

    @settings(max_examples=80, deadline=None)
    @given(kernel_pairs())
    def test_agrees_with_exact_path(self, sympy_rank, case):
        a, k, s = case
        exact = sympy_rank(a)
        assert kernel_certificate(a, k) == (exact if exact == s else None)


def exact_kernel_vector(matrix):
    """A lift that accepts a vector exactly when A x = 0 over Q."""
    seen = []

    def lift(x):
        seen.append(x)
        return not any(sum((row[c] * v for c, v in x.items()), 0) for row in matrix)

    return lift, seen


class TestLiftedKernel:
    def test_lifts_the_missing_kernel_vector(self):
        # K holds (1, -1, 0); the kernel vector at free column 2 is (-1, 0, 1)
        lift, seen = exact_kernel_vector([[1, 1, 1]])
        assert kernel_certificate([[1, 1, 1]], [[1], [-1], [0]], lift) == 1
        assert seen == [{0: -1, 2: 1}]

    def test_rational_entries(self):
        lift, seen = exact_kernel_vector([[2, 0, 1]])
        assert kernel_certificate([[2, 0, 1]], [[], [], []], lift) == 1
        assert seen == [{1: 1}, {2: 1, 0: Fraction(-1, 2)}]

    def test_known_vectors_are_not_lifted_again(self):
        lift, seen = exact_kernel_vector([[1, 1, 1]])
        assert kernel_certificate([[1, 1, 1]], [[1, 1], [-1, 0], [0, -1]], lift) == 1
        assert seen == []

    def test_rejected_vector(self):
        assert kernel_certificate([[1, 1, 1]], [[1], [-1], [0]], lambda x: False) is None

    def test_unreconstructible_entry(self):
        # past the bound sqrt(p/2) = 2^30 - 1, -1/(2^32 + 1) mod p
        # reconstructs to the wrong fraction -536870912/536870913, and
        # (2^31 + 1)/1 to none
        lift, seen = exact_kernel_vector([[2**32 + 1, 1]])
        assert kernel_certificate([[2**32 + 1, 1]], [[], []], lift) is None
        assert seen == [{1: 1, 0: Fraction(-536870912, 536870913)}]
        lift, seen = exact_kernel_vector([[1, -(2**31 + 1)]])
        assert kernel_certificate([[1, -(2**31 + 1)]], [[], []], lift) is None
        assert seen == []

    @settings(max_examples=60, deadline=None)
    @given(kernel_pairs())
    def test_lifted_rank_is_exact(self, sympy_rank, case):
        a, k, s = case
        lift, _ = exact_kernel_vector(a)
        got = kernel_certificate(a, [row[:1] for row in k], lift)
        assert got is None or got == sympy_rank(a)


class TestRationalReconstruction:
    @given(st.integers(-(2**30) + 1, 2**30 - 1), st.integers(1, 2**30 - 1))
    def test_small_fractions_come_back(self, n, m):
        p = _modulus(2)
        assert rational_reconstruction(n * pow(m, -1, p) % p, p) == Fraction(n, m)

    def test_no_small_fraction(self):
        # 2^31 + 1 is past the bound sqrt(p/2) = 2^30 - 1
        assert isqrt(_modulus(2) // 2) == 2**30 - 1
        assert rational_reconstruction(2**31 + 1, _modulus(2)) is None


class TestCertificate:
    def test_moduli(self):
        # trial division cannot reach 61 bits: the Miller-Rabin test is
        # checked against sympy below
        for n in (2, 6, 8, 10, 14, 18, 20):
            p = _modulus(n)
            assert p < 2**61 and p % n == 1 and linalg._is_prime(p)
            assert not any(linalg._is_prime(q) for q in range(p + n, 2**61, n))

    def test_moduli_are_prime(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2, 65):
            p = _modulus(n)
            assert p < 2**61 and p % n == 1 and sympy.isprime(p), n

    def test_rational_prime_is_the_modulus_of_two(self):
        # the literal is the Mersenne prime 2^61 - 1, which no search makes
        assert linalg.PRIME == 2**61 - 1 == _modulus(2)
        assert linalg._is_prime(linalg.PRIME)
        assert linalg.residue_map(None)[0] == linalg.PRIME

    def test_smallest_strong_pseudoprime_to_bases_2_3_5_7(self):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin for bases 2, 3, 5, 7
        assert 3215031751 == 151 * 751 * 28351
        assert not linalg._is_prime(3215031751)

    def test_is_prime_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        # strong pseudoprimes to bases 2, 3, 5, 7 (OEIS A056915), then the
        # smallest ones to the first 5, 6, 7 and 9 primes
        pseudoprimes = [
            3215031751, 118670087467, 307768373641, 315962312077, 354864744877,
            457453568161, 528929554561, 546348519181, 602248359169, 1362242655901,
            2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
        ]
        rng = random.Random(20)
        odd = [rng.getrandbits(64) | 1 for _ in range(2000)]
        primes = [sympy.prevprime(2**64), sympy.nextprime(2**63), 2**61 - 1]
        for n in pseudoprimes + odd + primes + list(range(-1, 1000)):
            assert linalg._is_prime(n) == sympy.isprime(n), n

    def test_unlucky_prime_falls_back(self):
        p = _modulus(2)
        rows = [[1, 1], [1, 1 + p]]
        reduced = _reduce_mod_p(_to_rows(rows))
        assert not _reaches_rank_mod_p(*reduced, 2)  # singular mod p
        assert rank(rows) == 2

    def test_unlucky_prime_over_a_field(self):
        field = real_cyclotomic_field(5)
        p = _modulus(10)
        g = field.gen()
        rows = [[g, field.one()], [g, field.one() + p]]
        assert not _reaches_rank_mod_p(*_reduce_mod_p(_to_rows(rows)), 2)
        assert rank(rows) == 2

    def test_generator_image_is_self_checked(self, monkeypatch):
        # s^2 - s + 1 differs from the minimal polynomial s^2 - s - 1 of
        # 2*cos(pi/5) by 2, so it cannot vanish at the generator's image
        field = real_cyclotomic_field(5)
        wrong = dataclasses.replace(field, minpoly=(Fraction(1), Fraction(-1), Fraction(1)))
        monkeypatch.setattr(linalg, "real_cyclotomic_field", lambda d: wrong)
        linalg._generator_image.cache_clear()
        try:
            with pytest.raises(SelfCheckError):
                linalg._generator_image(5)
        finally:
            linalg._generator_image.cache_clear()

    @settings(max_examples=60)
    @given(
        st.integers(min_value=3, max_value=16),
        st.lists(st.fractions(-50, 50, max_denominator=30), min_size=8, max_size=8),
    )
    def test_field_entries_reduce_coefficientwise(self, d, coeffs):
        # the image of an entry is sum residue(c_i) * g^i mod p over its
        # Fraction coefficients c_i
        field = real_cyclotomic_field(d)
        p, g = linalg._generator_image(d)
        a = field.element(coeffs[: field.degree])
        row = {0: a, 1: a * a, 2: Fraction(3, 7)}
        (image,), q = _reduce_mod_p([row])
        assert q == p
        for c, v in row.items():
            cs = v.coeffs if c < 2 else (v,)
            want = sum(linalg._residue(x, p) * pow(g, i, p) for i, x in enumerate(cs)) % p
            assert image.get(c, 0) == want

    def test_field_entry_with_denominator_divisible_by_p(self):
        field = real_cyclotomic_field(7)
        p = _modulus(14)
        for coeffs in ([Fraction(1, p)], [1, Fraction(2, 3 * p)], [0, 0, Fraction(1, p * p)]):
            assert _reduce_mod_p(_to_rows([[field.gen(), field.element(coeffs)]])) is None
        assert _reduce_mod_p(_to_rows([[field.element([1, Fraction(1, 3 * p)]) * p]])) is not None

    def test_denominator_divisible_by_p(self):
        p = _modulus(2)
        assert _reduce_mod_p(_to_rows([[Fraction(1, p)]])) is None
        assert rank([[Fraction(1, p)]]) == 1

    def test_mixed_fields_use_exact_path(self):
        a = real_cyclotomic_field(5).gen()
        b = real_cyclotomic_field(7).gen()
        rows = [[a, 0], [0, b]]
        assert _reduce_mod_p(_to_rows(rows)) is None
        assert rank(rows) == 2

    def test_full_rank_needs_no_exact_elimination(self, monkeypatch):
        rows = interp.grid_matrix(9, 6)
        monkeypatch.setattr(linalg, "_rank_exact", None)
        assert rank(rows) == len(rows[0])

    @settings(max_examples=80, deadline=None)
    @given(product_matrices())
    def test_agrees_with_exact_path(self, sympy_rank, case):
        matrix, k = case
        got = rank(matrix)
        assert got == sympy_rank(matrix)
        assert got <= k

    @pytest.mark.parametrize("d", range(3, 9))
    def test_curve_ranks_agree_with_exact_path(self, monkeypatch, sympy_rank, d):
        # A rank below the full-rank bound can only come from the exact
        # path, so only full-rank answers need the cross-check.
        certified = []

        def checked_rank(matrix):
            got = rank(matrix)
            rows = [r for r in _to_rows(matrix) if r]
            if rows and got == full_rank_bound(rows):
                assert sympy_rank(rows) == got
                certified.append(got)
            return got

        monkeypatch.setattr(linalg, "rank", checked_rank)
        f = curve_polynomial(d)
        for r in range(2 * d + 1):
            syzygy.syzygy_dim(f, r)
        for r in range(d - 2, d + 3):
            syzygy.relation_module_kernel_dim(d, r)
        # the grid ranks are proven mod p in the Chebyshev basis without
        # linalg.rank; the exact monomial grid matrices are full rank in
        # every degree up to d, and their certified ranks are the same
        ranks = interp.grid_ranks.__wrapped__(d)
        assert [checked_rank(interp.grid_matrix(d, r)) for r in range(d + 1)] == list(ranks[: d + 1])
        assert len(certified) >= d + 1


class TestEchelonModP:
    def test_pivots_over_q_and_f7(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 8}]
        over_q = Echelon()
        for row in rows:
            over_q.insert({c: Fraction(v) for c, v in row.items()})
        assert len(over_q.pivots) == 2
        over_f7 = Echelon(7)
        for row in rows:
            over_f7.insert(row)
        assert over_f7.pivots == {0: {0: 1, 1: 1}}

    def test_entries_are_residues(self):
        ech = Echelon(5)
        assert ech.insert({0: 10, 1: 3}) == {1: 3}
        assert ech.pivots == {1: {1: 1}}
        assert ech.reduce({1: -4, 2: 7}) == {2: 2}

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(min_value=1, max_value=5).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(min_value=-12, max_value=12), min_size=m, max_size=m),
                min_size=1,
                max_size=5,
            )
        ),
    )
    def test_rank_matches_sympy_over_gf_p(self, p, rows):
        matrices = pytest.importorskip("sympy.polys.matrices")
        from sympy import GF, ZZ

        expected = matrices.DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()
        ech = Echelon(p)
        for row in rows:
            ech.insert(dict(enumerate(row)))
        assert len(ech.pivots) == expected
        for prow in ech.pivots.values():
            assert prow[min(prow)] == 1 and all(0 < v < p for v in prow.values())
        residues = [{c: v % p for c, v in enumerate(row) if v % p} for row in rows]
        assert _reaches_rank_mod_p(residues, p, expected)
        if expected < len(rows):
            assert not _reaches_rank_mod_p(residues, p, expected + 1)


def eager_reduce(echelon: Echelon, row: dict) -> dict:
    """The reference reduction over F_p: every entry is reduced mod p as
    soon as it is touched, and each step takes min(row) afresh."""
    p = echelon.p
    row = {c: r for c, v in row.items() if (r := v % p)}
    while row:
        lead = min(row)
        prow = echelon.pivots.get(lead)
        if prow is None:
            break
        f = row[lead]
        for c, v in prow.items():
            nv = (row.get(c, 0) - f * v) % p
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return row


_echelon_reduce = Echelon.reduce


class EagerEchelon(Echelon):
    """Echelon with the reference reduction over F_p; over a field
    (p None) it keeps Echelon's own loop."""

    def reduce(self, row):
        return _echelon_reduce(self, row) if self.p is None else eager_reduce(self, row)


ORACLE_PRIMES = sorted({7, 101, _modulus(2)} | {_modulus(2 * d) for d in range(3, 17)})


@st.composite
def sparse_rows_mod_p(draw):
    """(p, rows): sparse rows over 12 columns with entries in [-3p, 3p],
    multiples of p and small values among them."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    entry = st.one_of(
        st.integers(min_value=-3 * p, max_value=3 * p),
        st.integers(min_value=-3, max_value=3).map(lambda k: k * p),
        st.integers(min_value=-3, max_value=3),
    )
    row = st.dictionaries(st.integers(min_value=0, max_value=11), entry, max_size=8)
    return p, draw(st.lists(row, min_size=1, max_size=14))


class TestLazyReduction:
    @settings(max_examples=300, deadline=None)
    @given(sparse_rows_mod_p())
    def test_same_residues_and_pivots_as_eager_loop(self, case):
        p, rows = case
        lazy, eager = Echelon(p), EagerEchelon(p)
        for row in rows:
            residue = lazy.insert(row)
            assert residue == eager.insert(row)
            assert all(0 < v < p for v in residue.values())
            assert lazy.pivots == eager.pivots
        # reduce leaves the echelon as it is
        for row in rows:
            assert lazy.reduce(row) == eager.reduce(row) == {}
        assert lazy.pivots == eager.pivots

    @pytest.mark.parametrize("d", range(3, 9))
    def test_chebyshev_certificates_match_eager_loop(self, monkeypatch, d):
        f = curve_polynomial(d)
        relations = syzygy.chebyshev_relations(d)
        cases = []
        for r in range(2 * d + 1):
            jac, _ = syzygy.jacobian_degree_matrix(f, r)
            kernel, _ = syzygy.relation_matrix(relations, r)
            cases.append((jac, kernel))
        lazy = [kernel_certificate(jac, kernel) for jac, kernel in cases]
        monkeypatch.setattr(Echelon, "reduce", EagerEchelon.reduce)
        assert [kernel_certificate(jac, kernel) for jac, kernel in cases] == lazy
        assert None not in lazy

    @pytest.mark.parametrize("d", [5, 6])
    def test_lifted_syzygies_match_eager_loop(self, monkeypatch, d):
        # from the Koszul trio alone the certificate falls short at r = d-2,
        # so the relations there are lifted from J_r's echelon mod p
        f = curve_polynomial(d)

        def lifted():
            relations = syzygy.koszul_relations(f)
            dims = [syzygy.syzygy_dim(f, r, relations) for r in range(2 * d + 1)]
            return dims, relations

        lazy = lifted()
        monkeypatch.setattr(Echelon, "reduce", EagerEchelon.reduce)
        assert lifted() == lazy
        assert len(lazy[1]) > 3
