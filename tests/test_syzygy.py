"""Syzygy dimensions, explicit relations, resolution cross-checks."""

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebcurve import cli, interp, linalg, syzygy
from chebcurve.chebyshev import build, curve_polynomial, minus_conics
from chebcurve.groebner import buchberger, leading_ideal, multiplication_rows
from chebcurve.numberfield import real_cyclotomic_field
from chebcurve.polyring import MPoly, monomial_basis, parse, partials, variables
from test_linalg import kernel_certificate
from chebcurve.syzygy import (
    chebyshev_relations,
    expected_relation_kernel_dim,
    jacobian_degree_matrix,
    macaulay_matrix,
    nontrivial_syzygy,
    relation_matrix,
    quotient_syzygy_dims,
    regular_pair_basis,
    relation_module_kernel_dim,
    syzygy_dim,
    syzygy_dim_from_hilbert,
    verify_resolution,
)


def dim_forms(e):
    return (e + 2) * (e + 1) // 2 if e >= 0 else 0


def hilbert_counts(f, r_max):
    return [syzygy_dim_from_hilbert(f, r) for r in range(r_max + 1)]


def refuse(*args):
    raise AssertionError("refused call reached")


def koszul_count(d, r):
    """Syzygy dimension of a regular sequence of three degree-(d-1) forms."""
    dim = lambda e: (e + 2) * (e + 1) // 2 if e >= 0 else 0
    return 3 * dim(r - d + 1) - dim(r - 2 * d + 2)


def combination(generators, coeffs):
    """sum c_i * v_i by MPoly arithmetic, with the multiplier of generator
    (v_i, e_i) spelled out in monomial_basis(e_i) order from coeffs."""
    it = iter(coeffs)
    total = [MPoly.zero(3)] * len(generators[0][0])
    for components, e in generators:
        if e < 0:
            continue
        mult = MPoly(3, {u: next(it) for u in monomial_basis(e, nvars=3)})
        total = [t + mult * comp for t, comp in zip(total, components)]
    assert next(it, None) is None
    return total


def check_against_mpoly(rows, ncols, generators, degree, seed=0):
    """A random combination through the matrix equals the MPoly combination,
    coefficient by coefficient in (component, monomial_basis(degree)) order."""
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(ncols)]
    image = [sum((v * coeffs[c] for c, v in row.items()), Fraction(0)) for row in rows]
    targets = monomial_basis(degree, nvars=3)
    expected = [p.coefficient(m) for p in combination(generators, coeffs) for m in targets]
    assert image == expected


class TestMacaulayMatrix:
    @pytest.mark.parametrize(
        "text",
        ["8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4", "x^5 - 3*x*y^3*z + y*z^4 - 2*z^5"],
        ids=["T4", "quintic"],
    )
    @pytest.mark.parametrize("r", [0, 2, 5])
    def test_jacobian_matrix(self, text, r):
        f = parse(text)
        rows, ncols = jacobian_degree_matrix(f, r)
        gens = [((g,), r) for g in partials(f)]
        check_against_mpoly(rows, ncols, gens, r + f.degree() - 1, seed=r)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_nontrivial_syzygy_matrix(self, d):
        # the quotients of the division by {fx, fy} are the unique solution
        # of a1*fx + a2*fy = -a3*fz in degree 2d-3, solved by elimination
        fx, fy, fz = partials(curve_polynomial(d))
        gens = [((fx,), d - 2), ((fy,), d - 2)]
        rows, ncols = macaulay_matrix(gens, 2 * d - 3)
        check_against_mpoly(rows, ncols, gens, 2 * d - 3)
        unknowns = monomial_basis(d - 2, nvars=3)
        for j in range(1, len(minus_conics(d)) + 1):
            a1, a2, a3 = nontrivial_syzygy(d, j)
            target = -(a3 * fz)
            rhs = [target.coefficient(m) for m in monomial_basis(2 * d - 3, nvars=3)]
            expected = linalg.solve_unique(rows, rhs, ncols)
            assert [a.coefficient(m) for a in (a1, a2) for m in unknowns] == expected

    @pytest.mark.parametrize("d", [4, 5])
    def test_relation_module_matrix(self, monkeypatch, d):
        # the exact R_r of the fallback against MPoly arithmetic, and the
        # matrices the certificate eliminates are the images of the exact
        # J_r and R_r in F_p, entry by entry
        captured = []
        certificate = linalg.kernel_certificate_mod_p

        def capture(rows, kernel, p, lift=None):
            captured.append((rows, kernel))
            return certificate(rows, kernel, p, lift)

        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", capture)
        _, image = linalg.residue_map(d)
        field = real_cyclotomic_field(d)
        fx, fy, fz = (p.map_coefficients(field.from_rational) for p in partials(curve_polynomial(d)))
        zero = MPoly.zero(3)
        n_extra = len(minus_conics(d))
        rels = [nontrivial_syzygy(d, j) for j in range(1, n_extra + 1)]
        rels += [(fy, -fx, zero), (fz, zero, -fx), (zero, fz, -fy)]
        degrees = [d - 2] * n_extra + [d - 1] * 3
        for r in range(d - 2, d + 3):
            captured.clear()
            rk, ker = relation_module_kernel_dim(d, r)
            ((jac_p, kernel_p),) = captured
            gens = [(rel, r - deg) for rel, deg in zip(rels, degrees)]
            rows, ncols = relation_matrix(chebyshev_relations(d), r)
            assert ncols == rk + ker
            check_against_mpoly(rows, ncols, gens, r, seed=r)
            jac, _ = jacobian_degree_matrix(curve_polynomial(d), r)
            for exact, residues in ((jac, jac_p), (rows, kernel_p)):
                assert residues == [{c: image(v) for c, v in row.items() if image(v)} for row in exact]


class TestSyzygyDim:
    def test_no_relations_below_threshold(self):
        assert syzygy_dim(curve_polynomial(4), 1) == 0

    def test_first_relation_even(self):
        assert syzygy_dim(curve_polynomial(4), 2) == 1

    def test_first_relations_odd(self):
        assert syzygy_dim(curve_polynomial(5), 3) == 2

    def test_rank_nullity_example(self):
        # 3*6 - (21 - 4) = 1 and 3*10 - (28 - 4) = 6
        f = curve_polynomial(4)
        assert syzygy_dim_from_hilbert(f, 2) == 1
        assert syzygy_dim_from_hilbert(f, 3) == 6

    @pytest.mark.parametrize("d", range(3, 7))
    def test_cross_oracle(self, d):
        f = curve_polynomial(d)
        for r in range(2 * d + 1):
            assert syzygy_dim(f, r) == syzygy_dim_from_hilbert(f, r)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_smooth_curve_is_pure_koszul(self, d):
        f = parse(f"x^{d} + y^{d} + z^{d}")
        for r in range(2 * d + 1):
            assert syzygy_dim(f, r) == koszul_count(d, r)


class TestNontrivialSyzygy:
    def test_quartic_third_component(self):
        _, _, a3 = nontrivial_syzygy(4, 1)
        assert a3 == parse("8*x^2 - 8*y^2")

    def test_cubic_third_component(self):
        _, _, a3 = nontrivial_syzygy(3, 1)
        assert a3 == parse("4*x - 4*y")

    @pytest.mark.parametrize("d,j", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2)])
    def test_relation_holds_identically(self, d, j):
        a1, a2, a3 = nontrivial_syzygy(d, j)
        field = real_cyclotomic_field(d)
        fx, fy, fz = (
            p.map_coefficients(field.from_rational) for p in partials(curve_polynomial(d))
        )
        assert a1 * fx + a2 * fy + a3 * fz == MPoly.zero(3)

    @pytest.mark.parametrize("d,j", [(4, 1), (5, 1), (5, 2), (6, 2)])
    def test_components_have_expected_degree(self, d, j):
        a1, a2, a3 = nontrivial_syzygy(d, j)
        assert a3.degree() == d - 2
        assert a1.degree() <= d - 2 and a2.degree() <= d - 2

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_third_component_vanishes_on_companion_grid(self, d):
        data = build(d)
        one = data.field.one()
        for j in range(1, len(minus_conics(d)) + 1):
            _, _, a3 = nontrivial_syzygy(d, j)
            for a, b in data.minus_nodes:
                assert a3.evaluate((a, b, one)) == 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            nontrivial_syzygy(4, 2)


class TestSecondLevel:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_kernel_matches_resolution_shape(self, d):
        for r in range(d - 2, d + 3):
            rank, ker = relation_module_kernel_dim(d, r)
            assert ker == expected_relation_kernel_dim(d, r)
            assert rank == syzygy_dim(curve_polynomial(d), r)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_residue_route_matches_the_exact_matrices(self, d):
        # the certificate on the exact J_r and R_r, reduced entry by entry,
        # with linalg.rank where it does not close, as the oracle
        f = curve_polynomial(d)
        relations = chebyshev_relations(d)
        for r in range(d - 2, d + 3):
            jac, ncols = jacobian_degree_matrix(f, r)
            kernel, nrel = relation_matrix(relations, r)
            rank = kernel_certificate(jac, kernel)
            rank_rel = linalg.rank(kernel) if rank is None else ncols - rank
            assert relation_module_kernel_dim(d, r) == (rank_rel, nrel - rank_rel)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_certificates_close_without_the_exact_relation_matrix(self, monkeypatch, d):
        monkeypatch.setattr(syzygy, "relation_matrix", refuse)
        monkeypatch.setattr(linalg, "rank", refuse)
        for r in range(d - 2, d + 3):
            assert relation_module_kernel_dim(d, r).proof == "mod_p"

    @pytest.mark.parametrize("d", [4, 5])
    def test_coefficients_without_image_fall_back(self, monkeypatch, d):
        # with no coefficient reducible the exact R_r is built and ranked
        # exactly, and the answers stay the same
        want = [relation_module_kernel_dim(d, r) for r in range(d - 2, d + 3)]
        p, _ = linalg.residue_map(d)
        monkeypatch.setattr(linalg, "residue_map", lambda d: (p, lambda v: None))
        got = [relation_module_kernel_dim(d, r) for r in range(d - 2, d + 3)]
        assert got == want
        assert [x.proof for x in got] == ["exact"] * 5


def exact_rank(rows) -> int:
    rows = [r for r in linalg._to_rows(rows) if r]
    return linalg._rank_exact(rows) if rows else 0


class TestKernelCertificate:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_certified_ranks_match_exact(self, sympy_rank, d):
        # Exact ranks of the relation matrices above r = d+2 at d = 7, 8
        # take about 13 s together on a 2-CPU Xeon VM, so there only the
        # degrees of the resolution check are compared with them.
        f = curve_polynomial(d)
        relations = chebyshev_relations(d)
        for r in range(2 * d + 1):
            rows, ncols = jacobian_degree_matrix(f, r)
            kernel, _ = relation_matrix(relations, r)
            rank_j = kernel_certificate(rows, kernel)
            assert rank_j == exact_rank(rows)
            if d <= 6 or r <= d + 2:
                assert ncols - rank_j == sympy_rank(kernel)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_resolution_needs_no_exact_elimination(self, monkeypatch, d):
        def refuse(rows):
            raise AssertionError("exact elimination reached")

        monkeypatch.setattr(linalg, "_rank_exact", refuse)
        assert verify_resolution(d).ok

    def test_short_relation_list_falls_back(self, monkeypatch):
        # the Koszul trio alone misses the two relations of degree d-2 = 3
        d = 5
        f = curve_polynomial(d)
        fallbacks = []
        rank = linalg.rank

        def counted(rows):
            fallbacks.append(1)
            return rank(rows)

        monkeypatch.setattr(linalg, "rank", counted)
        koszul = chebyshev_relations(d)[-3:]
        for r in range(d - 2, d + 3):
            fallbacks.clear()
            assert syzygy_dim(f, r, koszul) == syzygy_dim_from_hilbert(f, r)
            assert fallbacks == [1]


class TestVerifyResolution:
    @pytest.mark.parametrize(
        "d,first_degree,first_count",
        [(3, 1, 1), (4, 2, 1), (5, 3, 2), (6, 4, 2)],
    )
    def test_report(self, d, first_degree, first_count):
        report = verify_resolution(d)
        assert report.ok
        assert report.first_syzygy_degree == first_degree
        assert report.first_syzygy_count == first_count

    @pytest.mark.parametrize("d", range(3, 9))
    def test_syzygy_dims_computed_once_per_degree(self, monkeypatch, d):
        # the grid ranks give syz(r) in every degree; one certificate at
        # each r = d-2..d+2 proves the relation-module rank there
        calls = []
        certificate = linalg.kernel_certificate_mod_p

        def counted(rows, kernel, p, lift=None):
            calls.append(len(kernel))
            return certificate(rows, kernel, p, lift)

        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", counted)
        report = verify_resolution(d)
        assert report.ok
        assert report.rank_proofs == ("mod_p",) * 5
        assert calls == [3 * (r + 2) * (r + 1) // 2 for r in range(d - 2, d + 3)]

    @pytest.mark.parametrize("d", range(3, 13))
    def test_grid_counts_match_elimination_and_hilbert(self, d):
        # the per-degree elimination against the relations is the oracle
        # of the counts read from the grid ranks
        f = curve_polynomial(d)
        relations = chebyshev_relations(d)
        checks = verify_resolution(d).syzygy_checks
        assert [c.r for c in checks] == list(range(2 * d + 1))
        for c in checks:
            assert c.got == syzygy_dim(f, c.r, relations)
            assert c.got == c.expected == syzygy_dim_from_hilbert(f, c.r)

    @pytest.mark.parametrize("r", [5, 10])
    def test_perturbed_grid_rank_fails_its_degree(self, monkeypatch, r):
        # at d = 5, r = d lies in the certified window and r = 2d past it
        d = 5
        ranks = list(interp.grid_ranks(d))
        ranks[r] -= 1
        monkeypatch.setattr(syzygy, "grid_ranks", lambda _: tuple(ranks))
        report = verify_resolution(d)
        assert report.ok is False
        checks = report.syzygy_checks + report.rank_checks + report.kernel_checks
        failed = [c for c in checks if not c.ok]
        assert failed and all(c.r == r for c in failed)
        assert len(failed) == (2 if r == d else 1)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_exact_path_gives_the_same_report(self, monkeypatch, d):
        proven = verify_resolution(d)
        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", lambda rows, kernel, p, lift=None: None)
        exact = verify_resolution(d)
        assert exact.ok
        assert proven.rank_proofs == ("mod_p",) * 5 and exact.rank_proofs == ("exact",) * 5
        assert exact.syzygy_checks == proven.syzygy_checks
        assert exact.rank_checks == proven.rank_checks
        assert exact.kernel_checks == proven.kernel_checks

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_exact_path_ranks_only_the_relation_matrices(self, monkeypatch, d):
        # syz(r) comes from the grid, so a certificate that does not close
        # leaves one rank to compute: that of R_r, whose rows are the
        # 3*dim S_r columns of J_r, never J_r with its dim S_(r+d-1) rows
        interp.grid_ranks(d)
        ranked = []
        rank = linalg.rank

        def counted(rows):
            rows = list(rows)
            ranked.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", lambda rows, kernel, p, lift=None: None)
        monkeypatch.setattr(linalg, "rank", counted)
        assert verify_resolution(d).ok
        assert ranked == [3 * dim_forms(r) for r in range(d - 2, d + 3)]

    def test_koszul_trio_alone_fails_the_rank_checks(self, monkeypatch):
        # without the two relations of degree d-2 = 3 no certificate closes
        # from r = 3 on, and the exact ranks of R_r fall short of syz(r)
        koszul = chebyshev_relations(5)[-3:]
        monkeypatch.setattr(syzygy, "chebyshev_relations", lambda d: koszul)
        report = verify_resolution(5)
        assert not report.ok
        assert all(c.ok for c in report.syzygy_checks)
        assert [(c.r, c.got, c.expected) for c in report.rank_checks] == [
            (3, 0, 2), (4, 3, 8), (5, 9, 16), (6, 18, 26), (7, 30, 38)
        ]

    def test_koszul_trio_enters_at_d_minus_1(self):
        f = curve_polynomial(4)
        # one distinguished relation at r=2; Koszul trio appears at r=3
        assert syzygy_dim(f, 2) == 1
        assert syzygy_dim(f, 3) == 6  # 3 shifts of the distinguished one + 3 Koszul


def lifted_dims(f, r_max):
    """syz(0..r_max) as the syzygy command computes them, and the known
    syzygies they leave: the Koszul trio and each lifted one."""
    relations = syzygy.koszul_relations(f)
    return [syzygy_dim(f, r, relations) for r in range(r_max + 1)], relations


def is_syzygy(f, triple):
    return not sum((a * g for a, g in zip(triple, partials(f))), MPoly.zero(3))


def bench_workloads():
    """The benchmark's workload module, loaded from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    return workloads


def seed_one_input(job_name):
    """The input file text of a jacobian-profiles benchmark job, seed 1."""
    workloads = bench_workloads()
    (job,) = [j for j in workloads.jacobian_profiles(random.Random(1)) if j.name == job_name]
    return job.poly


class TestLiftedSyzygies:
    @pytest.mark.parametrize("d,count", [(3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 3)])
    def test_chebyshev_lifts_the_first_syzygies(self, monkeypatch, d, count):
        # the distinguished relations of degree d-2 are lifted once, and
        # their multiples prove every later degree without exact elimination
        def refuse(rows):
            raise AssertionError("exact elimination reached")

        monkeypatch.setattr(linalg, "_rank_exact", refuse)
        f = curve_polynomial(d)
        dims, relations = lifted_dims(f, 2 * d)
        assert dims == [syzygy_dim_from_hilbert(f, r) for r in range(2 * d + 1)]
        assert [deg for _, deg in relations[3:]] == [d - 2] * count
        assert all(is_syzygy(f, triple) for triple, _ in relations)

    @pytest.mark.parametrize("text", ["x^3 + y^3 + z^3", "x^4 + y^4 + z^4", "x^5 + y^5 + z^5"])
    def test_smooth_input_lifts_nothing(self, text):
        f = parse(text)
        dims, relations = lifted_dims(f, 2 * f.degree())
        assert dims == [koszul_count(f.degree(), r) for r in range(2 * f.degree() + 1)]
        assert len(relations) == 3

    def test_smooth_dense_input_lifts_nothing(self):
        f = parse(seed_one_input("syzygy-dense5"))
        _, relations = lifted_dims(f, 10)
        assert len(relations) == 3

    def test_corrupted_reconstruction_is_rejected(self, monkeypatch):
        f = curve_polynomial(5)
        honest, _ = lifted_dims(f, 10)
        reconstruct = linalg.rational_reconstruction
        corrupted = []

        def corrupt(a, p):
            q = reconstruct(a, p)
            if q and not corrupted:
                corrupted.append(q)
                return q + 1
            return q

        exact = []
        rank_exact = linalg._rank_exact
        monkeypatch.setattr(linalg, "rational_reconstruction", corrupt)
        monkeypatch.setattr(linalg, "_rank_exact", lambda rows: exact.append(1) or rank_exact(rows))
        dims, relations = lifted_dims(f, 10)
        assert corrupted and exact
        assert dims == honest
        assert all(is_syzygy(f, triple) for triple, _ in relations)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_no_reduction_mod_p_takes_the_exact_path(self, monkeypatch, d):
        # no coefficient has an image in F_p: no certificate, and the exact
        # J_r is built and ranked in every degree
        f = curve_polynomial(d)
        proven, _ = lifted_dims(f, 2 * d)
        p, _ = linalg.residue_map(None)
        built = []
        matrix = syzygy.jacobian_degree_matrix
        monkeypatch.setattr(linalg, "residue_map", lambda d: (p, lambda v: None))
        monkeypatch.setattr(syzygy, "jacobian_degree_matrix", lambda g, r: built.append(r) or matrix(g, r))
        dims, relations = lifted_dims(f, 2 * d)
        assert dims == proven
        assert len(relations) == 3
        assert built == list(range(2 * d + 1))

    def test_empty_relation_list_takes_the_exact_rank(self):
        # no relation: no certificate, and linalg.rank of J_r gives the count
        for text in ["x^2*y^2 - z^4", "x^3 + y^3 + z^3"]:
            f = parse(text)
            r_max = 2 * f.degree()
            assert [syzygy_dim(f, r, []) for r in range(r_max + 1)] == hilbert_counts(f, r_max)

    @pytest.mark.parametrize("name", ["T8", "dense6"])
    def test_syzygy_command_builds_no_fraction_row(self, monkeypatch, capsys, tmp_path, name):
        # the certificates take the integer rows and the kernel vectors as
        # residues, never as Fraction rows
        def refuse(*args):
            raise AssertionError("a Fraction row was built")

        monkeypatch.setattr(linalg, "_to_rows", refuse)
        path = tmp_path / "f.poly"
        path.write_text(seed_one_input(f"syzygy-{name}"))
        assert cli.main(["syzygy", str(path)]) == 0
        per_degree = json.loads(capsys.readouterr().out)["results"]["per_degree"]
        assert all(e["dimension"] == e["expected_from_hilbert"] for e in per_degree)

    @pytest.mark.parametrize("name", ["T5", "T6", "T7", "T8", "dense5", "dense6"])
    def test_syzygy_command_needs_no_exact_elimination(self, monkeypatch, capsys, tmp_path, name):
        # J_r is eliminated once, mod p, in the certificate: neither a second
        # elimination (linalg.rank) nor the exact one is reached
        def refuse(*args):
            raise AssertionError("second elimination reached")

        monkeypatch.setattr(linalg, "_rank_exact", refuse)
        monkeypatch.setattr(linalg, "rank", refuse)
        path = tmp_path / "f.poly"
        path.write_text(seed_one_input(f"syzygy-{name}"))
        assert cli.main(["syzygy", str(path)]) == 0
        per_degree = json.loads(capsys.readouterr().out)["results"]["per_degree"]
        assert all(e["dimension"] == e["expected_from_hilbert"] for e in per_degree)


class TestQuotientCounts:
    """syz(r) through fz on S/(fx, fy) against the Hilbert count and the
    Koszul-trio certificate of J_r (``lifted_dims``).  The certificate runs
    to 3d on T3..T8 and the dense quintics only: past them it takes 2 to
    6 s per curve, while the Hilbert count stays cheap."""

    @pytest.mark.parametrize("d", range(3, 13))
    def test_chebyshev_counts(self, d):
        f = curve_polynomial(d)
        dims = quotient_syzygy_dims(f, 3 * d)
        assert dims == hilbert_counts(f, 3 * d)
        if d <= 8:
            assert dims == lifted_dims(f, 3 * d)[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_dense_counts(self, d, seed):
        workloads = bench_workloads()
        f = parse(workloads.poly_text(workloads.dense_curve(random.Random(seed), d)))
        dims = quotient_syzygy_dims(f, 3 * d)
        assert dims == hilbert_counts(f, 3 * d)
        if d == 5:
            assert dims == lifted_dims(f, 3 * d)[0]

    @pytest.mark.parametrize("text", ["x*y*z", "x^2*y", "x^2", "z*T5"])
    def test_other_inputs_keep_the_koszul_path(self, monkeypatch, text):
        # fx, fy share a factor (z for x*y*z and z*T5, x for x^2*y) or one is 0
        f = curve_polynomial(5) * parse("z") if text == "z*T5" else parse(text)
        r_max = 2 * f.degree()
        assert regular_pair_basis(f) is None
        assert quotient_syzygy_dims(f, r_max) is None
        # one certificate per degree closes, with lifts, so the exact J_r of
        # the fallback is never built
        built, certified = [], []
        matrix = syzygy.jacobian_degree_matrix
        certificate = linalg.kernel_certificate_mod_p
        monkeypatch.setattr(syzygy, "jacobian_degree_matrix", lambda g, r: built.append(r) or matrix(g, r))
        monkeypatch.setattr(
            linalg, "kernel_certificate_mod_p",
            lambda rows, kernel, p, lift=None: certified.append(1) or certificate(rows, kernel, p, lift),
        )
        assert [syzygy_dim(f, r) for r in range(r_max + 1)] == hilbert_counts(f, r_max)
        assert built == [] and len(certified) == r_max + 1

    @pytest.mark.parametrize("text", ["x*y", "x^2 + y^2 + z^2", "y^2*z - x^3 - x^2*z", "x^4 + y^4"])
    def test_regular_pairs_take_the_quotient_path(self, monkeypatch, text):
        # the conics, the nodal cubic and a cone, whose fz is 0
        f = parse(text)
        assert regular_pair_basis(f) is not None
        monkeypatch.setattr(syzygy, "jacobian_degree_matrix", refuse)
        dims = [syzygy_dim(f, r) for r in range(3 * f.degree() + 1)]
        assert dims == hilbert_counts(f, 3 * f.degree())
        assert dims == quotient_syzygy_dims(f, 3 * f.degree())

    @pytest.mark.parametrize("r", [13, 14])
    def test_default_relations_build_no_jacobian_matrix(self, monkeypatch, r):
        # these degrees of T7 lifted every missing syzygy of J_r at once,
        # and the reconstruction failed
        f = curve_polynomial(7)
        monkeypatch.setattr(syzygy, "jacobian_degree_matrix", refuse)
        assert syzygy_dim(f, r) == syzygy_dim_from_hilbert(f, r)

    @pytest.mark.parametrize("d", [7, 8])
    def test_chebyshev_kernels_close_with_no_rank(self, monkeypatch, d):
        # the kernel of degree r-1 times z and the lifted vectors prove
        # every rank of M_r, so no elimination over Q is reached
        monkeypatch.setattr(linalg, "rank", refuse)
        monkeypatch.setattr(linalg, "_rank_exact", refuse)
        f = curve_polynomial(d)
        assert quotient_syzygy_dims(f, 3 * d) == hilbert_counts(f, 3 * d)

    @pytest.mark.parametrize("d", [9, 11, 13])
    def test_odd_chebyshev_kernels_close_with_no_rank(self, monkeypatch, d):
        # at p < 2^31 the lifted kernel vectors of odd d failed to
        # reconstruct, and 9, 12 and 16 degrees took linalg.rank
        f = curve_polynomial(d)
        want = hilbert_counts(f, 2 * d)
        calls = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(1) or rank(rows))
        assert quotient_syzygy_dims(f, 2 * d) == want
        assert calls == []

    @pytest.mark.parametrize(
        "name", [f"T{d}" for d in range(3, 13)] + [f"dense{d}-{seed}" for d in (5, 6) for seed in (1, 2, 3)]
    )
    def test_standard_monomials_grow_from_the_degree_below(self, name):
        # the standard monomials of multiplication_rows, grown from the
        # degree below, against a scan of every monomial against every lead
        if name.startswith("T"):
            f = curve_polynomial(int(name[1:]))
        else:
            d, seed = map(int, name[5:].split("-"))
            workloads = bench_workloads()
            f = parse(workloads.poly_text(workloads.dense_curve(random.Random(seed), d)))
        top = 3 * f.degree()
        one = MPoly.constant(Fraction(1), 3)
        for gb in (regular_pair_basis(f), buchberger(partials(f))):
            leads = leading_ideal(gb)
            scanned = [
                [m for m in monomial_basis(r, 3) if not any(all(a <= b for a, b in zip(e, m)) for e in leads)]
                for r in range(top + 1)
            ]
            assert [list(rows) for rows in multiplication_rows(gb, one, top)] == scanned

    def test_failed_certificate_takes_the_rank_of_the_small_matrix(self, monkeypatch):
        f = curve_polynomial(5)
        proven = quotient_syzygy_dims(f, 10)
        shapes = []
        rank = linalg.rank

        def counted(rows):
            rows = list(rows)
            shapes.append(len(rows))
            return rank(rows)

        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", lambda rows, kernel, p, lift=None: None)
        monkeypatch.setattr(linalg, "rank", counted)
        assert quotient_syzygy_dims(f, 10) == proven
        # M_r has at most (d-1)^2 = 16 rows and columns
        assert len(shapes) == 11 and max(shapes) <= 16

    def test_validation(self):
        with pytest.raises(ValueError):
            quotient_syzygy_dims(curve_polynomial(4), -1)
        with pytest.raises(ValueError):
            quotient_syzygy_dims(parse("x^3 + y^2"), 2)


coeff = st.integers(-2, 2)


@st.composite
def singular_forms(draw):
    """Ternary forms of degree 2-4: products of lines and conics, some with
    a repeated factor, or binary forms (cones, with f_z = 0)."""
    x, y, z = variables(3)
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        cs = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1).filter(any))
        return sum((c * x**i * y ** (d - i) for i, c in enumerate(cs)), MPoly.zero(3))
    lines = st.tuples(coeff, coeff, coeff).filter(any)
    conics = st.tuples(*[coeff] * 6).filter(any)
    kinds = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).filter(lambda k: 2 <= sum(k) <= 4))
    factors = []
    for k in kinds:
        if k == 1:
            a, b, c = draw(lines)
            factors.append(a * x + b * y + c * z)
        else:
            a, b, c, e, g, h = draw(conics)
            factors.append(a * x * x + b * x * y + c * y * y + e * x * z + g * y * z + h * z * z)
    if sum(kinds) + kinds[0] <= 4 and draw(st.booleans()):
        factors.append(factors[0])
    f = factors[0]
    for g in factors[1:]:
        f = f * g
    return f


class TestSyzygyOracle:
    @settings(max_examples=40, deadline=None)
    @given(singular_forms())
    @example(parse("x^3 + y^3"))
    @example(parse("x^2*y"))
    @example(parse("x*y*z"))
    def test_dims_match_sympy_and_the_exact_path(self, f):
        sympy = pytest.importorskip("sympy")
        d = f.degree()
        dims, relations = lifted_dims(f, d + 1)
        for r, got in enumerate(dims):
            rows, ncols = jacobian_degree_matrix(f, r)
            dense = [[sympy.Rational(row.get(c, 0)) for c in range(ncols)] for row in rows]
            assert got == ncols - sympy.Matrix(dense).to_DM(sympy.QQ).rank()
            assert got == ncols - exact_rank(rows)
        assert all(is_syzygy(f, triple) for triple, _ in relations)

    @settings(max_examples=40, deadline=None)
    @given(singular_forms())
    @example(parse("x^2*y^2"))
    @example(parse("x^2*y + x*y^2"))
    def test_quotient_counts_match_the_exact_path(self, f):
        d = f.degree()
        dims = quotient_syzygy_dims(f, 2 * d)
        if dims is not None:
            assert dims == lifted_dims(f, 2 * d)[0]
