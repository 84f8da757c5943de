"""Command-line surface: reports, exit codes, determinism."""

import json
import sys

import pytest

from chebcurve.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


class TestGen:
    def test_quartic_node_count(self, capsys):
        rep = run_json(capsys, "gen", "-d", "4")
        assert rep["results"]["node_count"] == 4

    def test_cubic_minus_factorization(self, capsys):
        rep = run_json(capsys, "gen", "-d", "3", "--sign", "minus")
        fact = rep["results"]["factorization"]
        assert fact["constant"] == 4
        assert fact["factors"] == ["x - y", "x^2 + x*y + y^2 - 3/4"]

    def test_degree_validation(self, capsys):
        rc, _, err = run(capsys, "gen", "-d", "2")
        assert rc == 2

    def test_text_format(self, capsys):
        rc, out, _ = run(capsys, "gen", "-d", "4", "--format", "text")
        assert rc == 0
        assert "node_count: 4" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, "gen", "-d", "4", "--out", str(target))
        assert rc == 0 and out == ""
        assert json.loads(target.read_text())["results"]["node_count"] == 4

    def test_unwritable_out_file(self, capsys, tmp_path):
        # an unwritable report path is an input error, not a failed check
        target = tmp_path / "missing" / "report.json"
        rc, out, err = run(capsys, "gen", "-d", "3", "--out", str(target))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_unwritable_out_file_after_a_read(self, capsys, quartic_file, tmp_path):
        target = tmp_path / "missing" / "report.json"
        rc, out, err = run(capsys, "hilbert", quartic_file, "--out", str(target))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "t4.poly"
    path.write_text("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4\n")
    return str(path)


class TestHilbert:
    def test_quartic_numerator(self, capsys, quartic_file):
        rep = run_json(capsys, "hilbert", quartic_file)
        assert rep["results"]["numerator"] == [1, 0, 0, -3, 0, 1, 3, -2]
        assert rep["results"]["tau"] == 4

    def test_three_axes_dims(self, capsys, tmp_path):
        path = tmp_path / "axes.poly"
        path.write_text("x*y*z")
        rep = run_json(capsys, "hilbert", str(path))
        assert rep["results"]["dims"][:5] == [1, 3, 3, 3, 3]

    def test_nonhomogeneous_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("x*y + z")
        rc, _, err = run(capsys, "hilbert", str(path))
        assert rc == 3

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("x + ^")
        rc, _, err = run(capsys, "hilbert", str(path))
        assert rc == 2
        assert "position" in err

    def test_empty_file_exit(self, capsys, tmp_path):
        path = tmp_path / "empty.poly"
        path.write_text("\n")
        rc, _, _ = run(capsys, "hilbert", str(path))
        assert rc == 2

    def test_missing_file_exit(self, capsys):
        rc, _, err = run(capsys, "hilbert", "/nonexistent/nowhere.poly")
        assert rc == 2

    def test_missing_file_message(self, capsys):
        # an unreadable file is not a parse error: no position is reported
        rc, out, err = run(capsys, "hilbert", "/nonexistent/nowhere.poly")
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot read /nonexistent/nowhere.poly: ")
        assert "position" not in err and err.count("\n") == 1

    def test_kmax_flag(self, capsys, quartic_file):
        rep = run_json(capsys, "hilbert", quartic_file, "--kmax", "15")
        assert len(rep["results"]["dims"]) == 16

    def test_negative_kmax_exit(self, capsys, quartic_file):
        rc, _, err = run(capsys, "hilbert", quartic_file, "--kmax", "-1")
        assert rc == 2
        assert "must be at least 0" in err

    def test_non_reduced_tau_is_null(self, capsys, tmp_path):
        path = tmp_path / "nr.poly"
        path.write_text("x^2*y")
        rep = run_json(capsys, "hilbert", str(path))
        assert rep["results"]["tau"] is None
        assert rep["results"]["q_polynomial"] is None

    @pytest.mark.parametrize(
        "text,proof",
        [
            ("x^4 + y^4 + z^4", "complete_intersection"),
            ("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4", "buchberger"),
            ("x*y*z", "buchberger"),
            ("x^2*y", "buchberger"),
        ],
    )
    def test_volatile_names_the_proof_and_the_stages(self, capsys, tmp_path, text, proof):
        from chebcurve import hilbert

        hilbert.milnor_profile.cache_clear()
        path = tmp_path / "f.poly"
        path.write_text(text)
        rep = run_json(capsys, "hilbert", str(path))
        assert rep["volatile"]["proof"] == proof
        assert set(rep["volatile"]["timings_ms"]) == {"parse", "profile", "total"}
        assert "proof" not in rep["results"]


class TestBudgets:
    @pytest.fixture
    def no_work(self, monkeypatch):
        from chebcurve import arrangement, hilbert, linalg, syzygy

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(hilbert, "buchberger", refuse)
        monkeypatch.setattr(hilbert, "complete_intersection_certificate", refuse)
        monkeypatch.setattr(arrangement, "buchberger", refuse)
        monkeypatch.setattr(syzygy, "buchberger", refuse)
        monkeypatch.setattr(linalg, "rank", refuse)
        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", refuse)
        hilbert.milnor_profile.cache_clear()
        syzygy.regular_pair_basis.cache_clear()

    @pytest.mark.parametrize("kmax", ["17", "100000000"])
    def test_kmax_above_4d(self, capsys, quartic_file, no_work, kmax):
        rc, out, err = run(capsys, "hilbert", quartic_file, "--kmax", kmax)
        assert rc == 3 and out == ""
        assert "--kmax must be at most 4d = 16" in err

    def test_rmax_above_3d(self, capsys, quartic_file, no_work):
        rc, out, err = run(capsys, "syzygy", quartic_file, "--rmax", "13")
        assert rc == 3 and out == ""
        assert "--rmax must be at most 3d = 12" in err

    @pytest.mark.parametrize("command", ["hilbert", "syzygy", "rational-test"])
    def test_degree_above_30(self, capsys, tmp_path, no_work, command):
        path = tmp_path / "fermat31.txt"
        path.write_text("x^31 + y^31 + z^31")
        rc, out, err = run(capsys, command, str(path))
        assert rc == 3 and out == ""
        assert err == "error: input degree must be at most 30, got 31\n"

    def test_degree_30_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "fermat30.txt"
        path.write_text("x^30 + y^30 + z^30")
        rep = run_json(capsys, "hilbert", str(path), "--kmax", "2")
        assert rep["results"]["degree"] == 30

    def test_kmax_at_the_limit(self, capsys, quartic_file):
        rep = run_json(capsys, "hilbert", quartic_file, "--kmax", "16")
        assert len(rep["results"]["dims"]) == 17


class TestSyzygy:
    def test_per_degree_dims(self, capsys, quartic_file):
        rep = run_json(capsys, "syzygy", quartic_file, "--rmax", "4")
        got = {e["r"]: e["dimension"] for e in rep["results"]["per_degree"]}
        assert got == {0: 0, 1: 0, 2: 1, 3: 6, 4: 13}
        for e in rep["results"]["per_degree"]:
            assert e["dimension"] == e["expected_from_hilbert"]

    def test_one_groebner_basis_for_all_degrees(self, capsys, monkeypatch, quartic_file):
        # every expected_from_hilbert value reads the one cached Milnor profile
        from chebcurve import hilbert

        calls = []
        buchberger = hilbert.buchberger

        def counted(*args, **kwargs):
            calls.append(args)
            return buchberger(*args, **kwargs)

        monkeypatch.setattr(hilbert, "buchberger", counted)
        hilbert.milnor_profile.cache_clear()
        rep = run_json(capsys, "syzygy", quartic_file, "--rmax", "12")
        assert len(rep["results"]["per_degree"]) == 13
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text,proof", [("x^4 + y^4 + z^4", "quotient"), ("x*y*z", "koszul"), ("x^2*y", "koszul")]
    )
    def test_volatile_names_the_proof_and_the_stages(self, capsys, tmp_path, text, proof):
        path = tmp_path / "f.poly"
        path.write_text(text)
        volatile = run_json(capsys, "syzygy", str(path))["volatile"]
        assert volatile["proof"] == proof
        assert set(volatile["timings_ms"]) == {"parse", "basis", "counts", "hilbert", "total"}

    def test_negative_rmax_exit(self, capsys, quartic_file):
        rc, out, err = run(capsys, "syzygy", quartic_file, "--rmax", "-1")
        assert rc == 2 and out == ""
        assert "must be at least 0" in err


class TestInterp:
    def test_thresholds(self, capsys):
        rep = run_json(capsys, "interp", "-d", "4")
        assert rep["results"]["max_injective_degree"] == 1
        assert rep["results"]["min_surjective_degree"] == 2

    @pytest.mark.parametrize("d", [9, 10])
    def test_verify_range(self, capsys, d):
        from chebcurve.interp import evaluation_kernel_dim

        results = run_json(capsys, "interp", "-d", str(d))["results"]
        assert (results["max_injective_degree"], results["min_surjective_degree"]) == (d - 3, d - 2)
        assert results["kernel_dims"] == [
            {"r": r, "kernel_dim": evaluation_kernel_dim(d, r)} for r in range(d + 1)
        ]

    def test_out_of_range_degree(self, capsys):
        rc, out, _ = run(capsys, "interp", "-d", "11")
        assert rc == 2 and out == ""


class TestRationalTest:
    def test_chebyshev_input(self, capsys, quartic_file):
        rep = run_json(capsys, "rational-test", quartic_file)
        assert rep["results"]["verdict"] == "all_rational"
        assert "seed" not in rep

    def test_not_reduced(self, capsys, tmp_path):
        path = tmp_path / "nr.poly"
        path.write_text("x^2*y")
        rep = run_json(capsys, "rational-test", str(path))
        assert rep["results"]["verdict"] == "not_reduced"

    def test_line_plus_cubic(self, capsys, tmp_path):
        path = tmp_path / "lc.poly"
        path.write_text("x^4 + x^3*y + x*y^3 + y^4 + x^3*z + y^3*z + x*z^3 + y*z^3 + z^4")
        rep = run_json(capsys, "rational-test", str(path))
        assert rep["results"]["verdict"] == "has_irrational_component"
        assert rep["results"]["genus_sum"] == 1

    def test_seed_flag(self, capsys, quartic_file):
        # the certificate draws nothing at random, so there is no seed to set
        rc, out, _ = run(capsys, "rational-test", quartic_file, "--seed", "5")
        assert rc == 2 and out == ""

    def test_chebyshev_sextic_file(self, capsys, tmp_path):
        from chebcurve.chebyshev import curve_polynomial
        from chebcurve.polyring import to_string

        path = tmp_path / "t6.poly"
        path.write_text(to_string(curve_polynomial(6)))
        rep = run_json(capsys, "rational-test", str(path))
        assert rep["results"]["verdict"] == "all_rational"
        assert rep["results"]["tau"] == 12

    def test_triple_point_certified(self, capsys, tmp_path):
        # the Hessian vanishes at an ordinary triple point; the radical
        # count certifies it
        path = tmp_path / "triple.poly"
        path.write_text("x^2*y - x*y^2")  # three concurrent lines
        rep = run_json(capsys, "rational-test", str(path))
        assert rep["results"]["verdict"] == "not_nodal"
        assert rep["results"]["tau"] == 4
        assert rep["results"]["distinct_singular_points"] == 1


class TestSelfCheckExit:
    """A failed internal self-check exits 1 with its own message, not 2."""

    def test_stabilization_disagreement(self, capsys, monkeypatch, quartic_file):
        import dataclasses

        import chebcurve.arrangement as arrangement
        from chebcurve.hilbert import milnor_profile

        def broken_profile(f):
            prof = milnor_profile(f)
            dims = prof.hilbert.dims[:-1] + (prof.hilbert.dims[-1] + 1,)
            return dataclasses.replace(
                prof, hilbert=dataclasses.replace(prof.hilbert, dims=dims)
            )

        monkeypatch.setattr(arrangement, "milnor_profile", broken_profile)
        rc, out, err = run(capsys, "rational-test", quartic_file)
        assert rc == 1 and out == ""
        assert "internal self-check failed" in err
        assert "stabilization at 2d-3" in err

    def test_chart_count_above_tau(self, capsys, monkeypatch, quartic_file):
        import dataclasses

        import chebcurve.arrangement as arrangement
        from chebcurve.hilbert import milnor_profile

        def low_tau(f):
            prof = milnor_profile(f)
            return dataclasses.replace(prof, tau=prof.tau - 1)

        monkeypatch.setattr(arrangement, "milnor_profile", low_tau)
        rc, out, err = run(capsys, "rational-test", quartic_file)
        assert rc == 1 and out == ""
        assert err == "error: internal self-check failed: the chart's Tjurina count exceeds the curve's\n"

    def test_relation_does_not_vanish(self, capsys, monkeypatch):
        import chebcurve.syzygy as syzygy

        divide = syzygy.divide

        def perturbed(num, divisors):
            a1, a2 = divide(num, divisors)
            return a1 + 1, a2

        monkeypatch.setattr(syzygy, "divide", perturbed)
        syzygy.nontrivial_syzygy.cache_clear()
        rc, out, err = run(capsys, "verify", "-d", "4")
        assert rc == 1 and out == ""
        assert "internal self-check failed: constructed relation does not vanish" in err

    def test_relation_division_fails(self, capsys, monkeypatch):
        # verify reads no input, so a division that fails inside the
        # relation construction is an internal fault, not an input error
        import chebcurve.syzygy as syzygy
        from chebcurve.polyring import parse

        conics = syzygy.minus_conics

        def stray_x(d):
            first, *rest = conics(d)
            return (first + parse("x", nvars=2), *rest)

        monkeypatch.setattr(syzygy, "minus_conics", stray_x)
        syzygy.nontrivial_syzygy.cache_clear()
        rc, out, err = run(capsys, "verify", "-d", "4")
        assert rc == 1 and out == ""
        assert err.startswith("error: internal self-check failed: relation construction failed: ")
        assert err.endswith("does not divide exactly\n")


class TestVerify:
    def test_quartic_all_pass(self, capsys):
        rep = run_json(capsys, "verify", "-d", "4")
        assert rep["results"]["all_pass"] is True
        names = {item["name"] for item in rep["results"]["items"]}
        assert "hilbert_numerator_matches_closed_form" in names
        assert "node_certification" in names
        assert "syzygy_resolution" in names
        assert "node_evaluation_surjective" in names

    def test_quintic_first_syzygies(self, capsys):
        rep = run_json(capsys, "verify", "-d", "5")
        assert rep["results"]["all_pass"] is True
        item = next(
            i for i in rep["results"]["items"] if i["name"] == "syzygy_resolution"
        )
        assert item["detail"]["first_syzygy_degree"] == 3
        assert item["detail"]["first_syzygy_count"] == 2

    def test_large_degree_skips_only_the_resolution(self, capsys):
        for d in ("9", "10"):
            rep = run_json(capsys, "verify", "-d", d)
            assert rep["results"]["all_pass"] is True
            names = {item["name"] for item in rep["results"]["items"]}
            assert "factorization_plus" in names
            assert "evaluation_thresholds" in names
            assert "hilbert_numerator_matches_closed_form" in names
            assert "dims_stabilize_at_node_count" in names
            assert "node_evaluation_surjective" in names
            assert "syzygy_resolution" not in names

    def test_smallest_degree(self, capsys):
        rep = run_json(capsys, "verify", "-d", "3")
        assert rep["results"]["all_pass"] is True

    def test_volatile_names_each_proof(self, capsys):
        rep = run_json(capsys, "verify", "-d", "5")
        assert rep["volatile"]["proof"] == {
            "grid_ranks": "mod_p",
            "node_ranks": "mod_p",
            "relation_certificates": {str(r): "mod_p" for r in range(3, 8)},
        }
        assert "proof" not in rep["results"]
        rep = run_json(capsys, "verify", "-d", "9")
        assert rep["volatile"]["proof"] == {"grid_ranks": "mod_p", "node_ranks": "mod_p"}

    def test_exact_fallbacks_change_only_the_proof(self, capsys, monkeypatch):
        from chebcurve import interp, linalg

        def clear():
            interp.grid_ranks.cache_clear()
            interp.node_ranks.cache_clear()

        clear()
        proven = run_json(capsys, "verify", "-d", "4")
        clear()
        residues = linalg.cosine_residues
        monkeypatch.setattr(linalg, "cosine_residues", lambda d: (residues(d)[0], (0,) * (2 * d)))
        monkeypatch.setattr(linalg, "kernel_certificate_mod_p", lambda rows, kernel, p, lift=None: None)
        try:
            exact = run_json(capsys, "verify", "-d", "4")
        finally:
            clear()
        assert exact["results"] == proven["results"]
        assert exact["volatile"]["proof"] == {
            "grid_ranks": "exact",
            "node_ranks": "exact",
            "relation_certificates": {str(r): "exact" for r in range(2, 7)},
        }

    def test_out_of_range_degree(self, capsys):
        rc, _, _ = run(capsys, "verify", "-d", "11")
        assert rc == 2

    def test_strategy_flag(self, capsys):
        # the reduced basis has one S-pair order, so there is none to pick
        rc, out, _ = run(capsys, "verify", "-d", "5", "--strategy", "fifo")
        assert rc == 2 and out == ""

    def test_one_groebner_basis(self, capsys, monkeypatch):
        # every Hilbert item reads the one Milnor profile of the curve
        from chebcurve import groebner, hilbert

        calls = []
        real = groebner.buchberger

        def counted(gens):
            calls.append(1)
            return real(gens)

        # each module that imported buchberger holds its own name for it
        for name, module in list(sys.modules.items()):
            if name.startswith("chebcurve") and hasattr(module, "buchberger"):
                monkeypatch.setattr(module, "buchberger", counted)
        hilbert.milnor_profile.cache_clear()
        rep = run_json(capsys, "verify", "-d", "5")
        assert rep["results"]["all_pass"] is True
        assert len(calls) == 1


class TestDeterminism:
    def _canonical(self, capsys, *argv):
        rep = run_json(capsys, *argv)
        rep.pop("volatile")
        return json.dumps(rep, sort_keys=True)

    def test_verify_byte_identical(self, capsys):
        runs = [self._canonical(capsys, "verify", "-d", "5") for _ in range(3)]
        assert len(set(runs)) == 1

    def test_gen_byte_identical(self, capsys):
        a = self._canonical(capsys, "gen", "-d", "6")
        b = self._canonical(capsys, "gen", "-d", "6")
        assert a == b


class TestParser:
    """One table-driven parser reads every command line; -h prints its usage."""

    # argv with its options as "--opt value", the handler and the arguments
    PARSES = [
        (["gen", "-d", "4"], "cmd_gen", {"d": 4, "sign": "plus", "format": "json", "out": None}),
        (
            ["gen", "--sign", "minus", "-d", "30", "--format", "text", "--out", "r.txt"],
            "cmd_gen",
            {"d": 30, "sign": "minus", "format": "text", "out": "r.txt"},
        ),
        (
            ["hilbert", "f.poly"],
            "cmd_hilbert",
            {"file": "f.poly", "kmax": None, "format": "json", "out": None},
        ),
        (
            ["hilbert", "--kmax", "0", "f.poly", "--out", "h.json"],
            "cmd_hilbert",
            {"file": "f.poly", "kmax": 0, "format": "json", "out": "h.json"},
        ),
        (
            ["syzygy", "f.poly", "--rmax", "12"],
            "cmd_syzygy",
            {"file": "f.poly", "rmax": 12, "format": "json", "out": None},
        ),
        (["interp", "-d", "10", "--format", "text"], "cmd_interp", {"d": 10, "format": "text", "out": None}),
        (
            ["rational-test", "--format", "json", "f.poly"],
            "cmd_rational_test",
            {"file": "f.poly", "format": "json", "out": None},
        ),
        (["verify", "-d", "3", "--out", "v.json"], "cmd_verify", {"d": 3, "format": "json", "out": "v.json"}),
    ]

    @staticmethod
    def _joined(argv):
        """The same argv with each "--opt value" written "--opt=value"."""
        out, tokens = [], iter(argv)
        for token in tokens:
            out.append(f"{token}={next(tokens)}" if token.startswith("-") else token)
        return out

    @pytest.mark.parametrize("argv,handler,values", PARSES, ids=[" ".join(p[0]) for p in PARSES])
    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_options_parse_to_their_values(self, argv, handler, values, form):
        from chebcurve import cli

        func, args = cli.parse_args(argv if form == "space" else self._joined(argv))
        assert func is getattr(cli, handler)
        assert vars(args) == values

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]])
    def test_top_level_help(self, capsys, argv):
        from chebcurve.cli import COMMANDS

        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        for command in COMMANDS:
            assert f"usage: chebcurve {command}" in out

    @pytest.mark.parametrize(
        "command,options",
        [
            ("gen", ["-d", "--sign", "--format", "--out"]),
            ("hilbert", ["FILE", "--kmax", "--format", "--out"]),
            ("syzygy", ["FILE", "--rmax", "--format", "--out"]),
            ("interp", ["-d", "--format", "--out"]),
            ("rational-test", ["FILE", "--format", "--out"]),
            ("verify", ["-d 3..10", "--format json|text", "--out"]),
        ],
    )
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help(self, capsys, command, options, flag):
        rc, out, err = run(capsys, command, flag)
        assert rc == 0 and err == ""
        assert out.startswith(f"usage: chebcurve {command} ")
        assert all(option in out for option in options)
        assert "usage: chebcurve" not in out[1:]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            [],
            ["gen", "-d", "4", "--bogus", "1"],
            ["gen", "-d", "4", "--km", "3"],
            ["hilbert", "f.poly", "--km", "3"],
            ["verify"],
            ["verify", "-d"],
            ["gen", "-d", "4", "--format", "xml"],
            ["hilbert", "f.poly", "--kmax=x"],
            ["verify", "-d", "11"],
            ["rational-test"],
            ["rational-test", "a.poly", "b.poly"],
            ["interp", "-d", "5", "extra"],
        ],
        ids=lambda argv: " ".join(argv) or "empty",
    )
    def test_malformed_argv_exits_2_with_one_error_line(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_rational_test_does_not_import_argparse(self, tmp_path):
        import os
        import subprocess
        from pathlib import Path

        path = tmp_path / "t4.poly"
        path.write_text("8*x^4+8*y^4-8*x^2*z^2-8*y^2*z^2+2*z^4\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys; from chebcurve import cli; "
            f"rc = cli.main(['rational-test', {str(path)!r}, '--out', {str(tmp_path / 'r.json')!r}]); "
            "print(rc, 'argparse' in sys.modules)"
        )
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.stdout == "0 False\n", done.stderr
