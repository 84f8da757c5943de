"""Command-line interface with deterministic JSON and text reports.

Exit codes: 0 success, 1 verification failure (a failed verify item or
a failed internal self-check), 2 input error (including an unreadable
input file, an unwritable --out path and a -d outside its range: 3..30
for gen, 3..10 for verify and interp), 3 precondition violation
(including an input of degree above 30, and --kmax above 4d or --rmax
above 3d for an input of degree d).
verify runs every item at each degree 3..10 except syzygy_resolution, the
graded resolution, which it runs for degrees up to 8.
Reports are canonical: keys sorted, integers exact, rationals as "p/q"
strings, field elements as coefficient arrays with their minimal
polynomial; timings, and the proof that gave the syzygy counts (quotient
or koszul), the Hilbert numerator (complete_intersection or buchberger)
or verify's evaluation ranks and relation certificates (mod_p or exact),
live under the volatile key so the rest of the payload is byte-stable.

``parse_args`` reads argv from one table, COMMANDS, which also gives the
-h usage.  Options take their exact names, as --opt value or --opt=value,
before or after the file; any other malformed argv writes one error line
to stderr, nothing to stdout, and exits 2.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import upoly
from .arrangement import rationality_test
from .chebyshev import build, curve_polynomial, verify_nodes
from .hilbert import chebyshev_milnor_numerator, expected_node_count, milnor_profile
from .interp import (
    evaluation_kernel_dim,
    evaluation_thresholds,
    grid_ranks,
    node_evaluation_surjective,
    node_ranks,
)
from .numberfield import AlgNum, SelfCheckError
from .polyring import MPoly, ParseError, parse, to_string
from .syzygy import (
    koszul_relations,
    quotient_syzygy_dims,
    regular_pair_basis,
    syzygy_dim,
    syzygy_dim_from_hilbert,
    verify_resolution,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3

VERIFY_MAX_D = 10
# largest verify -d that runs syzygy_resolution
RESOLUTION_MAX_D = 8
# largest degree of gen -d and of the hilbert, syzygy and rational-test input
MAX_INPUT_DEGREE = 30
# largest --kmax and --rmax, as multiples of the input degree d
KMAX_PER_DEGREE = 4
RMAX_PER_DEGREE = 3


def _encode(value):
    """Map report values onto JSON-serializable primitives, canonically."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, AlgNum):
        return {
            "coeffs": [_encode(c) for c in value.coeffs],
            "minpoly": [_encode(c) for c in value.field.minpoly],
        }
    if isinstance(value, MPoly):
        return to_string(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _render_text(value, indent: int = 0, out=None) -> list[str]:
    lines = out if out is not None else []
    pad = "  " * indent
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render_text(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, inputs: dict, results: dict, timings=None) -> dict:
    return {
        "command": command,
        "inputs": _encode(inputs),
        "results": _encode(results),
        "volatile": {"timings_ms": timings or {}},
    }


def _read_poly(path: str) -> MPoly:
    with open(path) as fh:
        return parse(fh.read().strip(), nvars=3)


def _point(pt) -> list:
    return [pt[0], pt[1]]


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    data = build(args.d)
    constant, factors = (
        data.plus_factorization if args.sign == "plus" else data.minus_factorization
    )
    results = {
        "d": args.d,
        "chebyshev": upoly.to_string(data.chebyshev, var="x"),
        "plus_curve": data.plus_curve,
        "minus_curve": data.minus_curve,
        "projective_curve": data.projective_curve,
        "field_minpoly": list(data.field.minpoly),
        "critical_points": list(data.critical_points),
        "plus_nodes": [_point(p) for p in data.plus_nodes],
        "minus_nodes": [_point(p) for p in data.minus_nodes],
        "node_count": len(data.plus_nodes),
        "factorization": {
            "sign": args.sign,
            "constant": constant,
            "factors": list(factors),
        },
    }
    timings = {"total": round((time.perf_counter() - t0) * 1000.0, 3)}
    _emit(_report("gen", {"d": args.d, "sign": args.sign}, results, timings=timings), args)
    return EXIT_OK


def _refused(f: MPoly, min_degree: int) -> bool:
    """Report an input that is not a form of degree min_degree..MAX_INPUT_DEGREE."""
    if f.is_zero() or not f.is_homogeneous() or f.degree() < min_degree:
        sys.stderr.write(f"error: input must be homogeneous of degree >= {min_degree}\n")
    elif f.degree() > MAX_INPUT_DEGREE:
        sys.stderr.write(f"error: input degree must be at most {MAX_INPUT_DEGREE}, got {f.degree()}\n")
    else:
        return False
    return True


def _over_budget(flag: str, value: int | None, per_degree: int, d: int) -> bool:
    """Report a --kmax or --rmax above per_degree * d, before any work."""
    limit = per_degree * d
    if value is None or value <= limit:
        return False
    sys.stderr.write(f"error: {flag} must be at most {per_degree}d = {limit} for degree {d}\n")
    return True


def cmd_hilbert(args) -> int:
    t0 = time.perf_counter()
    f = _read_poly(args.file)
    if _refused(f, 2) or _over_budget("--kmax", args.kmax, KMAX_PER_DEGREE, f.degree()):
        return EXIT_PRECONDITION
    t1 = time.perf_counter()
    prof = milnor_profile(f, kmax=args.kmax)
    t2 = time.perf_counter()
    results = {
        "degree": prof.d,
        "numerator": list(prof.hilbert.numerator),
        "dims": list(prof.hilbert.dims),
        "tau": prof.tau,
        "stabilized_value": prof.hilbert.stabilized_value,
        "stabilized_from": prof.hilbert.stabilized_from,
        "q_polynomial": list(prof.q_polynomial) if prof.q_polynomial is not None else None,
    }
    timings = {
        "parse": round((t1 - t0) * 1000.0, 3),
        "profile": round((t2 - t1) * 1000.0, 3),
        "total": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    report = _report("hilbert", {"file": args.file, "kmax": args.kmax}, results, timings=timings)
    report["volatile"]["proof"] = prof.proof
    _emit(report, args)
    return EXIT_OK


def cmd_syzygy(args) -> int:
    t0 = time.perf_counter()
    f = _read_poly(args.file)
    if _refused(f, 2) or _over_budget("--rmax", args.rmax, RMAX_PER_DEGREE, f.degree()):
        return EXIT_PRECONDITION
    r_max = args.rmax if args.rmax is not None else 2 * f.degree()
    t1 = time.perf_counter()
    proof = "koszul" if regular_pair_basis(f) is None else "quotient"
    t2 = time.perf_counter()
    dims = quotient_syzygy_dims(f, r_max)
    if dims is None:
        # syzygies lifted at one degree prove the next ones through their multiples
        relations = koszul_relations(f)
        dims = [syzygy_dim(f, r, relations) for r in range(r_max + 1)]
    t3 = time.perf_counter()
    expected = [syzygy_dim_from_hilbert(f, r) for r in range(r_max + 1)]
    t4 = time.perf_counter()
    per_degree = [
        {"r": r, "dimension": got, "expected_from_hilbert": want}
        for r, (got, want) in enumerate(zip(dims, expected))
    ]
    results = {"degree": f.degree(), "per_degree": per_degree}
    timings = {
        "parse": round((t1 - t0) * 1000.0, 3),
        "basis": round((t2 - t1) * 1000.0, 3),
        "counts": round((t3 - t2) * 1000.0, 3),
        "hilbert": round((t4 - t3) * 1000.0, 3),
        "total": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    report = _report("syzygy", {"file": args.file, "rmax": r_max}, results, timings=timings)
    report["volatile"]["proof"] = proof
    _emit(report, args)
    return EXIT_OK


def cmd_interp(args) -> int:
    t0 = time.perf_counter()
    max_inj, min_surj = evaluation_thresholds(args.d)
    kernel = [{"r": r, "kernel_dim": evaluation_kernel_dim(args.d, r)} for r in range(args.d + 1)]
    results = {
        "d": args.d,
        "max_injective_degree": max_inj,
        "min_surjective_degree": min_surj,
        "kernel_dims": kernel,
    }
    timings = {"total": round((time.perf_counter() - t0) * 1000.0, 3)}
    _emit(_report("interp", {"d": args.d}, results, timings=timings), args)
    return EXIT_OK


def cmd_rational_test(args) -> int:
    t0 = time.perf_counter()
    f = _read_poly(args.file)
    if _refused(f, 3):
        return EXIT_PRECONDITION
    rep = rationality_test(f)
    results = {
        "degree": rep.degree,
        "verdict": rep.verdict,
        "tau": rep.tau,
        "distinct_singular_points": rep.distinct_singular_points,
        "dim_at_2d_minus_3": rep.dim_at_2d_minus_3,
        "genus_sum": rep.genus_sum,
    }
    timings = {"total": round((time.perf_counter() - t0) * 1000.0, 3)}
    _emit(_report("rational-test", {"file": args.file}, results, timings=timings), args)
    return EXIT_OK


def _verify_items(d: int, timings: dict, proof: dict) -> list[dict]:
    items = []
    clock = time.perf_counter()

    def item(name: str, ok: bool, detail: dict | None = None):
        nonlocal clock
        items.append({"name": name, "pass": bool(ok), "detail": detail or {}})
        now = time.perf_counter()
        timings[name] = round((now - clock) * 1000.0, 3)
        clock = now

    data = build(d)
    nv = verify_nodes(d)
    item(
        "node_certification",
        nv.ok and nv.points_checked == expected_node_count(d),
        {"points_checked": nv.points_checked, "failures": [list(f) for f in nv.failures]},
    )
    for sign in ("plus", "minus"):
        constant, factors = data.plus_factorization if sign == "plus" else data.minus_factorization
        prod = MPoly.constant(Fraction(1), 2)
        for p in factors:
            prod = prod * p
        prod = prod * constant
        target = (data.plus_curve if sign == "plus" else data.minus_curve).map_coefficients(
            data.field.from_rational
        )
        item(
            f"factorization_{sign}",
            prod == target,
            {"constant": _encode(Fraction(constant)), "factor_count": len(factors)},
        )
    if d % 2 == 1:
        mirrored = MPoly(2, {(a, b): c * (-1) ** b for (a, b), c in data.plus_curve.terms.items()})
        item("plus_minus_mirror", mirrored == data.minus_curve, {})
    thresholds = evaluation_thresholds(d)
    item(
        "evaluation_thresholds",
        thresholds == (d - 3, d - 2),
        {"got": list(thresholds), "expected": [d - 3, d - 2]},
    )
    proof["grid_ranks"] = grid_ranks(d).proof

    prof = milnor_profile(curve_polynomial(d))
    numerator = prof.hilbert.numerator
    closed = chebyshev_milnor_numerator(d)
    item(
        "hilbert_numerator_matches_closed_form",
        numerator == closed,
        {"computed": list(numerator), "closed_form": list(closed)},
    )
    window = prof.dims[2 * d - 3 :]
    item(
        "dims_stabilize_at_node_count",
        all(v == expected_node_count(d) for v in window),
        {"window_start": 2 * d - 3, "dims": list(window)},
    )
    if d <= RESOLUTION_MAX_D:
        res = verify_resolution(d)
        item(
            "syzygy_resolution",
            res.ok,
            {
                "first_syzygy_degree": res.first_syzygy_degree,
                "first_syzygy_count": res.first_syzygy_count,
                "checked_degrees": len(res.syzygy_checks),
            },
        )
        proof["relation_certificates"] = {c.r: q for c, q in zip(res.rank_checks, res.rank_proofs)}
    item("node_evaluation_surjective", node_evaluation_surjective(d), {})
    proof["node_ranks"] = node_ranks(d).proof
    return items


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    proof: dict = {}
    items = _verify_items(args.d, timings, proof)
    all_pass = all(it["pass"] for it in items)
    results = {"d": args.d, "items": items, "all_pass": all_pass}
    timings["total"] = round((time.perf_counter() - t0) * 1000.0, 3)
    report = _report("verify", {"d": args.d}, results, timings=timings)
    report["volatile"]["proof"] = proof
    _emit(report, args)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def _arg(lo: int = 0, hi: int | None = None, choices: tuple[str, ...] = ()):
    """An option's converter, to one of choices or else to an int in lo..hi, and its usage."""
    usage = "|".join(choices) or (f"{lo}..{hi}" if hi is not None else "N")
    rule = f"one of {usage}" if choices else f"at least {lo}" if hi is None else f"in {usage}"

    def check(name: str, text: str):
        if text in choices:
            return text
        try:
            v = None if choices else int(text)
        except ValueError:
            v = None
        if v is None or v < lo or (hi is not None and v > hi):
            raise ValueError(f"{name} must be {rule}, got {text!r}")
        return v

    return check, usage


_REQUIRED = object()
_FILE = {"file": (None, "FILE", _REQUIRED)}
_COMMON = {"--format": (*_arg(choices=("json", "text")), "json"), "--out": (None, "FILE", None)}
_DEGREE = {"-d": (*_arg(3, VERIFY_MAX_D), _REQUIRED)}
# command -> (handler, summary, {argument: (converter or None for text, usage, default)});
# "file" is positional, and every command also takes the _COMMON options
COMMANDS = {
    "gen": (cmd_gen, "emit curve data and factorizations", {
        "-d": (*_arg(3, MAX_INPUT_DEGREE), _REQUIRED),
        "--sign": (*_arg(choices=("plus", "minus")), "plus"),
    }),
    "hilbert": (cmd_hilbert, "Milnor algebra Hilbert data of a polynomial file",
                {**_FILE, "--kmax": (*_arg(), None)}),
    "syzygy": (cmd_syzygy, "per-degree syzygy dimensions of a polynomial file",
               {**_FILE, "--rmax": (*_arg(), None)}),
    "interp": (cmd_interp, "node-grid evaluation thresholds", _DEGREE),
    "rational-test": (cmd_rational_test, "rational-arrangement certificate of a curve file", _FILE),
    "verify": (cmd_verify, "run the full verification bundle for degree d", _DEGREE),
}


def usage(*commands: str) -> str:
    """The -h text of the commands, read from COMMANDS."""
    lines = []
    for command in commands:
        words = ["usage: chebcurve", command]
        _, summary, options = COMMANDS[command]
        for name, (_, text, default) in {**options, **_COMMON}.items():
            word = text if name == "file" else f"{name} {text}"
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines += [" ".join(words), f"    {summary}"]
    return "\n".join(lines + ["", "An option also reads as --option=value."]) + "\n"


def parse_args(argv: list[str]):
    """(handler, arguments) for argv, or the usage text when argv holds -h or --help;
    ValueError, with the text of the error line, when argv is malformed."""
    command, *tokens = argv or [""]
    if "-h" in argv or "--help" in argv:
        return usage(command) if command in COMMANDS else usage(*COMMANDS)
    if command not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    func, _, options = COMMANDS[command]
    options = {**options, **_COMMON}
    values = {name: spec[2] for name, spec in options.items()}
    tokens = iter(tokens)
    for token in tokens:
        positional = token[:1] != "-" or token == "-"
        name, eq, value = ("file", "=", token) if positional else token.partition("=")
        if name not in options or (positional and values[name] is not _REQUIRED):
            raise ValueError(f"unexpected argument {token!r} for {command}")
        if (value := value if eq else next(tokens, None)) is None:
            raise ValueError(f"{name} expects a value")
        convert = options[name][0]
        values[name] = convert(name, value) if convert else value
    if missing := [name for name, v in values.items() if v is _REQUIRED]:
        raise ValueError(f"{command} needs {missing[0]}")
    return func, SimpleNamespace(**{name.lstrip("-"): v for name, v in values.items()})


def main(argv=None) -> int:
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    if isinstance(parsed, str):
        sys.stdout.write(parsed)
        return EXIT_OK
    func, args = parsed
    try:
        return func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except SelfCheckError as exc:
        sys.stderr.write(f"error: internal self-check failed: {exc}\n")
        return EXIT_VERIFY_FAILED
    except OSError as exc:
        # the input file is read before the report is written
        if exc.filename is not None and exc.filename == getattr(args, "file", None):
            sys.stderr.write(f"error: cannot read {exc.filename}: {exc.strerror}\n")
        else:
            sys.stderr.write(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}\n")
        return EXIT_INPUT_ERROR
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
