"""Seeded inputs, job lists and output checks for the chebcurve benchmark.

Every job is one `chebcurve` CLI invocation.  Inputs are written by the
benchmark from small integer polynomials built here, independently of the
program, so that the program only ever sees the generated files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

Poly = dict[tuple[int, int, int], int]

# Times in these comments were taken on a 2-CPU Intel Xeon, Python 3.11.7.
# Sizes of the generated families, all of degree 4: (lines, conics, count
# per pass) for the arrangements, and the number of line x smooth cubic
# products per pass.  From degree 5 on, the cost of one seeded
# arrangement spans 0.2 s to over 25 s (the mpoly_gcd blow-up in
# is_reduced), which no run in the time budget can average out; the blow-up
# stays in every run through the pinned BLOWUP input instead.  Coefficients
# are drawn from [-COEFF_BOUND, COEFF_BOUND]; dense curves use +-1.
# `syzygy` on dense curves stops at degree 6, because degree 7 alone takes
# 5-9 s.
ARRANGEMENT_FAMILIES = ((2, 1, 6), (4, 0, 6), (0, 2, 6))
CUBIC_PRODUCTS = 6
DENSE_HILBERT_DEGREES = range(5, 11)
DENSE_SYZYGY_DEGREES = range(5, 7)
CHEBYSHEV_PROFILE_DEGREES = range(5, 9)
VERIFY_DEGREES = range(3, 11)
COEFF_BOUND = 3

# A degree-5 line + two conics on which is_reduced's multivariate gcd
# blows up: about half of its 3 s goes to is_reduced.  Factors, as
# (a, b, c) for ax+by+cz and (a, b, c, d, e, f) for
# ax^2+bxy+cy^2+dxz+eyz+fz^2: x+y-2z, 2xy+y^2+xz+z^2, -x^2-2xy+2y^2+2yz+2z^2.
BLOWUP = ((1, 1, -2), (0, 2, 1, 1, 0, 1), (-1, -2, 2, 0, 2, 2))

# Reduced line + two conics with tau = 10 on which rational-test raises
# SingularLocusError (exit 3) for every coordinate-change seed 0..5; the
# correct verdict is all_rational or not_nodal.  It stays in the workload
# and counts as failed until the certificate handles it.
# The factors are -x+y-z, -x^2-xy+y^2-xz+yz-z^2 and -x^2-xy+y^2+xz-yz+z^2.
KNOWN_FAILURE = ((-1, 1, -1), (-1, -1, 1, -1, 1, -1), (-1, -1, 1, 1, -1, 1))


# ---------------------------------------------------------------------------
# integer ternary forms


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def poly_product(factors: list[Poly]) -> Poly:
    out: Poly = {(0, 0, 0): 1}
    for f in factors:
        out = poly_mul(out, f)
    return out


def poly_text(p: Poly) -> str:
    """Render in the CLI's input grammar, terms in descending exponent order."""
    parts = []
    for mono in sorted(p, reverse=True):
        c = p[mono]
        factors = [
            v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", mono) if e
        ]
        body = "*".join(factors)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        parts.append(("-" if c < 0 else "+") + term)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def chebyshev_curve(d: int) -> Poly:
    """T_d(x) + T_d(y), homogenized to degree d."""
    t_prev, t = [1], [0, 1]
    for _ in range(d - 1):
        nxt = [0] + [2 * c for c in t]
        for i, c in enumerate(t_prev):
            nxt[i] -= c
        t_prev, t = t, nxt
    out: Poly = {}
    for i, c in enumerate(t):
        if c:
            out[(i, 0, d - i)] = out.get((i, 0, d - i), 0) + c
            out[(0, i, d - i)] = out.get((0, i, d - i), 0) + c
    return {m: c for m, c in out.items() if c}


def _projective_key(p: Poly) -> tuple:
    """Canonical key of a form up to a nonzero scalar."""
    g = 0
    for c in p.values():
        g = gcd(g, c)
    lead = p[max(p)]
    sign = -1 if lead < 0 else 1
    return tuple(sorted((m, sign * c // g) for m, c in p.items()))


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


CONIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))


def form(coeffs: tuple[int, ...]) -> Poly:
    """A linear form from (a, b, c) or a conic from (a, b, c, d, e, f), in the
    monomial order x, y, z and x^2, xy, y^2, xz, yz, z^2."""
    monos = ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if len(coeffs) == 3 else CONIC_MONOMIALS
    return {m: v for m, v in zip(monos, coeffs) if v}


def random_line(rng: random.Random) -> Poly:
    while True:
        p = form(tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(3)))
        if p:
            return p


def random_smooth_conic(rng: random.Random) -> Poly:
    """a x^2 + b xy + c y^2 + d xz + e yz + f z^2 with nonsingular Gram matrix."""
    while True:
        coeffs = tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(6))
        a, b, c, d, e, f = coeffs
        if _det3(((2 * a, b, d), (b, 2 * c, e), (d, e, 2 * f))):
            return form(coeffs)


def random_smooth_cubic(rng: random.Random) -> Poly:
    """a L1^3 + b L2^3 + c L3^3 for independent linear forms L1, L2, L3:
    a Fermat cubic in other coordinates, hence smooth."""
    while True:
        rows = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        if _det3(rows):
            break
    out: Poly = {}
    for row in rows:
        lam = rng.choice((-2, -1, 1, 2))
        cube = poly_product([form(tuple(row))] * 3)
        for m, c in cube.items():
            v = out.get(m, 0) + lam * c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def meets_in_three_points(line: Poly, cubic: Poly) -> bool:
    """Whether the line meets the cubic in three distinct points, i.e. the
    cubic restricted to the line has a nonzero discriminant.  For a smooth
    cubic this is exactly when line x cubic is nodal."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    normal = tuple(line.get(m, 0) for m in axes)
    # two independent points of the line, among its normal x the axes
    points = [_cross(normal, axis) for axis in axes]
    p = next(v for v in points if any(v))
    q = next(v for v in points if any(_cross(p, v)))
    # binary forms in (s, t) as coefficient lists indexed by the power of s
    coords = [[q[i], p[i]] for i in range(3)]  # coordinate i at s*p + t*q

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    g = [0, 0, 0, 0]
    for mono, c in cubic.items():
        term = [c]
        for coord, e in zip(coords, mono):
            for _ in range(e):
                term = mul(term, coord)
        g = [x + y for x, y in zip(g, term)]
    d, c, b, a = g  # a s^3 + b s^2 t + c s t^2 + d t^3
    disc = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    return disc != 0


def distinct_components(rng: random.Random, makers: list[Callable]) -> list[Poly]:
    """Draw one form per maker, redrawing until no two are proportional."""
    seen: set = set()
    out = []
    for make in makers:
        while True:
            p = make(rng)
            key = _projective_key(p)
            if key not in seen:
                seen.add(key)
                out.append(p)
                break
    return out


def dense_curve(rng: random.Random, d: int) -> Poly:
    """Every monomial of degree d, with coefficient +1 or -1."""
    return {
        (a, b, d - a - b): rng.choice((-1, 1))
        for a in range(d + 1)
        for b in range(d + 1 - a)
    }


# ---------------------------------------------------------------------------
# checks: each returns None when the job's output is right, else
# ("wrong", reason) for an answer that contradicts the check or
# ("missing", reason) for no answer (unexpected exit code, no report)


def _results(rc: int, report: dict | None, exit_codes=(0,)):
    if rc not in exit_codes or report is None:
        return None, ("missing", f"exit code {rc}, expected {exit_codes[0]}")
    return report["results"], None


def check_verify(rc, report):
    # a failed item exits 1 with a report that names it
    res, err = _results(rc, report, exit_codes=(0, 1))
    if err:
        return err
    failing = [it["name"] for it in res["items"] if not it["pass"]]
    if not res["all_pass"] or failing:
        return ("wrong", f"failing items {failing}")
    return None


def _numerator_ok(num: list[int]):
    if sum(num) != 0 or sum(i * c for i, c in enumerate(num)) != 0:
        return ("wrong", "P(1) or P'(1) is nonzero")
    return None


def check_hilbert(closed_form: list[int] | None):
    def check(rc, report):
        res, err = _results(rc, report)
        if err:
            return err
        if closed_form is not None and res["numerator"] != closed_form:
            return ("wrong", "numerator differs from the closed form")
        return _numerator_ok(res["numerator"])

    return check


def check_syzygy(rc, report):
    res, err = _results(rc, report)
    if err:
        return err
    bad = [e["r"] for e in res["per_degree"] if e["dimension"] != e["expected_from_hilbert"]]
    if bad:
        return ("wrong", f"dimension differs from the Hilbert count at r={bad}")
    return None


def check_verdict(expected: str, **fields):
    def check(rc, report):
        res, err = _results(rc, report)
        if err:
            return err
        got = {k: res[k] for k in fields}
        if res["verdict"] != expected or got != fields:
            return ("wrong", f"verdict {res['verdict']} {got}, expected {expected} {fields}")
        return None

    return check


def check_rational_arrangement(rc, report):
    """Lines and smooth conics are rational: no irrational verdict, and an
    all_rational verdict has genus 0 and one node per unit of tau."""
    res, err = _results(rc, report)
    if err:
        return err
    verdict = res["verdict"]
    if verdict in ("has_irrational_component", "not_reduced"):
        return ("wrong", f"verdict {verdict} for distinct lines and smooth conics")
    if verdict == "all_rational" and (
        res["genus_sum"] != 0 or res["tau"] != res["distinct_singular_points"]
    ):
        return ("wrong", f"all_rational with {res}")
    return None


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # "{file}" stands for the job's input file
    check: Callable
    poly: str | None = None


def _closed_form_numerator(d: int) -> list[int]:
    # the paper's closed form, as the program states it
    from chebcurve.hilbert import chebyshev_milnor_numerator

    return list(chebyshev_milnor_numerator(d))


def verify_sweep(rng: random.Random) -> list[Job]:
    return [Job(f"verify-d{d}", ("verify", "-d", str(d)), check_verify) for d in VERIFY_DEGREES]


def rational_arrangements(rng: random.Random) -> list[Job]:
    def rt(name, poly, check):
        return Job(name, ("rational-test", "{file}"), check, poly)

    jobs = [
        rt(f"T{d}", poly_text(chebyshev_curve(d)), check_verdict("all_rational"))
        for d in range(4, 9)
    ]
    jobs += [
        rt("xyz", "x*y*z", check_verdict("all_rational", tau=3, dim_at_2d_minus_3=3)),
        rt("nodal-cubic", "y^2*z - x^3 - x^2*z", check_verdict("all_rational", tau=1)),
        rt(
            "line-fermat",
            "x^4 + x^3*y + x*y^3 + y^4 + x^3*z + y^3*z + x*z^3 + y*z^3 + z^4",
            check_verdict("has_irrational_component", tau=3, dim_at_2d_minus_3=4, genus_sum=1),
        ),
        rt("cusp", "z*y^2 - x^3", check_verdict("not_nodal")),
        rt("x2y", "x^2*y", check_verdict("not_reduced")),
        rt("blowup", poly_text(poly_product([form(c) for c in BLOWUP])), check_rational_arrangement),
        rt(
            "known-failure",
            poly_text(poly_product([form(c) for c in KNOWN_FAILURE])),
            check_rational_arrangement,
        ),
    ]
    for lines, conics, count in ARRANGEMENT_FAMILIES:
        makers = [random_line] * lines + [random_smooth_conic] * conics
        for i in range(count):
            f = poly_product(distinct_components(rng, makers))
            jobs.append(rt(f"{lines}l{conics}c-{i}", poly_text(f), check_rational_arrangement))
    for i in range(CUBIC_PRODUCTS):
        line, cubic = random_line(rng), random_smooth_cubic(rng)
        # a nodal product has one irrational component, of genus 1, and
        # three nodes; a tangent line makes it not nodal
        if meets_in_three_points(line, cubic):
            check = check_verdict("has_irrational_component", tau=3, genus_sum=1)
        else:
            check = check_verdict("not_nodal")
        jobs.append(rt(f"line-cubic-{i}", poly_text(poly_mul(line, cubic)), check))
    return jobs


def jacobian_profiles(rng: random.Random) -> list[Job]:
    jobs = []
    for d in CHEBYSHEV_PROFILE_DEGREES:
        text = poly_text(chebyshev_curve(d))
        jobs.append(Job(f"hilbert-T{d}", ("hilbert", "{file}"),
                        check_hilbert(_closed_form_numerator(d)), text))
        jobs.append(Job(f"syzygy-T{d}", ("syzygy", "{file}"), check_syzygy, text))
    dense = {d: poly_text(dense_curve(rng, d)) for d in DENSE_HILBERT_DEGREES}
    for d in DENSE_HILBERT_DEGREES:
        jobs.append(Job(f"hilbert-dense{d}", ("hilbert", "{file}"), check_hilbert(None), dense[d]))
    for d in DENSE_SYZYGY_DEGREES:
        jobs.append(Job(f"syzygy-dense{d}", ("syzygy", "{file}"), check_syzygy, dense[d]))
    return jobs
