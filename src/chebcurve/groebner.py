"""Buchberger's algorithm over Q with product/chain pruning and reduced bases.

Internally polynomials are primitive integer term-dicts (content removed
after every reduction), which keeps the Jacobian-ideal coefficient swell of
high-degree Chebyshev curves under control.  There is one reduction loop,
``_normal_form_int``; ``normal_form`` is its rational view.  The returned
reduced basis is monic over Q and canonical, so it is independent of the
pair-selection strategy.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .linalg import primitive, strip_content
from .polyring import (
    Monomial,
    MPoly,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple[MPoly, ...]

    @cached_property
    def _primitive(self) -> list[_GPoly]:
        """The primitive integer form of each element, as ``normal_form`` reduces by."""
        return [_make_gpoly(primitive(g.terms)) for g in self.elements]


class _GPoly:
    __slots__ = ("terms", "lm", "lc")

    def __init__(self, terms: dict[Monomial, int], lm: Monomial, lc: int):
        self.terms = terms
        self.lm = lm
        self.lc = lc


def _make_gpoly(terms: dict[Monomial, int]) -> _GPoly | None:
    if not terms:
        return None
    strip_content(terms)
    lm = max(terms, key=grevlex_key)
    if terms[lm] < 0:
        terms = {m: -c for m, c in terms.items()}
    return _GPoly(terms, lm, terms[lm])


def _normal_form_int(
    terms: dict[Monomial, int], basis: list[_GPoly]
) -> tuple[dict[Monomial, int], Fraction]:
    """Full normal form of an integer term-dict against the basis.

    Returns (rem, scale): rem is scale times the remainder over Q, since
    the reduction cross-multiplies instead of dividing and strips content.
    """
    work = dict(terms)
    rem: dict[Monomial, int] = {}
    scale = Fraction(1)
    steps = 0
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        red = None
        for g in basis:
            if mono_divides(g.lm, m):
                red = g
                break
        if red is None:
            rem[m] = c
            continue
        d = gcd(c, red.lc)
        a = red.lc // d
        b = c // d
        if a < 0:
            a, b = -a, -b
        if a != 1:
            scale *= a
            for k in work:
                work[k] *= a
            for k in rem:
                rem[k] *= a
        q = mono_div(m, red.lm)
        for gm, gc in red.terms.items():
            if gm == red.lm:
                continue
            mm = mono_mul(q, gm)
            nv = work.get(mm, 0) - b * gc
            if nv:
                work[mm] = nv
            else:
                work.pop(mm, None)
        steps += 1
        if steps % 64 == 0:
            # periodic strip keeps the cross-multiplied integers small
            scale /= strip_content(work, rem)
    return rem, scale


def _s_poly(gi: _GPoly, gj: _GPoly) -> dict[Monomial, int]:
    lcm = mono_lcm(gi.lm, gj.lm)
    d = gcd(gi.lc, gj.lc)
    ci = gj.lc // d
    cj = gi.lc // d
    qi = mono_div(lcm, gi.lm)
    qj = mono_div(lcm, gj.lm)
    out: dict[Monomial, int] = {}
    for m, c in gi.terms.items():
        out[mono_mul(qi, m)] = ci * c
    for m, c in gj.terms.items():
        mm = mono_mul(qj, m)
        nv = out.get(mm, 0) - cj * c
        if nv:
            out[mm] = nv
        else:
            out.pop(mm, None)
    return out


def buchberger(generators, strategy: str = "normal") -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal the forms generate.

    Zero forms are dropped; ValueError when none is left or when the
    variable counts differ.  strategy selects the S-pair order: "normal"
    processes pairs by increasing lcm in grevlex, so degree first, "fifo"
    in creation order.  Both must and do return the same basis.
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown strategy {strategy!r}")
    generators = tuple(generators)
    if len({p.nvars for p in generators}) > 1:
        raise ValueError("generators must share a variable count")
    gens = [p for p in generators if not p.is_zero()]
    if not gens:
        raise ValueError("the ideal needs a nonzero generator")
    basis: list[_GPoly] = []
    for p in sorted(gens, key=lambda q: grevlex_key(q.leading_monomial())):
        r, _ = _normal_form_int(primitive(p.terms), basis)
        g = _make_gpoly(r)
        if g is not None:
            basis.append(g)

    pending: set[tuple[int, int]] = set()
    heap: list = []
    queue: deque = deque()

    def push_pair(i: int, j: int):
        lcm = mono_lcm(basis[i].lm, basis[j].lm)
        pending.add((i, j))
        if strategy == "normal":
            heapq.heappush(heap, (grevlex_key(lcm), i, j))
        else:
            queue.append((i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    def pop_pair():
        while True:
            if strategy == "normal":
                if not heap:
                    return None
                _, i, j = heapq.heappop(heap)
            else:
                if not queue:
                    return None
                i, j = queue.popleft()
            if (i, j) in pending:
                pending.discard((i, j))
                return i, j

    while True:
        pair = pop_pair()
        if pair is None:
            break
        i, j = pair
        gi, gj = basis[i], basis[j]
        lcm = mono_lcm(gi.lm, gj.lm)
        # product criterion: coprime leading monomials reduce to zero
        if lcm == mono_mul(gi.lm, gj.lm):
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs have already been handled
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k].lm, lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        r, _ = _normal_form_int(_s_poly(gi, gj), basis)
        g = _make_gpoly(r)
        if g is None:
            continue
        basis.append(g)
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)

    return GroebnerBasis(_reduce_basis(basis, gens[0].nvars))


def _reduce_basis(basis: list[_GPoly], nvars: int) -> tuple[MPoly, ...]:
    # minimal subset: no leading monomial divides another's
    chosen: list[_GPoly] = []
    for g in sorted(basis, key=lambda g: grevlex_key(g.lm)):
        if not any(mono_divides(h.lm, g.lm) for h in chosen):
            chosen.append(g)
    # tail-reduce every element against the others, then make monic
    reduced: list[MPoly] = []
    for idx, g in enumerate(chosen):
        others = chosen[:idx] + chosen[idx + 1 :]
        terms, _ = _normal_form_int(dict(g.terms), others)
        lm = max(terms, key=grevlex_key)
        lc = terms[lm]
        reduced.append(MPoly(nvars, {m: Fraction(c, lc) for m, c in terms.items()}))
    reduced.sort(key=lambda p: grevlex_key(p.leading_monomial()))
    return tuple(reduced)


def normal_form(p: MPoly, G: GroebnerBasis) -> MPoly:
    """Remainder of rational p on division by the basis; p minus the result
    is in the ideal.

    The primitive multiple of p is reduced against the primitive basis
    elements, built once per basis, and the remainder is scaled back.
    """
    if p.is_zero():
        return p
    terms = primitive(p.terms)
    m = next(iter(terms))
    rem, scale = _normal_form_int(terms, G._primitive)
    scale *= terms[m] / Fraction(p.terms[m])  # terms is p times this factor
    return MPoly(p.nvars, {k: c / scale for k, c in rem.items()})


def leading_ideal(G: GroebnerBasis) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the initial ideal of a reduced basis."""
    lms = sorted((g.leading_monomial() for g in G.elements), key=grevlex_key)
    return tuple(lms)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    """S-polynomial over Q, used by tests to confirm the Buchberger criterion."""
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    mf = MPoly(f.nvars, {mono_div(lcm, lf): 1 / Fraction(f.terms[lf])})
    mg = MPoly(g.nvars, {mono_div(lcm, lg): 1 / Fraction(g.terms[lg])})
    return mf * f - mg * g
