"""Buchberger's algorithm over Q with product/chain pruning and reduced bases.

Internally polynomials are primitive integer term-dicts (content removed
after every reduction), which keeps the Jacobian-ideal coefficient swell of
high-degree Chebyshev curves under control.  There is one reduction loop,
``_normal_form_int``; ``normal_form`` is its rational view.  The returned
reduced basis is monic over Q and canonical: it depends on the ideal, not
on the order in which S-pairs are reduced.

Inside the loop a monomial is one int, the negated ``grevlex_pack``: a
monomial product is an int sum, and the smallest key is the grevlex-largest
monomial, so the leading term of the work is popped from a heap (heapq is
a min-heap, hence the negation).  A
two-variable monomial packs as itself times z^0.  Divisibility is tested on
the three unpacked exponents against each basis element's leading exponents.
Every packed monomial has degree below 2^GREVLEX_WIDTH: the inputs and each
S-pair lcm are packed by ``grevlex_pack``, which raises ValueError past that
width, and no reduction step raises the degree.  Tuples stay at the
boundary: the basis elements, ``normal_form`` and ``leading_ideal`` speak
``MPoly`` and exponent tuples.

For s <= n nonzero homogeneous generators of degrees e_1..e_s in n
variables, ``buchberger`` drops every S-pair of a degree k that its basis
so far already proves complete (Traverso, "Hilbert functions and the
Buchberger algorithm", JSC 1996), with CI_k the coefficient of t^k in
prod (1 - t^e_i) / (1 - t)^n:

- the rank of a Macaulay matrix is largest on a Zariski-open set of
  coefficients, and generic forms of these degrees are a regular sequence
  with Hilbert function CI; so HF(S/I)_k >= CI_k for every such input,
  zero or dependent generators included;
- LT(G) lies in LT(I), so dim (S/LT(G))_k >= HF(S/I)_k;
- so once the standard monomials of degree k number CI_k, LT(G)_k =
  LT(I)_k, and a nonzero remainder of a degree-k S-pair, an element of
  I_k whose leading term is not in LT(G), cannot exist: every such pair
  reduces to zero and is dropped, as the chain criterion drops one.

Any other input (non-homogeneous charts, more than n generators, degrees
that miss the bound) keeps every pair, and the reduced basis is the same
either way, since a dropped pair adds nothing.

``complete_intersection_certificate`` proves from one basis mod the p of
``linalg.residue_map``, with no assumption on p, that such forms meet the
bound in every degree.  Let M_k be the degree-k Macaulay matrix of the
forms with denominators cleared, whose images are the residues up to units:

- HF_Q(k) = dim S_k - rank_Q M_k and HF_p(k) = dim S_k - rank_p (M_k mod p);
  reducing mod p can only lower a rank, so HF_Q(k) <= HF_p(k) for every
  prime, one that divides a leading coefficient or kills a form included;
- with the bound above, CI_k <= HF_Q(k) <= HF_p(k); so HF_p = CI in every
  degree gives HF_Q = CI, and the Hilbert numerator of S/I over Q is
  prod (1 - t^e_i) exactly.

The run mod p shares the pair loop and its skip, which holds over F_p as
well: a Macaulay rank at any point is at most the generic rank over the
algebraic closure, where generic forms are again a regular sequence, so
HF_p(k) >= CI_k.  Pairs are reduced degree by degree, so once degree k
closes its standard monomials number HF_p(k), and the run stops at the
first degree that closes above CI_k.  Any outcome short of HF_p = CI (a
singular or non-reduced curve, an unlucky prime) proves nothing and is
answered None, and the caller computes the exact basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from math import gcd

from . import upoly
from .linalg import primitive, residue_map, residues, strip_content
from .polyring import (
    Monomial,
    MPoly,
    grevlex_key,
    grevlex_pack,
    grevlex_unpack,
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
        return [_make_gpoly(_packed(primitive(g.terms))) for g in self.elements]

    @cached_property
    def z_free(self) -> bool:
        """Whether no leading monomial involves z, the last grevlex
        variable; then z is a non-zero-divisor on S/I (Bayer & Stillman,
        Invent. Math. 1987) and z times a standard monomial is standard."""
        return all(not g.exps[2] for g in self._primitive)


def _packed(terms: dict[Monomial, int]) -> dict[int, int]:
    return {-grevlex_pack(m): c for m, c in terms.items()}


def _exponents(k: int) -> Monomial:
    """The three exponents of a packed key, z's 0 for two variables."""
    return grevlex_unpack(-k, 3)


class _GPoly:
    """A primitive basis element with positive leading coefficient.

    terms maps packed keys to ints; key, exps and lc describe the leading
    term, and tail lists the other terms as (key, coefficient) pairs.
    """

    __slots__ = ("terms", "key", "exps", "lc", "tail")

    def __init__(self, terms: dict[int, int], key: int):
        self.terms = terms
        self.key = key
        self.exps = _exponents(key)
        self.lc = terms[key]
        self.tail = [(k, c) for k, c in terms.items() if k != key]


def _make_gpoly(terms: dict[int, int]) -> _GPoly | None:
    if not terms:
        return None
    strip_content(terms)
    key = min(terms)
    if terms[key] < 0:
        terms = {k: -c for k, c in terms.items()}
    return _GPoly(terms, key)


def _normal_form_int(terms: dict[int, int], basis: list[_GPoly], scaled: bool = False):
    """Full normal form of a packed integer term-dict against the basis.

    Returns rem, a multiple of the remainder over Q, since the reduction
    cross-multiplies instead of dividing and strips content; with scaled,
    returns (rem, scale) with rem = scale times that remainder.  Only
    ``normal_form`` needs the scale, so the loop keeps it only when asked.
    rem lists its terms from the largest down.  The term reduced next is
    the largest one in the work, and its reducer is the first basis element
    whose leading monomial divides it.  A term that cancels stays in the
    work as a zero until the heap reaches it, so each key enters the heap
    once; no reduction step brings back a key it has passed.
    """
    work = dict(terms)
    heap = list(work)
    heapify(heap)
    lead = [(g, *g.exps) for g in basis]
    rem: dict[int, int] = {}
    scale = Fraction(1) if scaled else None
    steps = 0
    while heap:
        m = heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        e0, e1, e2 = _exponents(m)
        for red, a0, a1, a2 in lead:
            if a0 <= e0 and a1 <= e1 and a2 <= e2:
                break
        else:
            rem[m] = c
            continue
        d = gcd(c, red.lc)
        a = red.lc // d
        b = c // d
        if a < 0:
            a, b = -a, -b
        if a != 1:
            if scaled:
                scale *= a
            for k in work:
                work[k] *= a
            for k in rem:
                rem[k] *= a
        q = m - red.key
        for gm, gc in red.tail:
            mm = q + gm
            nv = work.get(mm)
            if nv is None:
                work[mm] = -b * gc
                heappush(heap, mm)
            else:
                work[mm] = nv - b * gc
        steps += 1
        if steps % 4 == 0:
            # periodic strip keeps the cross-multiplied integers small; on
            # dense Jacobians every 2 to 4 steps beats every 64 by a quarter
            content = strip_content(work, rem)
            if scaled:
                scale /= content
    return (rem, scale) if scaled else rem


def _s_poly(gi: _GPoly, gj: _GPoly, lcm: Monomial) -> dict[int, int]:
    key = -grevlex_pack(lcm)
    d = gcd(gi.lc, gj.lc)
    ci = gj.lc // d
    cj = gi.lc // d
    qi = key - gi.key
    qj = key - gj.key
    # the leading terms cancel: ci * lc_i == cj * lc_j
    out = {qi + m: ci * c for m, c in gi.tail}
    for m, c in gj.tail:
        mm = qj + m
        nv = out.get(mm, 0) - cj * c
        if nv:
            out[mm] = nv
        else:
            out.pop(mm, None)
    return out


def _complete_intersection_numerator(gens):
    """Numerator of the complete-intersection series prod (1 - t^e_i) / (1 - t)^n
    of the forms' degrees, or None when the forms are not homogeneous or
    outnumber the n variables, where it bounds nothing."""
    nvars = gens[0].nvars
    if len(gens) > nvars or not all(p.is_homogeneous() for p in gens):
        return None
    numerator = (1,)
    for p in gens:
        numerator = upoly.mul(numerator, upoly.sub((1,), upoly.shift((1,), p.degree())))
    return numerator


def _standard_count(leads, k: int, nvars: int) -> int:
    """Monomials of degree k that no leading exponent triple divides.

    For each x-exponent a, the y-exponents b whose monomial a lead e
    divides form the interval e1 <= b <= k - a - e2 (z takes the rest; in
    two variables b is k - a), so the count is a union of intervals per a,
    merged in the order of e1.
    """
    live = sorted((e1, e0, e2) for e0, e1, e2 in leads if e0 + e1 + e2 <= k)
    count = 0
    for a in range(k + 1):
        top = k - a
        low = top if nvars == 2 else 0
        covered, reach = 0, low - 1
        for e1, e0, e2 in live:
            hi = top - e2
            if e0 <= a and e1 <= hi > reach:
                covered += hi - max(e1, reach + 1) + 1
                reach = hi
        count += top - low + 1 - covered
    return count


def _nonzero_forms(generators) -> list[MPoly]:
    """The nonzero forms, by increasing leading monomial; ValueError when
    none is left or when the variable counts differ."""
    generators = tuple(generators)
    if len({p.nvars for p in generators}) > 1:
        raise ValueError("generators must share a variable count")
    gens = [p for p in generators if not p.is_zero()]
    if not gens:
        raise ValueError("the ideal needs a nonzero generator")
    return sorted(gens, key=lambda q: grevlex_key(q.leading_monomial()))


def _pair_loop(forms, nvars: int, numerator, reduce, make, stop: bool = False):
    """Buchberger's S-pair loop over one coefficient domain.

    forms are packed term-dicts; reduce(terms, basis) is a full normal form
    and make(remainder) the basis element it gives, None for zero.  Pairs
    are popped by increasing lcm in grevlex, so degree first; with the
    complete-intersection numerator, every pair of a degree k whose
    standard monomials already number CI_k is dropped (the proof is in the
    module docstring): the count is taken once when degree k opens and
    falls by one with each element that degree adds.  With stop, the loop
    returns None as soon as a degree closes with more standard monomials
    than CI_k.  Returns the (unreduced) basis.
    """
    basis: list[_GPoly] = []
    for terms in forms:
        g = make(reduce(terms, basis))
        if g is not None:
            basis.append(g)

    # every pair enters the heap once and leaves pending when it is popped
    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pair(i: int, j: int):
        pending.add((i, j))
        heappush(heap, (grevlex_key(mono_lcm(basis[i].exps, basis[j].exps)), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    ci: list[int] = []
    degree = gap = -1  # the open degree, and its standard monomials past CI_degree

    while heap:
        (deg, _), i, j = heappop(heap)
        pending.remove((i, j))
        gi, gj = basis[i], basis[j]
        lcm = mono_lcm(gi.exps, gj.exps)
        # product criterion: coprime leading monomials reduce to zero
        if lcm == mono_mul(gi.exps, gj.exps):
            continue
        if numerator is not None:
            if deg != degree:
                # every pair of the open degree is done: it closes
                if stop and gap > 0:
                    return None
                if deg >= len(ci):
                    from .hilbert import series_dims  # hilbert imports this module

                    ci = series_dims(numerator, 2 * deg, nvars)
                degree = deg
                gap = _standard_count([g.exps for g in basis], deg, nvars) - ci[deg]
            # LT(G) = LT(I) in this degree: its pairs all reduce to zero
            if not gap:
                continue
        # chain criterion: a third element divides the lcm and both side
        # pairs have already been handled
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k].exps, lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        g = make(reduce(_s_poly(gi, gj, lcm), basis))
        if g is None:
            continue
        basis.append(g)
        gap -= 1  # g's leading monomial was standard, of the open degree
        new = len(basis) - 1
        for k in range(new):
            push_pair(k, new)
    return basis


def buchberger(generators) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal the forms generate.

    Zero forms are dropped; ValueError when none is left or when the
    variable counts differ.  Runs ``_pair_loop`` on the primitive integer
    forms, with the complete-intersection skip for s <= n homogeneous forms.
    """
    gens = _nonzero_forms(generators)
    forms = [_packed(primitive(p.terms)) for p in gens]
    nvars = gens[0].nvars
    numerator = _complete_intersection_numerator(gens)
    basis = _pair_loop(forms, nvars, numerator, _normal_form_int, _make_gpoly)
    return GroebnerBasis(_reduce_basis(basis, nvars))


def _make_monic(terms: dict[int, int], p: int) -> _GPoly | None:
    """The monic basis element mod p of a reduced, zero-free remainder."""
    if not terms:
        return None
    key = min(terms)
    inverse = pow(terms[key], -1, p)
    return _GPoly({k: c * inverse % p for k, c in terms.items()}, key)


def _normal_form_mod(terms: dict[int, int], basis: list[_GPoly], p: int) -> dict[int, int]:
    """Full normal form mod p against monic elements: the loop of
    ``_normal_form_int`` with no cross-multiplication, gcd or content strip.
    A work value is reduced mod p only when the heap pops its key."""
    work = dict(terms)
    heap = list(work)
    heapify(heap)
    lead = [(g, *g.exps) for g in basis]
    rem: dict[int, int] = {}
    while heap:
        m = heappop(heap)
        c = work.pop(m) % p
        if not c:
            continue
        e0, e1, e2 = _exponents(m)
        for red, a0, a1, a2 in lead:
            if a0 <= e0 and a1 <= e1 and a2 <= e2:
                break
        else:
            rem[m] = c
            continue
        q = m - red.key
        for gm, gc in red.tail:
            mm = q + gm
            nv = work.get(mm)
            if nv is None:
                work[mm] = -c * gc
                heappush(heap, mm)
            else:
                work[mm] = nv - c * gc
    return rem


def complete_intersection_certificate(generators) -> tuple[int, ...] | None:
    """prod (1 - t^e_i), the Hilbert numerator of S/I for the ideal of the
    forms, when one basis mod p proves that the nonzero forms, of degrees
    e_i, meet the complete-intersection bound in every degree; else None,
    which proves nothing (see the module docstring), as is a coefficient
    with no image mod p.  Takes the forms ``buchberger`` takes.
    """
    gens = _nonzero_forms(generators)
    numerator = _complete_intersection_numerator(gens)
    if numerator is None:
        return None
    p, image = residue_map(None)
    forms = [residues(_packed(g.terms), image) for g in gens]
    if None in forms:
        return None
    reduce, make = partial(_normal_form_mod, p=p), partial(_make_monic, p=p)
    basis = _pair_loop([t for t in forms if t], gens[0].nvars, numerator, reduce, make, stop=True)
    if basis is None:
        return None
    from .hilbert import hilbert_numerator  # hilbert imports this module

    return numerator if hilbert_numerator([g.exps for g in basis]) == numerator else None


def _reduce_basis(basis: list[_GPoly], nvars: int) -> tuple[MPoly, ...]:
    # minimal subset, from the smallest leading monomial up: no leading
    # monomial divides another's
    chosen: list[_GPoly] = []
    for g in sorted(basis, key=lambda g: -g.key):
        if not any(mono_divides(h.exps, g.exps) for h in chosen):
            chosen.append(g)
    # tail-reduce each element against the reduced ones before it: a lead
    # larger than g's divides no term of g below its lead, and no other
    # lead divides g's, so g keeps its leading monomial and the order holds
    done: list[_GPoly] = []
    reduced: list[MPoly] = []
    for g in chosen:
        h = _make_gpoly(_normal_form_int(dict(g.terms), done))
        done.append(h)
        reduced.append(
            MPoly(nvars, {grevlex_unpack(-m, nvars): Fraction(c, h.lc) for m, c in h.terms.items()})
        )
    return tuple(reduced)


def normal_form(p: MPoly, G: GroebnerBasis) -> MPoly:
    """Remainder of rational p on division by the basis; p minus the result
    is in the ideal.

    The primitive multiple of p is reduced against the primitive basis
    elements, built once per basis, and the remainder is scaled back.
    ValueError when p and the basis have different variable counts.
    """
    if p.nvars != G.elements[0].nvars:
        raise ValueError("the polynomial and the basis must share a variable count")
    if p.is_zero():
        return p
    terms = primitive(p.terms)
    m = next(iter(terms))
    rem, scale = _normal_form_int(_packed(terms), G._primitive, scaled=True)
    scale *= terms[m] / Fraction(p.terms[m])  # terms is p times this factor
    return MPoly(p.nvars, {grevlex_unpack(-k, p.nvars): c / scale for k, c in rem.items()})


def multiple_rows(G: GroebnerBasis, h: MPoly, monomials, rows=None):
    """Yields a nonzero integer multiple of NF(h*m), with the loop's packed
    keys, for each monomial m of a set closed under division, in its order.

    m = v*m' for v the last variable of m, and the row of m is
    NF(v * row of m'): a normal form of a low-degree polynomial.  m' comes
    before m or is a key of ``rows``, a dict of rows already made that
    gains each new one.  When ``G.z_free``, the row of z*m' is exactly the
    row of m' times z.  The rows have the rank of the exact normal forms,
    and their residues mod p at most that rank.
    """
    nvars = G.elements[0].nvars
    steps = [-grevlex_pack(tuple(int(i == v) for i in range(nvars))) for v in range(nvars)]
    rows = {} if rows is None else rows
    for m in monomials:
        v = max((i for i, e in enumerate(m) if e), default=None)
        if v is None:
            rows[m] = _normal_form_int(_packed(primitive(h.terms)), G._primitive)
        else:
            parent = rows[tuple(e - (i == v) for i, e in enumerate(m))]
            row = {k + steps[v]: c for k, c in parent.items()}
            rows[m] = row if v == 2 and G.z_free else _normal_form_int(row, G._primitive)
        yield rows[m]


def multiplication_rows(G: GroebnerBasis, h: MPoly, top: int):
    """Multiplication by the form h on Q = S/I, I the ideal of the basis,
    from Q_r to Q_(r + deg h), for r = 0..top, in the standard monomials.

    Yields one dict per degree r, from each standard monomial m of degree r
    (one that no leading monomial divides), in ``monomial_basis`` order, to
    its row from ``multiple_rows``.  m is standard exactly when no lead is
    m and each m/v is standard, so each degree's grow from the last's, and
    each row is a normal form of at most dim Q_(r + deg h - 1) terms.
    """
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    leads = {g.exps for g in G._primitive}
    rows: dict[Monomial, dict[int, int]] = {}
    for r in range(top + 1):
        grown = {mono_mul(m, u) for m in rows for u in units} if r else {(0, 0, 0)}
        standard = [m for m in grown - leads if all(mono_div(m, u) in rows for e, u in zip(m, units) if e)]
        standard.sort(key=grevlex_key, reverse=True)
        rows = dict(zip(standard, multiple_rows(G, h, standard, dict(rows))))
        yield rows


def leading_ideal(G: GroebnerBasis) -> tuple[Monomial, ...]:
    """Minimal monomial generators of the initial ideal of a reduced basis."""
    lms = sorted((g.leading_monomial() for g in G.elements), key=grevlex_key)
    return tuple(lms)

