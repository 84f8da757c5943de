"""Hilbert series of graded quotients and Milnor algebra profiles.

The numerator P(t) of a monomial quotient is computed by the classical
pivot recursion; graded dimensions come from expanding P(t)/(1-t)^3, and
the Tjurina number of a reduced plane curve is read off at the general
stabilization bound 3(d-2)+1.  A non-reduced curve has a singular curve
component, so (1-t)^2 does not divide P(t) and the Tjurina number is
infinite; it is reported as absent.  Numerators are integer polynomials
(ascending coefficient tuples) built with ``upoly``'s arithmetic, which
keeps them integral.

For the Chebyshev curve the paper's free resolution is stated once, in
``chebyshev_resolution``; the closed-form numerator is read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from . import upoly
from .groebner import GroebnerBasis, buchberger, complete_intersection_certificate, leading_ideal
from .polyring import Monomial, MPoly, mono_divides, partials

IntPoly = tuple[int, ...]

# Milnor profiles kept for reuse: one call of rationality_test or one
# syzygy command reads the profile of one polynomial several times, and a
# long-lived caller should not keep every polynomial it has seen.
MILNOR_CACHE_SIZE = 32


def minimal_monomial_generators(gens) -> tuple[Monomial, ...]:
    """Drop generators divisible by another generator; dedupe and sort."""
    uniq = sorted(set(tuple(g) for g in gens), key=lambda m: (sum(m), m))
    out = []
    for m in uniq:
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return tuple(out)


def _mono_numerator(gens: tuple[Monomial, ...], memo: dict) -> IntPoly:
    if not gens:
        return (1,)
    if gens in memo:
        return memo[gens]
    nvars = len(gens[0])
    if any(sum(m) == 0 for m in gens):
        return ()
    counts = [0] * nvars
    for m in gens:
        for v in range(nvars):
            if m[v]:
                counts[v] += 1
    if max(counts) <= 1:
        # pairwise coprime generators: product formula
        out: IntPoly = (1,)
        for m in gens:
            out = upoly.mul(out, (1,) + (0,) * (sum(m) - 1) + (-1,))
        return out
    v = counts.index(max(counts))
    exps = sorted(m[v] for m in gens if m[v])
    e = exps[(len(exps) - 1) // 2]
    pivot = tuple(e if i == v else 0 for i in range(nvars))
    sum_side = minimal_monomial_generators(list(gens) + [pivot])
    colon_side = minimal_monomial_generators(
        tuple(max(m[i] - pivot[i], 0) for i in range(nvars)) for m in gens
    )
    memo[gens] = upoly.add(
        _mono_numerator(sum_side, memo), upoly.shift(_mono_numerator(colon_side, memo), e)
    )
    return memo[gens]


def hilbert_numerator(gens) -> IntPoly:
    """Numerator P(t) of the series P(t)/(1-t)^3 of S modulo a monomial ideal."""
    # the pivot recursion meets some subideals more than once
    return _mono_numerator(minimal_monomial_generators(gens), {})


def series_dims(numerator: IntPoly, kmax: int, nvars: int = 3) -> list[int]:
    """Graded dimensions k = 0..kmax from the numerator over (1-t)^nvars."""
    dims = []
    for k in range(kmax + 1):
        total = 0
        for j, c in enumerate(numerator):
            if j > k:
                break
            if c:
                total += c * comb(k - j + nvars - 1, nvars - 1)
        dims.append(total)
    return dims


def _divide_by_one_minus_t(p: IntPoly) -> IntPoly | None:
    """Quotient p / (1 - t) when exact, else None."""
    if not p:
        return ()
    q = []
    carry = 0
    for c in p:
        carry += c
        q.append(carry)
    if q[-1] != 0:
        return None
    q.pop()
    return upoly.trim(q)


@dataclass(frozen=True)
class HilbertData:
    numerator: IntPoly
    dims: tuple[int, ...]
    stabilized_value: int | None
    stabilized_from: int | None


@dataclass(frozen=True)
class MilnorProfile:
    d: int
    hilbert: HilbertData
    tau: int | None  # None when f is not reduced: the Tjurina number is infinite
    q_polynomial: IntPoly | None
    proof: str  # "complete_intersection" or "buchberger": the route to the numerator
    # the exact basis of the partials on the buchberger route, None on the other
    basis: GroebnerBasis | None = field(default=None, compare=False, repr=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.hilbert.dims


def _stabilization(dims: list[int]) -> tuple[int | None, int | None]:
    # a plateau needs at least two equal trailing values to count
    kmax = len(dims) - 1
    if kmax < 1 or dims[kmax] != dims[kmax - 1]:
        return None, None
    k0 = kmax
    while k0 > 0 and dims[k0 - 1] == dims[kmax]:
        k0 -= 1
    return dims[kmax], k0


@lru_cache(maxsize=MILNOR_CACHE_SIZE)
def milnor_profile(f: MPoly, kmax: int | None = None) -> MilnorProfile:
    """Jacobian-quotient profile of a homogeneous polynomial in x, y, z.

    The numerator comes first from ``complete_intersection_certificate``:
    one basis of the partials mod linalg's rational prime that proves the
    complete-intersection Hilbert function of its nonzero partials,
    (1 - t^(d-1))^3 for a smooth curve.  When it proves
    nothing (a singular or non-reduced curve, or an unlucky prime) the
    numerator is read from the leading ideal of the exact ``buchberger``
    basis.  ``proof`` names the route; the numerator is the same either way.
    The exact basis is kept as ``basis``, the one the singular-point count
    reads its chart from; the complete-intersection route has none.
    """
    if f.nvars != 3:
        raise ValueError("expected a polynomial in x, y, z")
    if f.is_zero() or not f.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous polynomial")
    d = f.degree()
    if d < 2:
        raise ValueError("expected degree at least 2")
    if kmax is None:
        kmax = 3 * d
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    gens = partials(f)
    numerator = complete_intersection_certificate(gens)
    proof, basis = "complete_intersection", None
    if numerator is None:
        basis = buchberger(gens)
        numerator = hilbert_numerator(leading_ideal(basis))
        proof = "buchberger"
    tau_degree = 3 * (d - 2) + 1
    dims_full = series_dims(numerator, max(kmax, tau_degree))
    dims = dims_full[: kmax + 1]
    stabilized_value, stabilized_from = _stabilization(dims)
    q1 = _divide_by_one_minus_t(numerator)
    q2 = _divide_by_one_minus_t(q1) if q1 is not None else None
    tau = dims_full[tau_degree] if q2 is not None else None
    return MilnorProfile(
        d=d,
        hilbert=HilbertData(
            numerator=numerator,
            dims=tuple(dims),
            stabilized_value=stabilized_value,
            stabilized_from=stabilized_from,
        ),
        tau=tau,
        q_polynomial=q2,
        proof=proof,
        basis=basis,
    )


def chebyshev_resolution(d: int) -> tuple[dict[int, int], ...]:
    """Graded Betti numbers of the minimal free resolution
    0 <- M(f) <- F0 <- F1 <- F2 <- F3 <- 0 of the Milnor algebra of the
    degree-d Chebyshev curve.  F_i is given as a map shift -> rank: it is
    the sum of S(-shift)^rank over the map's items.

    F1 holds the three partials.  A syzygy whose components have degree r
    sits at shift r + d - 1: F2 holds the (d-1)//2 relations with r = d-2
    and the Koszul trio, F3 the relations among them, one with r = d-1 when
    d is odd and d//2 with r = d.
    """
    if d < 2:
        raise ValueError("require d >= 2")
    return (
        {0: 1},
        {d - 1: 3},
        {2 * d - 3: (d - 1) // 2, 2 * d - 2: 3},
        {2 * d - 2: d % 2, 2 * d - 1: d // 2},
    )


def chebyshev_milnor_numerator(d: int) -> IntPoly:
    """Closed-form Hilbert numerator for the Milnor algebra of the degree-d
    Chebyshev curve: the alternating sum of its resolution's Betti numbers.
    It agrees with the computed numerator coefficientwise."""
    out = [0] * (2 * d)
    for i, shifts in enumerate(chebyshev_resolution(d)):
        for shift, rank in shifts.items():
            out[shift] += (-1) ** i * rank
    return upoly.trim(out)


def expected_node_count(d: int) -> int:
    """Node count of the degree-d Chebyshev curve: (d-1)^2 // 2."""
    if d < 2:
        raise ValueError("require d >= 2")
    return (d - 1) ** 2 // 2
