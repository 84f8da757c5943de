"""Per-degree syzygies of the Jacobian triple and resolution verification.

A syzygy in degree r is a triple (a1, a2, a3) of degree-r forms with
a1*fx + a2*fy + a3*fz = 0.  Dimensions are kernel dimensions of exact
degree matrices; an independent count comes from the Hilbert data by
rank-nullity, and the distinguished non-Koszul relations are constructed
explicitly by polynomial division: the companion curve by one conic
factor, then by the Groebner basis {fx, fy}.

Every matrix over S here is built by ``macaulay_matrix``, the degree
slice of (c_1, ..., c_k) -> sum c_i * v_i for tuples of forms v_i: the
Jacobian degree matrices and the matrices of the relation module.

For the Chebyshev curve f = z^d (T_d(x/z) + T_d(y/z)) the syzygy counts
come from the evaluation ranks on the companion grid ``minus_nodes``:

- fx = z^(d-1) T_d'(x/z) involves only x and z, fy only y and z, and
  their leading monomials x^(d-1) and y^(d-1) are coprime, so {fx, fy}
  is a Groebner basis.
- So Q = S/(fx, fy) has the basis x^a y^b z^c with a, b <= d-2, and z is
  a non-zero-divisor on Q.
- At z = 1, Q is the ring of functions on the (d-1)^2 critical grid,
  since T_d' has the d-1 distinct roots cos(k*pi/d).
- Euler's relation gives z*fz = d*f mod (fx, fy).
- On the grid f is T_d(a) + T_d(b): +-2 on ``minus_nodes`` and 0 on
  ``plus_nodes``.  So for g of degree r, fz*g lies in (fx, fy) exactly
  when g vanishes on ``minus_nodes``.
- Hence the third components a3 of the degree-r syzygies are the forms
  that vanish on ``minus_nodes`` at z = 1, of dimension dim S_r - rank_r,
  where rank_r is the rank of evaluating the polynomials of degree <= r
  in x, y there.  Each a3 fixes (a1, a2) up to the multiples of
  (fy, -fx), the only syzygies of (fx, fy), so
  syz(r) = dim S_r - rank_r + dim S_(r-d+1).

The relations prove the ranks of the relation module.  Each non-Koszul
relation passes an identity check when it is built, and the Koszul ones
hold trivially, so the columns of the relation matrix R_r are syzygies of
degree r: J_r R_r = 0 for the Jacobian degree matrix J_r.  Hence
rank_p R_r <= rank R_r <= syz(r) = ncols J_r - rank J_r <= ncols J_r -
rank_p J_r, and the kernel certificate closes both ranks modulo one
prime when the ends meet; otherwise rank R_r is computed exactly.  J_r
and R_r are built in F_p, from fx, fy, fz and the relations reduced once
per coefficient (``_certified_syzygies``), so the exact R_r is built
only for that fallback.  So
``verify_resolution`` reads syz(r), r = 0..2d, from the grid ranks, and
makes one certificate only at each r = d-2..d+2, where it proves rank R_r
and must give the grid count.

Any curve whose fx, fy form a regular sequence is counted the same way,
through Q = S/(fx, fy), without J_r (``quotient_syzygy_dims``):

- Two forms of degree e = d-1 form a regular sequence exactly when
  S/(fx, fy) has the Hilbert series (1 - t^e)^2/(1 - t)^3 of a complete
  intersection, and a Groebner basis of (fx, fy) gives that series from
  its leading ideal (``regular_pair_basis``).
- Then the Koszul complex of (fx, fy) is exact (Eisenbud, Commutative
  Algebra, section 17): the syzygies of (fx, fy) are the multiples of
  (fy, -fx).  So, as above, a degree-r syzygy is fixed by its a3 up to
  the dim S_(r-d+1) multiples of (fy, -fx), and the a3 are the forms
  with fz*a3 in (fx, fy), those whose class in Q_r lies in the kernel of
  M_r, the multiplication by fz from Q_r to Q_(r+d-1).  They span
  dim S_r - dim Q_r + (dim Q_r - rank M_r), so
  syz(r) = dim S_r - rank M_r + dim S_(r-d+1).
- M_r is written in the standard monomials of Q, at most (d-1)^2 of them
  in each degree; J_r is dim S_(r+d-1) x 3*dim S_r.
- The rank of M_r is proven like that of J_r: a kernel certificate of
  the transpose of M_r, whose columns are the rows NF(fz*m).  Its known
  kernel vectors are those of degree r-1 times z, when no leading monomial
  of the basis involves z: then z*m is standard for every standard m and
  the row of z*m is the row of m times z.  The missing ones are lifted
  from F_p, and each is kept, as its residues, only once its combination
  of the integer rows is zero exactly.  The integer rows enter the
  certificate reduced mod p, and a degree whose certificate does not
  close takes ``linalg.rank`` of the small matrix.

For any other input the known syzygies start as the Koszul trio.  When
the certificate of a degree r falls short, it lifts the missing syzygies
from their residues mod p; each becomes a relation of degree r only once
a1*fx + a2*fy + a3*fz = 0 holds identically over Q, and its multiples
prove the higher degrees.  So the ``syzygy`` command builds and
eliminates each J_r once, in F_p, and only a degree whose lift fails
builds the exact J_r, for ``linalg.rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Sequence

from . import linalg, upoly
from .chebyshev import curve_affine, curve_polynomial, minus_conics
from .groebner import GroebnerBasis, buchberger, leading_ideal, multiplication_rows
from .hilbert import (
    MILNOR_CACHE_SIZE,
    chebyshev_resolution,
    hilbert_numerator,
    milnor_profile,
    series_dims,
)
from .interp import grid_ranks
from .numberfield import SelfCheckError
from .polyring import (
    InexactDivisionError,
    MPoly,
    divide,
    exact_div,
    homogenize,
    monomial_basis,
    partials,
)


Relations = tuple[tuple[tuple[MPoly, ...], int], ...]


def _dim_homog(e: int) -> int:
    """Dimension of the homogeneous forms of degree e in three variables."""
    return (e + 2) * (e + 1) // 2 if e >= 0 else 0


def macaulay_matrix(
    generators: list[tuple[tuple[MPoly, ...], int]], degree: int
) -> tuple[list[dict[int, object]], int]:
    """Sparse rows and column count of (c_1, ..., c_k) -> sum c_i * v_i.

    Each generator is (v_i, e_i): a tuple of component forms and the degree
    e_i of its multiplier c_i (none when e_i < 0), with every component
    times c_i of the given degree.  Rows are indexed by (component, monomial
    of that degree), columns by (generator, multiplier monomial), both in
    monomial_basis order.  Entries are the components' coefficients as they
    are, so rational and Q(2*cos(pi/d)) generators share one matrix, and a
    component given as its terms {monomial: residue mod p} gives int rows.
    """
    targets = monomial_basis(degree, nvars=3)
    index = {m: i for i, m in enumerate(targets)}
    ncomp = len(generators[0][0])
    rows: list[dict[int, object]] = [{} for _ in range(ncomp * len(targets))]
    col = 0
    for components, e in generators:
        for u0, u1, u2 in monomial_basis(e, nvars=3) if e >= 0 else ():
            for k, comp in enumerate(components):
                offset = k * len(targets)
                terms = comp.terms if isinstance(comp, MPoly) else comp
                for (a, b, c), v in terms.items():
                    rows[offset + index[u0 + a, u1 + b, u2 + c]][col] = v
            col += 1
    return rows, col


def jacobian_degree_matrix(f: MPoly, r: int) -> tuple[list[dict[int, object]], int]:
    """Rows and column count of (a1, a2, a3) -> a1*fx + a2*fy + a3*fz in degree r.

    Columns come in three blocks of the degree-r monomials, rows are the
    monomials of degree r + d - 1, both in monomial_basis order.
    """
    if r < 0:
        raise ValueError("degree must be non-negative")
    if not f.is_homogeneous():
        raise ValueError("expected a homogeneous polynomial")
    return macaulay_matrix([((g,), r) for g in partials(f)], r + f.degree() - 1)


def _lifter(f: MPoly, r: int, relations: list):
    """The ``lift`` of ``linalg.kernel_certificate_mod_p`` for J_r: it reads
    a kernel vector as a triple of degree-r forms and appends it to
    relations with degree r exactly when a1*fx + a2*fy + a3*fz = 0."""
    basis = monomial_basis(r, nvars=3)
    n = len(basis)
    grads = partials(f)

    def lift(vector) -> bool:
        parts: list[dict] = [{}, {}, {}]
        for c, v in vector.items():
            parts[c // n][basis[c % n]] = v
        triple = tuple(MPoly(3, part) for part in parts)
        if sum((a * g for a, g in zip(triple, grads)), MPoly.zero(3)):
            return False
        relations.append((triple, r))
        return True

    return lift


@lru_cache(maxsize=MILNOR_CACHE_SIZE)
def regular_pair_basis(f: MPoly) -> GroebnerBasis | None:
    """The Groebner basis of (fx, fy) when fx, fy form a regular sequence,
    else None: its leading ideal must give the Hilbert numerator
    (1 - t^(d-1))^2 of a complete intersection of two forms of degree d-1."""
    fx, fy, _ = partials(f)
    if fx.is_zero() or fy.is_zero():
        return None
    gb = buchberger((fx, fy))
    step = upoly.add((1,), upoly.shift((-1,), f.degree() - 1))
    return gb if hilbert_numerator(leading_ideal(gb)) == upoly.mul(step, step) else None


def _quotient_lifter(rows: dict, kernel: list, image):
    """The ``lift`` of ``linalg.kernel_certificate_mod_p`` for the transposed
    multiplication matrix: it reads a vector as one coefficient per row, in
    the order of rows, and appends it to kernel as {monomial: residue}
    exactly when that combination of the integer rows is zero."""
    monos = list(rows)

    def lift(vector) -> bool:
        den = lcm(*(q.denominator for q in vector.values()))
        total: dict[int, int] = {}
        for j, q in vector.items():
            s = q.numerator * (den // q.denominator)
            for k, c in rows[monos[j]].items():
                total[k] = total.get(k, 0) + s * c
        if any(total.values()):
            return False
        kernel.append({monos[j]: image(q) for j, q in vector.items()})
        return True

    return lift


def quotient_syzygy_dims(f: MPoly, r_max: int) -> list[int] | None:
    """syz(r) for r = 0..r_max through fz on Q = S/(fx, fy), or None when
    fx, fy are not a regular sequence (see the module docstring)."""
    if r_max < 0:
        raise ValueError("degree must be non-negative")
    if not f.is_homogeneous():
        raise ValueError("expected a homogeneous polynomial")
    gb = regular_pair_basis(f)
    if gb is None:
        return None
    p, image = linalg.residue_map(None)
    dims: list[int] = []
    kernel: list[dict] = []
    for r, rows in enumerate(multiplication_rows(gb, partials(f)[2], r_max)):
        column = {m: j for j, m in enumerate(rows)}
        # z times a kernel vector of degree r-1, whose rows are shifted by z
        known = [{(a, b, c + 1): v for (a, b, c), v in g.items()} for g in kernel] if gb.z_free else []
        kernel = list(known)
        transpose: dict[int, dict[int, int]] = {}
        for j, row in enumerate(rows.values()):
            for k, c in row.items():
                transpose.setdefault(k, {})[j] = c
        kernel_rows: list[dict] = [{} for _ in rows]
        for n, g in enumerate(known):
            for m, v in g.items():
                kernel_rows[column[m]][n] = v
        matrix = list(transpose.values())
        residues = [{j: v for j, c in row.items() if (v := c % p)} for row in matrix]
        lift = _quotient_lifter(rows, kernel, image)
        rank = linalg.kernel_certificate_mod_p(residues, kernel_rows, p, lift)
        if rank is None:
            rank = linalg.rank(matrix)
        dims.append(_dim_homog(r) - rank + _dim_homog(r - f.degree() + 1))
    return dims


def syzygy_dim(f: MPoly, r: int, relations: Sequence | None = None) -> int:
    """Exact dimension of the degree-r syzygies of the partials of f.

    By default it is read from ``quotient_syzygy_dims``, and when fx, fy
    are not a regular sequence the known syzygies start as the Koszul
    trio.  ``relations`` are proven syzygies of f, (triple, degree) pairs,
    whose relation matrix certifies the rank of the degree matrix J_r.  A
    list is extended with the syzygies lifted from F_p to close the
    certificate, each with degree r, so that passing one list for
    ascending r reuses them through their multiples; a tuple is taken as
    it is.  Without relations, or when the certificate does not close,
    the exact J_r is built and its rank computed by ``linalg.rank``.
    """
    if relations is None:
        dims = quotient_syzygy_dims(f, r)
        if dims is not None:
            return dims[r]
        relations = koszul_relations(f)
    lift = _lifter(f, r, relations) if isinstance(relations, list) else None
    syz = _certified_syzygies(f, r, relations, lift)
    if syz is None:
        jac, ncols = jacobian_degree_matrix(f, r)
        syz = ncols - linalg.rank(jac)
    return syz


def syzygy_dim_from_hilbert(f: MPoly, r: int) -> int:
    """Independent syzygy count by rank-nullity against the Hilbert data."""
    d = f.degree()
    s = r + d - 1
    dim_jacobian = _dim_homog(s) - series_dims(milnor_profile(f).hilbert.numerator, s)[s]
    return 3 * _dim_homog(r) - dim_jacobian


@lru_cache(maxsize=None)
def nontrivial_syzygy(d: int, j: int) -> tuple[MPoly, MPoly, MPoly]:
    """The j-th non-Koszul relation of the degree-d Chebyshev curve.

    The third component a3 is the exact quotient of the homogenized
    companion curve by its j-th conic factor.  The leading monomials
    x^(d-1) of fx and y^(d-1) of fy are coprime, so {fx, fy} is a Groebner
    basis, and a1, a2 are the quotients of dividing -a3*fz by it.  They are
    the only ones of degree d-2: fx and fy have no common factor (its
    leading monomial would divide both), so the syzygies of (fx, fy) are
    the multiples of (fy, -fx), of degree d-1.  The returned triple satisfies
    a1*fx + a2*fy + a3*fz = 0 identically; a failed division or identity
    is an internal fault and raises SelfCheckError.
    """
    if d < 3:
        raise ValueError("require d >= 3")
    conics = minus_conics(d)
    if not 1 <= j <= len(conics):
        raise ValueError(f"require 1 <= j <= {len(conics)}")
    fx, fy, fz = partials(curve_polynomial(d))
    try:
        a3 = exact_div(homogenize(curve_affine(d, "minus"), d), homogenize(conics[j - 1], 2))
        a1, a2 = divide(-(a3 * fz), (fx, fy))
    except InexactDivisionError as exc:
        raise SelfCheckError(f"relation construction failed: {exc}") from exc
    if a1 * fx + a2 * fy + a3 * fz != MPoly.zero(3):
        raise SelfCheckError("constructed relation does not vanish")
    return a1, a2, a3


def koszul_relations(f: MPoly) -> list[tuple[tuple[MPoly, MPoly, MPoly], int]]:
    """The Koszul trio of f, each with its degree d-1, as a list of known
    syzygies for ``syzygy_dim`` to extend."""
    fx, fy, fz = partials(f)
    zero = MPoly.zero(3)
    d = f.degree()
    return [((fy, -fx, zero), d - 1), ((fz, zero, -fx), d - 1), ((zero, fz, -fy), d - 1)]


def chebyshev_relations(d: int) -> Relations:
    """The distinguished relations (degree d-2) and the Koszul trio (degree
    d-1) of the degree-d Chebyshev curve.

    The distinguished ones, over Q(2*cos(pi/d)), come from the cache of
    ``nontrivial_syzygy``, which checks each identity when it builds it;
    the Koszul trio keeps its rational coefficients.
    """
    rels = [(nontrivial_syzygy(d, j), d - 2) for j in range(1, len(minus_conics(d)) + 1)]
    return tuple(rels + koszul_relations(curve_polynomial(d)))


def relation_matrix(relations: Relations, r: int) -> tuple[list[dict[int, object]], int]:
    """Rows and column count of assembling the relations in component degree r.

    The rows are indexed like the columns of the degree-r Jacobian matrix,
    so its product with this matrix is zero.
    """
    return macaulay_matrix([(rel, r - deg) for rel, deg in relations], r)


def _certified_syzygies(f: MPoly, r: int, relations: Sequence, lift=None) -> int | None:
    """syz(r) = ncols J_r - rank J_r proven by the kernel certificate of J_r
    against R_r, both built in F_p from the partials and the relations
    reduced once per coefficient by ``linalg.field_residue_map``.  None with
    no relations, coefficients from two fields or one with no image, or a
    certificate that does not close.
    """
    grads = partials(f)
    forms = [*grads, *(c for rel, _ in relations for c in rel)]
    found = linalg.field_residue_map(c for g in forms for c in g.terms.values())
    if not relations or found is None:
        return None
    p, image = found
    grads = [linalg.residues(g.terms, image) for g in grads]
    rels = [(tuple(linalg.residues(c.terms, image) for c in rel), deg) for rel, deg in relations]
    if None in grads or any(None in rel for rel, _ in rels):
        return None
    jac, ncols = macaulay_matrix([((g,), r) for g in grads], r + f.degree() - 1)
    kernel, _ = macaulay_matrix([(rel, r - deg) for rel, deg in rels], r)
    rank = linalg.kernel_certificate_mod_p(jac, kernel, p, lift)
    return None if rank is None else ncols - rank


def relation_module_kernel_dim(d: int, r: int) -> linalg.Proven:
    """(rank, kernel dim) of assembling polynomial combinations of the
    distinguished relations and the Koszul trio in component degree r.

    One kernel certificate of the degree-r Jacobian matrix J_r, whose
    syzygies these columns are, proves rank R_r = syz(r) (see
    ``_certified_syzygies``); only when it does not close is the exact R_r
    built, for ``linalg.rank``.  ``proof`` names the route: "mod_p" or "exact".
    """
    relations = chebyshev_relations(d)
    nrel = sum(_dim_homog(r - deg) for _, deg in relations)
    rank = _certified_syzygies(curve_polynomial(d), r, relations)
    proof = "mod_p"
    if rank is None:
        rank, proof = linalg.rank(relation_matrix(relations, r)[0]), "exact"
    return linalg.Proven((rank, nrel - rank), proof)


def expected_relation_kernel_dim(d: int, r: int) -> int:
    """Kernel dimension of the assembled relation map in component degree
    r, read from F3 of ``chebyshev_resolution``: each generator at shift
    e contributes the forms of degree r + d - 1 - e."""
    return sum(rank * _dim_homog(r + d - 1 - e) for e, rank in chebyshev_resolution(d)[3].items())


@dataclass(frozen=True)
class DegreeCheck:
    r: int
    got: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.got == self.expected


@dataclass(frozen=True)
class ResolutionReport:
    d: int
    syzygy_checks: tuple[DegreeCheck, ...]
    first_syzygy_degree: int
    first_syzygy_count: int
    rank_checks: tuple[DegreeCheck, ...]
    kernel_checks: tuple[DegreeCheck, ...]
    # the proof of each rank check's relation certificate: "mod_p" or "exact"
    rank_proofs: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            all(c.ok for c in self.syzygy_checks)
            and self.first_syzygy_degree == self.d - 2
            and self.first_syzygy_count == chebyshev_resolution(self.d)[2][2 * self.d - 3]
            and all(c.ok for c in self.rank_checks)
            and all(c.ok for c in self.kernel_checks)
        )


def verify_resolution(d: int) -> ResolutionReport:
    """Cross-check the graded resolution of the degree-d Chebyshev curve.

    Per degree r = 0..2d the syzygy count read from the grid ranks (see the
    module docstring) must match the rank-nullity count from the Hilbert
    data, and the first non-zero degree is d-2.  For r = d-2..d+2 one
    kernel certificate of J_r against R_r proves rank R_r = syz(r), which
    must equal the grid count, and the assembled relations have the kernel
    dimensions the resolution shape dictates.  A mismatch fails a check of
    the report.
    """
    if d < 3:
        raise ValueError("require d >= 3")
    f = curve_polynomial(d)
    ranks = grid_ranks(d)
    syz_checks = []
    rank_checks = []
    kernel_checks = []
    rank_proofs = []
    first_degree = None
    first_count = 0
    for r in range(2 * d + 1):
        got = _dim_homog(r) - ranks[r] + _dim_homog(r - d + 1)
        syz_checks.append(DegreeCheck(r=r, got=got, expected=syzygy_dim_from_hilbert(f, r)))
        if first_degree is None and got:
            first_degree = r
            first_count = got
        if d - 2 <= r <= d + 2:
            # building the relations raises unless each holds identically
            certified = relation_module_kernel_dim(d, r)
            rank, ker = certified
            rank_checks.append(DegreeCheck(r=r, got=rank, expected=got))
            kernel_checks.append(DegreeCheck(r=r, got=ker, expected=expected_relation_kernel_dim(d, r)))
            rank_proofs.append(certified.proof)
    return ResolutionReport(
        d=d,
        syzygy_checks=tuple(syz_checks),
        first_syzygy_degree=first_degree if first_degree is not None else -1,
        first_syzygy_count=first_count,
        rank_checks=tuple(rank_checks),
        kernel_checks=tuple(kernel_checks),
        rank_proofs=tuple(rank_proofs),
    )
