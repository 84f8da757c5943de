"""Evaluation ranks on the Chebyshev node sets.

``evaluation_ranks`` gives the rank of evaluating the polynomials of degree
at most r in x, y at a set of points (cos(s*pi/d), cos(t*pi/d)), for every
r up to a top degree.  On the companion-curve grid its ranks up to d give
the interpolation thresholds and kernel dimensions, and up to 2d the
syzygy counts of the Chebyshev resolution (see ``syzygy``); on the curve's
nodes its rank at 2d-3 says whether forms of that degree take every value
there.

The ranks are proven modulo one prime, in the Chebyshev basis:

- {T_a(x) * T_b(y) : a + b <= r} spans the polynomials of degree <= r in
  x, y, and it is triangular against the monomials: T_a(x) * T_b(y) is
  2^(a-1) * 2^(b-1) * x^a * y^b (with 2^(a-1) read as 1 at a = 0) plus
  monomials of lower degree in x or in y.  So the evaluation matrix in
  this basis has the same rank as the monomial one at every prefix r.
- Its entry at (cos(s*pi/d), cos(t*pi/d)) is T_a(cos(s*pi/d)) *
  T_b(cos(t*pi/d)) = cos(a*s*pi/d) * cos(b*t*pi/d).  The homomorphism of
  ``linalg.cosine_residues`` sends it to c[a*s mod 2d] * c[b*t mod 2d],
  for the 2d-entry table c[k] of the images of cos(k*pi/d).  So the
  matrix mod p is the image of the exact one, and
  rank_p <= rank <= min(#points, #columns).
- One ``Echelon`` over F_p takes the columns degree by degree.  A prefix
  whose rank mod p meets that bound is proven.  Any other prefix takes
  ``linalg.rank`` of the exact matrix, built from the cosines themselves.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .chebyshev import build
from .hilbert import expected_node_count
from .numberfield import cos_multiple, real_cyclotomic_field
from .polyring import monomial_basis

Nodes = tuple[tuple[int, int], ...]


def _nodes(d: int, parity: int) -> Nodes:
    """The index pairs (s, t), 0 < s, t < d, with s + t = parity (mod 2):
    the companion grid for parity 0 and the curve's nodes for parity 1, in
    the order of ``chebyshev.build``."""
    return tuple((s, t) for s in range(1, d) for t in range(1, d) if (s + t) % 2 == parity)


def _column(table, nodes: Nodes, a: int, b: int, p: int | None = None) -> dict:
    """{point index: T_a(x) * T_b(y) there}, from table[k] = cos(k*pi/d),
    exact or mod p, for k = 0..2d-1."""
    n = len(table)
    column = {}
    for i, (s, t) in enumerate(nodes):
        v = table[a * s % n] * table[b * t % n]
        if p is not None:
            v %= p
        if v:
            column[i] = v
    return column


def evaluation_ranks(d: int, nodes: Nodes, top: int) -> linalg.Proven:
    """Ranks of evaluating the polynomials of degree <= r at the points
    (cos(s*pi/d), cos(t*pi/d)) for (s, t) in nodes, r = 0..top.

    The matrix is held by columns: one sparse row {point index: value} per
    T_a(x) * T_b(y), listed degree by degree, reduced mod p from the
    cosine table (see the module docstring).  Once the rank equals the
    number of points it stays there, since a higher degree only adds
    columns, and it can never exceed the number of points, so no further
    column is built and the remaining ranks are proven.  The result's
    ``proof`` is "exact" when some prefix took the exact rank.
    """
    p, residues = linalg.cosine_residues(d)
    echelon = linalg.Echelon(p)
    pairs: list[tuple[int, int]] = []
    exact: list[dict] = []
    table = None
    proof = "mod_p"
    ranks = []
    for r in range(top + 1):
        for a in range(r + 1):
            pairs.append((a, r - a))
            echelon.insert(_column(residues, nodes, a, r - a, p))
        rank = len(echelon.pivots)
        if rank < min(len(nodes), len(pairs)):
            if table is None:
                field = real_cyclotomic_field(d)
                table = [cos_multiple(field, k) for k in range(2 * d)]
            exact += [_column(table, nodes, a, b) for a, b in pairs[len(exact) :]]
            rank = linalg.rank(exact)
            proof = "exact"
        ranks.append(rank)
        if rank == len(nodes):
            break
    return linalg.Proven(tuple(ranks) + (len(nodes),) * (top + 1 - len(ranks)), proof)


def grid_matrix(d: int, r: int) -> list[list]:
    """Rows of the degree-r grid evaluation: at each companion-grid point, the
    monomials of degree <= r in x, y in ``monomial_basis`` order.

    The exact monomial evaluation, kept as the tests' oracle of the ranks
    that ``evaluation_ranks`` proves in the Chebyshev basis.
    """
    monos = monomial_basis(r, nvars=2)
    return [[a**i * b**j for i, j in monos] for a, b in build(d).minus_nodes]


def evaluation_kernel_dim(d: int, r: int) -> int:
    """Dimension of the space of degree <= r polynomials vanishing on the grid,
    for 0 <= r <= d."""
    if not 0 <= r <= d:
        raise ValueError("require 0 <= r <= d")
    return len(monomial_basis(r, nvars=2)) - grid_ranks(d)[r]


@lru_cache(maxsize=None)
def grid_ranks(d: int) -> linalg.Proven:
    """Ranks of the degree-r grid evaluation matrices for r = 0..2d.

    Elimination stops at the first surjective degree, d-2, and the later
    ranks read the point count, so the degrees past d cost nothing.
    """
    if d < 3:
        raise ValueError("require d >= 3")
    return evaluation_ranks(d, _nodes(d, 0), 2 * d)


@lru_cache(maxsize=None)
def node_ranks(d: int) -> linalg.Proven:
    """Ranks of evaluating the polynomials of degree <= r on the curve's
    nodes for r = 0..2d-3."""
    if d < 3:
        raise ValueError("require d >= 3")
    return evaluation_ranks(d, _nodes(d, 1), 2 * d - 3)


def evaluation_thresholds(d: int) -> tuple[int, int]:
    """(largest injective degree, smallest surjective degree) of grid evaluation.

    Scans r = 0..d: injective means full column rank, surjective means rank
    equal to the number of grid points.
    """
    ranks = grid_ranks(d)[: d + 1]
    npoints = len(_nodes(d, 0))
    max_injective = None
    min_surjective = None
    for r, rk in enumerate(ranks):
        if rk == len(monomial_basis(r, nvars=2)):
            max_injective = r
        if rk == npoints and min_surjective is None:
            min_surjective = r
    return max_injective, min_surjective


def node_evaluation_surjective(d: int) -> bool:
    """Whether the forms of degree 2d-3 take every value on the curve's nodes.

    The nodes lie in the chart z = 1, where those forms are exactly the
    polynomials of degree <= 2d-3 in x, y.
    """
    return node_ranks(d)[-1] == expected_node_count(d)
