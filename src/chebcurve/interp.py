"""Evaluation ranks on the Chebyshev node sets.

``evaluation_ranks`` gives the rank of evaluating the polynomials of degree
at most r in x, y at a set of points, for every r up to a top degree.  On
the companion-curve grid its ranks up to d give the interpolation
thresholds and kernel dimensions, and up to 2d the syzygy counts of the
Chebyshev resolution (see ``syzygy``); on the curve's nodes its rank at
2d-3 says whether forms of that degree take every value there.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .chebyshev import build
from .hilbert import expected_node_count
from .polyring import monomial_basis


def evaluation_ranks(points, top: int) -> tuple[int, ...]:
    """Ranks of evaluating the polynomials of degree <= r at the points, r = 0..top.

    The matrix is held by columns: one sparse row {point index: value} per
    monomial x^a y^b, listed degree by degree, with x^a and y^b read from
    per-point power lists that grow one degree at a time.  Once the rank
    equals the number of points it stays there, since a higher degree only
    adds columns, and it can never exceed the number of points, so no
    further column is built and the remaining ranks are proven.
    """
    px = [[1] for _ in points]
    py = [[1] for _ in points]
    columns = []
    ranks = []
    for r in range(top + 1):
        if r:
            for (a, b), xs, ys in zip(points, px, py):
                xs.append(xs[-1] * a)
                ys.append(ys[-1] * b)
        for e in range(r + 1):
            columns.append({i: xs[e] * ys[r - e] for i, (xs, ys) in enumerate(zip(px, py))})
        ranks.append(linalg.rank(columns))
        if ranks[-1] == len(points):
            break
    return tuple(ranks) + (len(points),) * (top + 1 - len(ranks))


def grid_matrix(d: int, r: int) -> list[list]:
    """Rows of the degree-r grid evaluation: at each companion-grid point, the
    monomials of degree <= r in x, y in ``monomial_basis`` order."""
    monos = monomial_basis(r, nvars=2)
    return [[a**i * b**j for i, j in monos] for a, b in build(d).minus_nodes]


def evaluation_kernel_dim(d: int, r: int) -> int:
    """Dimension of the space of degree <= r polynomials vanishing on the grid,
    for 0 <= r <= d."""
    if not 0 <= r <= d:
        raise ValueError("require 0 <= r <= d")
    return len(monomial_basis(r, nvars=2)) - grid_ranks(d)[r]


@lru_cache(maxsize=None)
def grid_ranks(d: int) -> tuple[int, ...]:
    """Ranks of the degree-r grid evaluation matrices for r = 0..2d.

    Elimination stops at the first surjective degree, d-2, and the later
    ranks read the point count, so the degrees past d cost nothing.
    """
    if d < 3:
        raise ValueError("require d >= 3")
    return evaluation_ranks(build(d).minus_nodes, 2 * d)


def evaluation_thresholds(d: int) -> tuple[int, int]:
    """(largest injective degree, smallest surjective degree) of grid evaluation.

    Scans r = 0..d: injective means full column rank, surjective means rank
    equal to the number of grid points.
    """
    ranks = grid_ranks(d)[: d + 1]
    npoints = len(build(d).minus_nodes)
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
    return evaluation_ranks(build(d).plus_nodes, 2 * d - 3)[-1] == expected_node_count(d)
