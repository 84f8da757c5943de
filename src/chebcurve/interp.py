"""Evaluation matrices on the Chebyshev node grids and their exact ranks.

The degree-r evaluation map sends a polynomial of degree at most r to its
values on the companion-curve node grid; its rank thresholds certify the
interpolation behaviour, and the kernel dimensions feed the syzygy
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .chebyshev import build
from .hilbert import expected_node_count
from .numberfield import AlgNum
from .polyring import Monomial, monomial_basis


@dataclass(frozen=True)
class EvalMatrix:
    points: tuple
    degree: int
    columns: tuple[Monomial, ...]
    rows: tuple[tuple[AlgNum, ...], ...]


def _evaluate_basis(points, monos) -> tuple[tuple, ...]:
    tops = [max(m[i] for m in monos) for i in range(len(monos[0]))]
    rows = []
    for pt in points:
        tables = []
        for xi, top in zip(pt, tops):
            table = [None, xi]
            for _ in range(top - 1):
                table.append(table[-1] * xi)
            tables.append(table)
        row = []
        for m in monos:
            v = None
            for table, e in zip(tables, m):
                if e:
                    p = table[e]
                    v = p if v is None else v * p
            row.append(1 if v is None else v)
        rows.append(tuple(row))
    return tuple(rows)


def grid_matrix(d: int, r: int) -> EvalMatrix:
    """Evaluation of the 2-variable monomials of degree <= r on the companion grid."""
    data = build(d)
    monos = tuple(monomial_basis(r, nvars=2))
    return EvalMatrix(
        points=data.minus_nodes,
        degree=r,
        columns=monos,
        rows=_evaluate_basis(data.minus_nodes, monos),
    )


def evaluation_kernel_dim(d: int, r: int) -> int:
    """Dimension of the space of degree <= r polynomials vanishing on the grid,
    for 0 <= r <= d."""
    if not 0 <= r <= d:
        raise ValueError("require 0 <= r <= d")
    return len(monomial_basis(r, nvars=2)) - grid_ranks(d)[r]


@lru_cache(maxsize=None)
def grid_ranks(d: int) -> tuple[int, ...]:
    """Ranks of the degree-r grid evaluation matrices for r = 0..d.

    The degree-d matrix is built once; the degree-r matrix is its set of
    columns of the monomials of degree at most r.
    """
    if d < 3:
        raise ValueError("require d >= 3")
    full = grid_matrix(d, d)
    index = {m: j for j, m in enumerate(full.columns)}
    ranks = []
    for r in range(d + 1):
        cols = [index[m] for m in monomial_basis(r, nvars=2)]
        ranks.append(linalg.rank([[row[j] for j in cols] for row in full.rows]))
    return tuple(ranks)


def evaluation_thresholds(d: int) -> tuple[int, int]:
    """(largest injective degree, smallest surjective degree) of grid evaluation.

    Scans r = 0..d: injective means full column rank, surjective means rank
    equal to the number of grid points.
    """
    ranks = grid_ranks(d)
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
    """Whether evaluating homogeneous polynomials of degree 2d-3 at the curve's
    nodes (lifted to z = 1) hits every function on the node set."""
    data = build(d)
    points = tuple((a, b, data.field.one()) for a, b in data.plus_nodes)
    monos = tuple(monomial_basis(2 * d - 3, nvars=3))
    rows = _evaluate_basis(points, monos)
    return linalg.rank(rows) == expected_node_count(d)
