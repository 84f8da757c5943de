"""Evaluation matrices on node grids: ranks, thresholds, kernels."""

import random
from fractions import Fraction

import pytest

from chebcurve import interp
from chebcurve.interp import (
    evaluation_kernel_dim,
    evaluation_ranks,
    evaluation_thresholds,
    grid_matrix,
    grid_ranks,
    node_evaluation_surjective,
)
from chebcurve.linalg import rank
from chebcurve.syzygy import syzygy_dim
from chebcurve.chebyshev import build, curve_polynomial


class TestRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_cubic_grid_rows(self):
        rows = [
            [1, Fraction(1, 2), Fraction(1, 2)],
            [1, Fraction(-1, 2), Fraction(-1, 2)],
        ]
        assert rank(rows) == 2

    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_permutation_and_scaling_invariance(self):
        rng = random.Random(7)
        for _ in range(10):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)]
            base = rank(rows)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert rank(shuffled) == base
            cols = list(range(5))
            rng.shuffle(cols)
            assert rank([[r[c] for c in cols] for r in shuffled]) == base
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = [[scale * v for v in rows[0]]] + rows[1:]
            assert rank(scaled) == base


class TestThresholds:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_expected_pair(self, d):
        assert evaluation_thresholds(d) == (d - 3, d - 2)

    def test_cubic_matrix_shape(self):
        rows = grid_matrix(3, 1)
        assert len(rows) == 2 and all(len(row) == 3 for row in rows)


class TestEvaluationRanks:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_grid_ranks_match_sympy(self, sympy_rank, d):
        ranks = evaluation_ranks(build(d).minus_nodes, d)
        assert ranks == tuple(sympy_rank(grid_matrix(d, r)) for r in range(d + 1))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_grid_ranks_stop_at_the_surjective_degree(self, monkeypatch, d):
        # the grid is surjective from degree d-2 on, so r = 0..d-2 are
        # eliminated and r = d-1, d are read off the point count
        calls = []

        def counted(matrix):
            calls.append(1)
            return rank(matrix)

        monkeypatch.setattr(interp.linalg, "rank", counted)
        ranks = grid_ranks.__wrapped__(d)
        assert len(calls) == d - 1
        assert ranks[d - 1] == ranks[d] == len(build(d).minus_nodes)


class TestKernelDims:
    @pytest.mark.parametrize(
        "d,r,expected",
        [(4, 2, 1), (5, 3, 2), (4, 1, 0), (6, 4, 2), (7, 5, 3)],
    )
    def test_values(self, d, r, expected):
        assert evaluation_kernel_dim(d, r) == expected

    @pytest.mark.parametrize("r", [-1, 6])
    def test_degree_outside_zero_to_d_raises(self, r):
        with pytest.raises(ValueError):
            evaluation_kernel_dim(5, r)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_vanishing_below_and_formula_above(self, d):
        npoints = (d - 1) ** 2 - __import__("chebcurve.hilbert", fromlist=["x"]).expected_node_count(d)
        for r in range(0, d - 2):
            assert evaluation_kernel_dim(d, r) == 0
        for r in range(d - 2, d + 1):
            cols = (r + 2) * (r + 1) // 2
            assert evaluation_kernel_dim(d, r) == cols - npoints

    @pytest.mark.parametrize("d", range(3, 7))
    def test_syzygy_bridge(self, d):
        # the kernel of grid evaluation at degree d-2 counts the first
        # non-Koszul syzygies of the Jacobian triple: two modules, one number
        assert evaluation_kernel_dim(d, d - 2) == syzygy_dim(curve_polynomial(d), d - 2)


class TestNodeSurjectivity:
    @pytest.mark.parametrize("d", range(3, 11))
    def test_holds(self, d):
        assert node_evaluation_surjective(d)
