"""Evaluation matrices on node grids: ranks, thresholds, kernels."""

import random
from fractions import Fraction

import pytest

from chebcurve import interp, linalg
from chebcurve.interp import (
    evaluation_kernel_dim,
    evaluation_thresholds,
    grid_matrix,
    grid_ranks,
    node_evaluation_surjective,
)
from chebcurve.linalg import rank
from chebcurve.syzygy import syzygy_dim
from chebcurve.chebyshev import build, curve_polynomial
from chebcurve.numberfield import cos_multiple


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


def monomial_ranks(points, top):
    """The exact monomial evaluation ranks, r = 0..top: one column per
    x^a y^b at the points, ranked by ``linalg.rank``, stopping once the
    rank reaches the number of points."""
    columns = []
    ranks = []
    for r in range(top + 1):
        columns += [[a**i * b ** (r - i) for a, b in points] for i in range(r + 1)]
        ranks.append(rank(columns))
        if ranks[-1] == len(points):
            break
    return tuple(ranks) + (len(points),) * (top + 1 - len(ranks))


@pytest.fixture
def fresh_ranks():
    # the cached ranks are computed anew, and dropped after the test
    interp.grid_ranks.cache_clear()
    interp.node_ranks.cache_clear()
    yield
    interp.grid_ranks.cache_clear()
    interp.node_ranks.cache_clear()


def count_ranks(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(1)
        return rank(matrix)

    monkeypatch.setattr(interp.linalg, "rank", counted)
    return calls


class TestEvaluationRanks:
    @pytest.mark.parametrize("d", range(3, 9))
    def test_grid_ranks_match_sympy(self, sympy_rank, d):
        ranks = grid_ranks(d)[: d + 1]
        assert ranks == tuple(sympy_rank(grid_matrix(d, r)) for r in range(d + 1))

    @pytest.mark.parametrize("d", range(3, 13))
    def test_prefix_ranks_match_the_monomial_evaluation(self, d):
        # the Chebyshev basis mod p against the exact monomial columns, on
        # the companion grid and on the curve's nodes
        data = build(d)
        lam = data.critical_points
        assert [(lam[s - 1], lam[t - 1]) for s, t in interp._nodes(d, 0)] == list(data.minus_nodes)
        assert [(lam[s - 1], lam[t - 1]) for s, t in interp._nodes(d, 1)] == list(data.plus_nodes)
        assert grid_ranks(d) == monomial_ranks(data.minus_nodes, 2 * d)
        assert interp.node_ranks(d) == monomial_ranks(data.plus_nodes, 2 * d - 3)
        assert grid_ranks(d).proof == interp.node_ranks(d).proof == "mod_p"

    @pytest.mark.parametrize("d", range(3, 9))
    def test_grid_ranks_stop_at_the_surjective_degree(self, monkeypatch, d):
        # the grid is surjective from degree d-2 on, so the columns of
        # r = 0..d-2 are built and r = d-1, d are read off the point count;
        # every prefix closes mod p, with no exact rank
        calls = count_ranks(monkeypatch)
        columns = []
        column = interp._column
        monkeypatch.setattr(interp, "_column", lambda *args: columns.append(1) or column(*args))
        ranks = grid_ranks.__wrapped__(d)
        assert calls == []
        assert len(columns) == (d - 1) * d // 2
        assert ranks[d - 1] == ranks[d] == len(build(d).minus_nodes)

    def test_no_exact_rank_through_degree_20(self, monkeypatch):
        calls = count_ranks(monkeypatch)
        for d in range(3, 21):
            assert grid_ranks.__wrapped__(d)[d - 2] == len(interp._nodes(d, 0))
            assert interp.node_ranks.__wrapped__(d)[-1] == len(interp._nodes(d, 1))
        assert calls == []

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 9])
    def test_collapsed_table_falls_back_to_the_exact_rank(self, monkeypatch, fresh_ranks, d):
        # with every cosine sent to 0 no prefix closes mod p, so each one
        # takes the exact rank, and the answers stay the same
        def answers():
            return (
                grid_ranks(d),
                interp.node_ranks(d),
                evaluation_thresholds(d),
                node_evaluation_surjective(d),
            )

        want = answers()
        interp.grid_ranks.cache_clear()
        interp.node_ranks.cache_clear()
        residues = linalg.cosine_residues
        monkeypatch.setattr(linalg, "cosine_residues", lambda d: (residues(d)[0], (0,) * (2 * d)))
        calls = count_ranks(monkeypatch)
        assert answers() == want
        assert grid_ranks(d).proof == interp.node_ranks(d).proof == "exact"
        # one exact rank per prefix up to the surjective degree of each set
        surjective = [next(r for r, k in enumerate(ranks) if k == ranks[-1]) for ranks in want[:2]]
        assert len(calls) == sum(r + 1 for r in surjective)

    def test_cosine_table_is_the_image_of_the_cosines(self):
        for d in range(3, 13):
            p, table = linalg.cosine_residues(d)
            _, image = linalg.residue_map(d)
            field = build(d).field
            assert table == tuple(image(cos_multiple(field, k)) for k in range(2 * d))


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
