"""Oracles shared by the test modules."""

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

import pytest

from chebcurve.numberfield import AlgNum, real_cyclotomic_field


@pytest.fixture(scope="session")
def sympy_rank():
    """Rank of a matrix, given as rows (sequences or sparse dicts) with
    rational or Q(2*cos(pi/d)) entries, by sympy's DomainMatrix over Q or
    QQ.algebraic_field(2*cos(pi/d)): an oracle that shares no code with
    ``linalg``."""
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import QQ, cos, pi

    @lru_cache(maxsize=None)
    def algebraic_field(d):
        field = QQ.algebraic_field(2 * cos(pi / d))
        # element coefficients are in the generator's powers on both sides
        assert field.mod.to_list() == list(reversed(real_cyclotomic_field(d).minpoly))
        return field

    def rank(matrix) -> int:
        rows = [row.items() if isinstance(row, Mapping) else enumerate(row) for row in matrix]
        rows = [{c: v for c, v in row if v} for row in rows]
        ncols = 1 + max((c for row in rows for c in row), default=-1)
        fields = {v.field.d for row in rows for v in row.values() if isinstance(v, AlgNum)}
        assert len(fields) <= 1
        domain = algebraic_field(fields.pop()) if fields else QQ

        def convert(v):
            if isinstance(v, AlgNum):
                # from coefficient lists: from_sympy is far slower on field elements
                return domain.new(list(reversed(v.coeffs)))
            q = QQ(Fraction(v).numerator, Fraction(v).denominator)
            return q if domain == QQ else domain.new([q])

        entries = {i: {c: convert(v) for c, v in row.items()} for i, row in enumerate(rows) if row}
        return matrices.DomainMatrix(entries, (len(rows), ncols), domain).rank()

    return rank
