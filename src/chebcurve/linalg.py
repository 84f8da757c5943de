"""Exact sparse linear algebra over Q and the cyclotomic fields.

There is one elimination loop, ``Echelon``, and it is incremental: pivot
rows are normalized to lead 1 and keyed by their leading column, over F_p
for the certificates below and over the entries' field (Q or
Q(2*cos(pi/d))) for every exact rank (``_rank_exact``) and for
``solve_unique``.  ``primitive`` and ``strip_content`` are the content
helpers of the Groebner-basis reductions.

Over F_p a row is reduced lazily: its entries stay unreduced ints, its
columns wait in a heap, and only the popped column is reduced mod p.  A
zero there is dropped; a nonzero value with a pivot is the multiplier of
that pivot row, subtracted without ``% p``; one without a pivot leads the
residue, which is then reduced mod p in full.  Every step is the one the
fully reduced loop takes, on the same residues mod p, so the residues and
the echelon are the same as if each entry were reduced when touched.

Rank is certified before it is computed.  Reducing the entries modulo one
prime p is a ring homomorphism (for Q(2*cos(pi/d)), p = 1 mod 2d and
2*cos(pi/d) goes to zeta + 1/zeta for a 2d-th root of unity zeta in F_p),
so a nonzero minor mod p lifts to a nonzero minor: rank mod p <= rank.
The prime is chosen here alone, for every mod-p proof of the package: the
largest below 2^61 that is 1 mod 2d (``_modulus``), PRIME = 2^61 - 1 for Q.
A field element sum(num_i * g^i) / den, with int numerators, maps to
(sum num_i * image(g)^i) * den^-1 mod p, one modular inverse per entry;
an entry whose den p divides has no image.  ``residue_map`` is that
reduction, ``field_residue_map`` picks it for the one field of some
coefficients, ``residues`` reduces a dict of them, and ``cosine_residues``
gives the images of cos(k*pi/d).  Every rank is at most
min(#nonzero rows, #nonzero columns).  When the echelon over F_p
reaches that bound, the two bounds meet and the rank is proven.
Otherwise, and whenever no reduction applies (p divides a denominator, or
the entries come from different fields), the rank comes from
``_rank_exact``.

A rank-deficient rank is certified by known kernel vectors.  When the
columns of K satisfy A K = 0 exactly, rank_p K <= rank K <= ncols - rank A
<= ncols - rank_p A, with A and K reduced modulo the same prime.
``kernel_certificate_mod_p``, the one kernel certificate, closes that
sandwich (its docstring holds the proof) and lifts missing kernel vectors
from F_p by back-substitution and ``rational_reconstruction`` (Wang, Guy &
Davenport, SIGSAM Bull. 1982), which recovers n/m with |n|, m < 2^30.
Each caller reduces its coefficients once, builds A and K from the
residues, and falls back to ``rank`` when the certificate does not close.

``solve_unique``, which needs a solution rather than a rank, runs the
echelon over the entries' field too.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .numberfield import AlgNum, SelfCheckError, real_cyclotomic_field

Row = dict[int, object]


class Proven(tuple):
    """A tuple of results with ``proof``, the route that proved them:
    "mod_p" when every rank closed modulo p, "exact" when one took an
    exact elimination.  It compares and unpacks as the plain tuple."""

    def __new__(cls, values: Iterable, proof: str):
        self = super().__new__(cls, values)
        self.proof = proof
        return self


def _entry(v):
    # plain ints are promoted so that later divisions stay exact
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, AlgNum)):
        return v
    raise TypeError(f"unsupported matrix entry type {type(v).__name__}")


def _to_row(row) -> Row:
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {c: _entry(v) for c, v in items if v}


def _to_rows(matrix: Iterable) -> list[Row]:
    return [_to_row(row) for row in matrix]


def strip_content(*rows: dict) -> int:
    """Divide integer rows in place by the gcd of all their entries.

    Returns the divisor: that gcd, or 1 when there is nothing to remove.
    """
    g = 0
    for row in rows:
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                return 1
    if g > 1:
        for row in rows:
            for k in row:
                row[k] //= g
    return g or 1


def primitive(row: dict) -> dict:
    """The primitive integer multiple (positive content) of a row of rationals."""
    den = 1
    for v in row.values():
        den = lcm(den, Fraction(v).denominator)
    out = {}
    for k, v in row.items():
        f = Fraction(v)
        out[k] = f.numerator * (den // f.denominator)
    strip_content(out)
    return out


def _rank_exact(rows: list[Row]) -> int:
    """Rank of non-empty rows by an ``Echelon`` over the entries' field."""
    echelon = Echelon()
    for row in rows:
        echelon.insert(row)
    return len(echelon.pivots)


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the first 12 primes as bases is deterministic below
    # 318665857834031151167461, about 3.2 * 10**23 and far above 2**64
    # (Sorenson & Webster, Math. Comp. 2017)
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    s, m = 0, n - 1
    while m % 2 == 0:
        s, m = s + 1, m // 2
    for a in bases:
        x = pow(a, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


PRIME = 2305843009213693951  # 2^61 - 1, which is _modulus(2)


@lru_cache(maxsize=None)
def _modulus(n: int) -> int:
    """The largest prime p < 2**61 with p = 1 (mod n)."""
    p = (2**61 - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
    return p


@lru_cache(maxsize=None)
def _root_of_unity(d: int) -> tuple[int, int]:
    """(p, a primitive 2d-th root of unity zeta in F_p) for p = _modulus(2d)."""
    n = 2 * d
    p = _modulus(n)
    for x in range(2, p):
        zeta = pow(x, (p - 1) // n, p)
        if all(pow(zeta, k, p) != 1 for k in range(1, n)):
            return p, zeta


@lru_cache(maxsize=None)
def _generator_image(d: int) -> tuple[int, int]:
    """(p, image of 2*cos(pi/d) in F_p) for p = _modulus(2d).

    The image is zeta + 1/zeta for the primitive 2d-th root of unity zeta
    of ``_root_of_unity``, which exists because 2d divides p - 1.  The
    minimal polynomial psi of 2*cos(pi/d) has integer coefficients and
    psi(zeta + 1/zeta) = zeta^-h * Phi_2d(zeta) = 0 in F_p, which makes the
    reduction Q(2*cos(pi/d)) -> F_p a ring homomorphism on the elements
    whose coefficients have denominators prime to p.  A nonzero value
    there is an internal fault and raises SelfCheckError.
    """
    p, zeta = _root_of_unity(d)
    g = (zeta + pow(zeta, -1, p)) % p
    value = 0
    for c in reversed(real_cyclotomic_field(d).minpoly):
        value = (value * g + _residue(c, p)) % p
    if value:
        raise SelfCheckError(f"the minimal polynomial of 2*cos(pi/{d}) has no root at its image")
    return p, g


def cosine_residues(d: int) -> tuple[int, tuple[int, ...]]:
    """(p, the images of cos(k*pi/d) in F_p for k = 0..2d-1), p = _modulus(2d).

    cos(k*pi/d) = V_k(g)/2 for g = 2*cos(pi/d) and V_k(t + 1/t) = t^k + t^-k,
    so the homomorphism of ``_generator_image``, g -> zeta + 1/zeta, sends
    it to (zeta^k + zeta^-k)/2, read from the powers of zeta.
    """
    p, _ = _generator_image(d)
    _, zeta = _root_of_unity(d)
    n = 2 * d
    powers = [pow(zeta, k, p) for k in range(n)]
    half = (p + 1) // 2
    return p, tuple((powers[k] + powers[-k % n]) * half % p for k in range(n))


def _residue(q: Fraction, p: int) -> int | None:
    den = q.denominator
    if den % p == 0:
        return None
    return q.numerator * pow(den, -1, p) % p


def residue_map(d: int | None) -> tuple[int, Callable[[object], int | None]]:
    """(p, the reduction of an entry to F_p): for Fractions alone (d None)
    p = PRIME, for Fractions and elements of Q(2*cos(pi/d)) p = _modulus(2d)
    with the homomorphism of ``_generator_image``.

    An entry whose denominator p divides (a Fraction's, or the common one
    of an AlgNum) maps to None: it has no image.
    """
    if d is None:
        return PRIME, lambda v: _residue(v, PRIME)
    p, g = _generator_image(d)
    gpow = [pow(g, i, p) for i in range(real_cyclotomic_field(d).degree)]

    def image(v) -> int | None:
        if not isinstance(v, AlgNum):
            return _residue(v, p)
        # (sum num_i * g^i) / den: one inverse per entry, none when den is 1
        if v.den % p == 0:
            return None
        r = sum(map(mul, v.num, gpow))
        return r % p if v.den == 1 else r * pow(v.den, -1, p) % p

    return p, image


def field_residue_map(values: Iterable) -> tuple[int, Callable[[object], int | None]] | None:
    """``residue_map`` of the one field of the values; None for two fields."""
    fields = {v.field.d for v in values if isinstance(v, AlgNum)}
    if len(fields) > 1:
        return None
    return residue_map(fields.pop() if fields else None)


def residues(terms: Mapping, image: Callable[[object], int | None]) -> dict | None:
    """The nonzero images of a dict's values; None when one has no image."""
    out = {k: image(v) for k, v in terms.items()}
    return None if None in out.values() else {k: r for k, r in out.items() if r}


def _reduce_mod_p(rows: list[Row]) -> tuple[list[dict[int, int]], int] | None:
    """The rows' image in F_p under ``field_residue_map``, with p; None when
    the entries come from two fields or p divides a denominator."""
    found = field_residue_map(v for row in rows for v in row.values())
    if found is None:
        return None
    p, image = found
    # matrices built from a few polynomials repeat the same entry objects
    memo: dict[int, int | None] = {}

    def cached(v) -> int | None:
        if id(v) not in memo:
            memo[id(v)] = image(v)
        return memo[id(v)]

    out = [residues(row, cached) for row in rows]
    return None if None in out else (out, p)


def _reaches_rank_mod_p(rows: list[dict[int, int]], p: int, target: int) -> bool:
    """Whether the rows have rank at least ``target`` over F_p.

    Rows are inserted into an echelon over F_p one at a time; the scan stops
    as soon as ``target`` pivots are found, or more than
    ``len(rows) - target`` rows have reduced to zero.
    """
    slack = len(rows) - target
    echelon = Echelon(p)
    for row in rows:
        if len(echelon.pivots) >= target or slack < 0:
            break
        if not echelon.insert(row):
            slack -= 1
    return len(echelon.pivots) >= target


def rank(matrix: Iterable) -> int:
    """Exact rank of a matrix given as rows (sequences or sparse dicts).

    A full rank is certified by one elimination mod p; any other rank comes
    from exact elimination.
    """
    rows = [r for r in _to_rows(matrix) if r]
    if not rows:
        return 0
    bound = min(len(rows), len(set().union(*rows)))
    reduced = _reduce_mod_p(rows)
    if reduced is not None and _reaches_rank_mod_p(*reduced, bound):
        return bound
    return _rank_exact(rows)


def rational_reconstruction(a: int, p: int) -> Fraction | None:
    """The fraction n/m = a (mod p) with |n|, m <= sqrt(p/2), or None.

    The extended Euclidean algorithm on (p, a) stops at the first remainder
    below the bound (Wang, Guy & Davenport, SIGSAM Bull. 1982); such a
    fraction is unique when it exists.
    """
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _kernel_vector(pivots: dict[int, Row], c: int, p: int) -> dict[int, int]:
    """The kernel vector mod p of an echelon's rows that is 1 at the free
    column c and 0 at the other free columns, by back-substitution."""
    x = {c: 1}
    for j in sorted((j for j in pivots if j < c), reverse=True):
        s = sum(v * x[k] for k, v in pivots[j].items() if k in x) % p
        if s:
            x[j] = p - s
    return x


def kernel_certificate_mod_p(
    rows: list[dict[int, int]],
    kernel: list[dict[int, int]],
    p: int,
    lift: Callable[[Row], bool] | None = None,
) -> int | None:
    """The proven rank of A from a matrix K with A * K = 0, or None.

    ``rows`` and ``kernel`` are the rows of A and of K, one for each column
    of A (so A has ``len(kernel)`` columns), as sparse rows of residues in
    1..p-1.  The caller guarantees that they are the images of A and K,
    with A * K = 0 exactly, under one ring homomorphism to F_p.  Then
    rank_p(K) <= rank(K) <= ncols - rank(A) <= ncols - rank_p(A) = u.  The
    columns of K mod p lie in the kernel of A mod p, which the coordinates
    at the non-pivot columns of A's echelon determine, so K is restricted
    to those u rows and its columns are eliminated, sparsest first, until
    u pivots.  When they have rank u the ends meet: the result is rank(A),
    and ``len(kernel)`` minus it is rank(K).

    When they fall short and ``lift`` is given, the missing kernel vectors
    are lifted from F_p.  At each free column c, in order, whose unit
    vector is independent of the known ones there, the kernel vector mod p
    that is 1 at c and 0 at the other free columns is back-substituted
    from A's echelon and each entry is lifted to Q by
    ``rational_reconstruction``.  ``lift`` must return True only once it
    has proven A x = 0 exactly for that rational vector x; the vector then
    joins K, with the same restriction to the free columns, until u are
    known.  None when a reconstruction fails, ``lift`` returns False, or
    the ends do not meet.
    """
    if any(c >= len(kernel) for row in rows for c in row):
        raise ValueError("the kernel matrix needs one row per column")
    echelon = Echelon(p)
    for row in rows:
        echelon.insert(row)
    rank = len(echelon.pivots)
    nullity = len(kernel) - rank
    # the columns of K restricted to the free columns of A, sparsest first
    free = [c for c in range(len(kernel)) if c not in echelon.pivots]
    columns: dict[int, dict[int, int]] = {}
    for i, c in enumerate(free):
        for j, v in kernel[c].items():
            columns.setdefault(j, {})[i] = v
    known = Echelon(p)
    for column in sorted(columns.values(), key=len):
        if len(known.pivots) == nullity:
            break
        known.insert(column)
    if lift is not None:
        for i, c in enumerate(free):
            if len(known.pivots) == nullity:
                break
            if not known.reduce({i: 1}):
                continue
            vector = {}
            for k, v in _kernel_vector(echelon.pivots, c, p).items():
                q = rational_reconstruction(v, p)
                if q is None:
                    return None
                vector[k] = q
            if not lift(vector):
                return None
            known.insert({i: 1})
    return rank if len(known.pivots) == nullity else None


class Echelon:
    """Incremental echelon form of sparse rows over Q, Q(2*cos(pi/d)) or F_p.

    Each pivot row is normalized to lead 1 and stored under its leading
    column, so a row is reduced by subtracting multiples of the pivot rows
    at its leading column until that column has no pivot.  With a prime p
    the entries are ints: pivot rows and residues hold values in 1..p-1,
    while a row being reduced takes ``% p`` only at each column it pops
    from its heap and once more on exit (see the module docstring).
    """

    def __init__(self, p: int | None = None):
        self.p = p
        self.pivots: dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        """The residue of row: empty, or led by a column without a pivot."""
        p = self.p
        row = dict(row)
        if p is None:
            while row:
                lead = min(row)
                prow = self.pivots.get(lead)
                if prow is None:
                    break
                f = row[lead]
                for c, v in prow.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            return row
        # entries stay unreduced ints until their column is popped; the heap
        # is built at the first pivot, so a row that meets none pays min()
        heap = None
        while row:
            lead = min(row) if heap is None else heappop(heap)
            f = row[lead] % p
            if not f:
                del row[lead]
                continue
            prow = self.pivots.get(lead)
            if prow is None:
                return {c: r for c, v in row.items() if (r := v % p)}
            if heap is None:
                heap = [c for c in row if c != lead]
                heapify(heap)
            # prow's other columns all exceed lead, so the popped columns
            # increase and no column enters the heap twice
            get = row.get
            for c, v in prow.items():
                x = get(c)
                if x is None:
                    row[c] = -f * v
                    heappush(heap, c)
                else:
                    row[c] = x - f * v
            del row[lead]
        return row

    def insert(self, row: Row) -> Row:
        """Reduce row, keep a nonzero residue as a pivot row, return the residue."""
        row = self.reduce(row)
        if row:
            lead = min(row)
            p = self.p
            if p is None:
                inv = 1 / row[lead]
                self.pivots[lead] = {c: v * inv for c, v in row.items()}
            else:
                inv = pow(row[lead], -1, p)
                self.pivots[lead] = {c: v * inv % p for c, v in row.items()}
        return row


def solve_unique(matrix: Iterable, rhs: Sequence, ncols: int) -> list:
    """Solve A x = rhs when the solution exists and is unique.

    Raises ArithmeticError on an inconsistent system and ValueError when the
    solution is not unique (rank below ncols).
    """
    rows = _to_rows(matrix)
    rhs = [Fraction(b) if isinstance(b, int) else b for b in rhs]
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length does not match row count")
    echelon = Echelon()
    for row, b in zip(rows, rhs):
        if b:
            row[ncols] = b  # the right-hand side is column ncols
        residue = echelon.insert(row)
        if residue and min(residue) == ncols:
            raise ArithmeticError("inconsistent linear system")
    if len(echelon.pivots) < ncols:
        raise ValueError("linear system does not determine a unique solution")
    x: dict[int, object] = {}
    for c in reversed(range(ncols)):
        prow = echelon.pivots[c]
        value = prow.get(ncols, Fraction(0))
        for k, v in prow.items():
            if c < k < ncols:
                value = value - v * x[k]
        x[c] = value
    return [x[c] for c in range(ncols)]

