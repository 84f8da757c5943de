"""Sparse multivariate polynomials over Q or a real cyclotomic field.

Monomials are exponent tuples (length 2 or 3, variables x > y > z), and a
polynomial is a mapping from monomials to nonzero coefficients.  The
grevlex order (as a tuple key, and packed into one int for the Groebner
loop), parsing/printing in a small text grammar, homogenization and
grading utilities live here.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Mapping, Sequence

from .numberfield import AlgNum

Monomial = tuple[int, ...]

VAR_NAMES = "xyz"
MAX_EXPONENT = 0xFFFF


class ParseError(ValueError):
    """Syntax error in polynomial text, with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class InexactDivisionError(ArithmeticError):
    pass


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(i + j for i, j in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(i <= j for i, j in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    q = tuple(i - j for i, j in zip(a, b))
    if any(e < 0 for e in q):
        raise ArithmeticError("monomial quotient has negative exponent")
    return q


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(i, j) for i, j in zip(a, b))


def grevlex_key(m: Monomial) -> tuple:
    """Grevlex sort key, variables x > y > z: ascending key is ascending order."""
    return (sum(m), tuple(-e for e in reversed(m)))


GREVLEX_WIDTH = 16  # bits per field of a packed monomial
_FIELD = (1 << GREVLEX_WIDTH) - 1
_FIELDS = (1 << 3 * GREVLEX_WIDTH) - 1


def grevlex_pack(m: Monomial) -> int:
    """The monomial as one int L(m) = deg*B^3 - sum(e_i * B^i), B = 2^GREVLEX_WIDTH.

    Ints compare as grevlex_key does, and L(a) + L(b) = L(a*b) while the
    product's degree fits.  ValueError when the degree is B or more, since
    a field that overflows would misorder silently.
    """
    deg = sum(m)
    if deg > _FIELD:
        raise ValueError(f"monomial degree {deg} exceeds the packed width of {_FIELD}")
    key = deg << 3 * GREVLEX_WIDTH
    for i, e in enumerate(m):
        key -= e << i * GREVLEX_WIDTH
    return key


def grevlex_unpack(key: int, nvars: int) -> Monomial:
    """Inverse of grevlex_pack for a monomial in nvars variables."""
    s = -key & _FIELDS
    return tuple((s >> i * GREVLEX_WIDTH) & _FIELD for i in range(nvars))


def _is_scalar(c) -> bool:
    return isinstance(c, (int, Fraction, AlgNum))


class MPoly:
    """A sparse polynomial; treat instances as immutable."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        if nvars not in (2, 3):
            raise ValueError("only 2 or 3 variables are supported")
        tdict: dict[Monomial, object] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, c in items:
                if isinstance(c, float):
                    raise TypeError("float coefficients break exactness; use Fraction")
                if not c:
                    continue
                if isinstance(c, int):
                    # exact division later must never hit int/int
                    c = Fraction(c)
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError("monomial length does not match nvars")
                prev = tdict.get(mono)
                acc = c if prev is None else prev + c
                if acc:
                    tdict[mono] = acc
                else:
                    tdict.pop(mono, None)
        self.nvars = nvars
        self.terms = tdict
        self._hash = None

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MPoly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), Fraction(0))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def map_coefficients(self, fn: Callable) -> "MPoly":
        return MPoly(self.nvars, {m: fn(c) for m, c in self.terms.items()})

    def derivative(self, var: int) -> "MPoly":
        out = {}
        for m, c in self.terms.items():
            e = m[var]
            if e:
                dm = list(m)
                dm[var] = e - 1
                out[tuple(dm)] = c * e
        return MPoly(self.nvars, out)

    def evaluate(self, point: Sequence):
        """Exact evaluation; coordinates may be Fractions, field elements or MPolys.

        Each coordinate's powers are computed once, up to its largest exponent.
        """
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        powers = []
        for xi, top in zip(point, map(max, zip(*self.terms))):
            table = [None, xi]
            for _ in range(top - 1):
                table.append(table[-1] * xi)
            powers.append(table)
        total = None
        for m, c in self.terms.items():
            v = c
            for table, e in zip(powers, m):
                if e:
                    v = v * table[e]
            total = v if total is None else total + v
        return Fraction(0) if total is None else total

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if _is_scalar(other):
            return self == MPoly.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __neg__(self):
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if _is_scalar(other):
            other = MPoly.constant(other, self.nvars)
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            acc = c if prev is None else prev + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return MPoly(self.nvars)
            return MPoly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prev = out.get(m)
                acc = c1 * c2 if prev is None else prev + c1 * c2
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        p = MPoly(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MPoly.constant(Fraction(1), self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"MPoly({to_string(self)!r}, nvars={self.nvars})"


def variables(nvars: int) -> tuple[MPoly, ...]:
    return tuple(MPoly.variable(i, nvars) for i in range(nvars))


def parse(text: str, nvars: int = 3) -> MPoly:
    """Parse polynomial text.

    Grammar: poly := [sign] term {sign term}; term := coeff ['*' monos] | monos;
    monos := varpow {'*' varpow}; varpow := var ['^' nat]; coeff := nat ['/' nat];
    whitespace is ignored everywhere.
    """
    if nvars not in (2, 3):
        raise ValueError("only 2 or 3 variables are supported")
    names = VAR_NAMES[:nvars]
    i = 0
    n = len(text)

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_nat() -> int:
        nonlocal i
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected a number", start + 1)
        return int(text[start:i])

    def read_varpow() -> tuple[int, int]:
        nonlocal i
        ch = text[i]
        if ch in VAR_NAMES:
            if ch not in names:
                raise ParseError(f"unknown variable {ch!r}", i + 1)
        else:
            raise ParseError("expected a variable", i + 1)
        var = names.index(ch)
        i += 1
        skip_ws()
        e = 1
        if i < n and text[i] == "^":
            i += 1
            skip_ws()
            pos = i
            e = read_nat()
            if e > MAX_EXPONENT:
                raise ParseError("exponent overflow", pos + 1)
        return var, e

    terms: list[tuple[Monomial, Fraction]] = []
    first = True
    skip_ws()
    if i >= n:
        raise ParseError("empty input", 1)
    while True:
        skip_ws()
        if i >= n:
            break
        sign = 1
        if text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i += 1
            skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-'", i + 1)
        if i >= n:
            raise ParseError("unexpected end of input", i + 1)
        coeff = Fraction(1)
        exps = [0] * nvars
        if text[i].isdigit():
            num = read_nat()
            den = 1
            skip_ws()
            if i < n and text[i] == "/":
                i += 1
                skip_ws()
                pos = i
                den = read_nat()
                if den == 0:
                    raise ParseError("zero denominator", pos + 1)
            coeff = Fraction(num, den)
            skip_ws()
            if i < n and text[i] == "*":
                i += 1
                skip_ws()
                if i >= n:
                    raise ParseError("unexpected end of input", i + 1)
                var, e = read_varpow()
                exps[var] += e
        else:
            var, e = read_varpow()
            exps[var] += e
        while True:
            skip_ws()
            if i < n and text[i] == "*":
                i += 1
                skip_ws()
                if i >= n:
                    raise ParseError("unexpected end of input", i + 1)
                var, e = read_varpow()
                exps[var] += e
            else:
                break
        if any(e > MAX_EXPONENT for e in exps):
            raise ParseError("exponent overflow", i)
        terms.append((tuple(exps), sign * coeff))
        first = False
    return MPoly(nvars, terms)


def _coeff_parts(c) -> tuple[bool, str]:
    """Split a coefficient into (is_negative, absolute value string)."""
    if isinstance(c, AlgNum):
        if c.is_rational():
            c = c.to_fraction()
        else:
            return False, f"({c})"
    if isinstance(c, int):
        c = Fraction(c)
    return c < 0, str(abs(c))


def to_string(p: MPoly) -> str:
    """Deterministic rendering; rational output re-parses to an equal polynomial."""
    if not p.terms:
        return "0"
    parts = []
    for mono, c in sorted(p.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True):
        neg, a = _coeff_parts(c)
        mono_str = "*".join(
            VAR_NAMES[i] if e == 1 else f"{VAR_NAMES[i]}^{e}"
            for i, e in enumerate(mono)
            if e
        )
        if not mono_str:
            body = a
        elif a == "1":
            body = mono_str
        else:
            body = f"{a}*{mono_str}"
        parts.append(("-" if neg else "+", body))
    sign0, head = parts[0]
    out = head if sign0 == "+" else "-" + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def homogenize(p: MPoly, target_degree: int) -> MPoly:
    """Homogenize a 2-variable polynomial to the given degree using z."""
    if p.nvars != 2:
        raise ValueError("homogenize expects a polynomial in x, y")
    if p.degree() > target_degree:
        raise ValueError("target degree is below the degree of the input")
    out = {}
    for (a, b), c in p.terms.items():
        out[(a, b, target_degree - a - b)] = c
    return MPoly(3, out)


def dehomogenize(p: MPoly) -> MPoly:
    """Substitute z = 1, returning a polynomial in x, y."""
    if p.nvars != 3:
        raise ValueError("dehomogenize expects a polynomial in x, y, z")
    return MPoly(2, [((a, b), c) for (a, b, _), c in p.terms.items()])


def partials(f: MPoly) -> tuple[MPoly, ...]:
    """The tuple of formal partial derivatives."""
    return tuple(f.derivative(i) for i in range(f.nvars))


def monomial_basis(r: int, nvars: int) -> list[Monomial]:
    """Monomials of degree exactly r (3 vars) or at most r (2 vars), grevlex descending."""
    if r < 0:
        raise ValueError("degree must be non-negative")
    monos = []
    if nvars == 3:
        for a in range(r + 1):
            for b in range(r - a + 1):
                monos.append((a, b, r - a - b))
    elif nvars == 2:
        for a in range(r + 1):
            for b in range(r - a + 1):
                monos.append((a, b))
    else:
        raise ValueError("only 2 or 3 variables are supported")
    monos.sort(key=grevlex_key, reverse=True)
    return monos


def divide(num: MPoly, divisors: Sequence[MPoly]) -> tuple[MPoly, ...]:
    """Quotients q_i with num = sum q_i * divisors[i], by grevlex division.

    The leading term of what is left is cancelled by the first divisor whose
    leading monomial divides it; a term that no leading monomial divides
    raises InexactDivisionError.  When the divisors are a Groebner basis,
    that happens exactly when num is not in their ideal.  Coefficients may
    be of any field the divisors' leading coefficients invert in.
    """
    if any(g.is_zero() for g in divisors):
        raise ZeroDivisionError("division by the zero polynomial")
    if any(g.nvars != num.nvars for g in divisors):
        raise ValueError("mixed variable counts")
    leads = [(g.leading_monomial(), g) for g in divisors]
    tails = [[(-grevlex_pack(m), c) for m, c in g.terms.items() if m != lm] for lm, g in leads]
    # the largest term pops from a heap of negated packed keys; a zero waits its turn
    rem = {-grevlex_pack(m): c for m, c in num.terms.items()}
    heap = sorted(rem)
    quotients: list[dict[Monomial, object]] = [{} for _ in divisors]
    while heap:
        key = heappop(heap)
        c = rem.pop(key)
        if not c:
            continue
        lm = grevlex_unpack(-key, num.nvars)
        for quo, tail, (lm_g, g) in zip(quotients, tails, leads):
            if mono_divides(lm_g, lm):
                break
        else:
            raise InexactDivisionError(f"{', '.join(map(to_string, divisors))} does not divide exactly")
        q = quo[mono_div(lm, lm_g)] = c / g.terms[lm_g]
        shift = key + grevlex_pack(lm_g)
        for k, gc in tail:
            k += shift
            v = rem.get(k)
            if v is None:
                rem[k] = -q * gc
                heappush(heap, k)
            else:
                rem[k] = v - q * gc
    return tuple(MPoly(num.nvars, quo) for quo in quotients)


def exact_div(num: MPoly, den: MPoly) -> MPoly:
    """Exact polynomial division; raises InexactDivisionError otherwise."""
    return divide(num, (den,))[0]
