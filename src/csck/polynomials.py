"""Sparse exact polynomials, truncated bivariate series, and root isolation.

The package builds its polynomials as term maps or integer coefficient
lists, so the three value types carry no ring algebra, only the steps the
program runs:

* :class:`MultiPoly3` -- sparse polynomials in (x, y, z) over the rationals,
  a map from exponent triples to nonzero coefficients (``int`` when
  integral); evaluated and restricted to lines in integers over one
  denominator.
* :class:`UniPoly` -- dense univariate polynomials (line restrictions and the
  localized sums), held as integer numerators over one positive denominator.
* :class:`TruncSeries2` -- bivariate power series truncated at a total
  degree, exact on every retained coefficient; they multiply and subtract.

Real roots of a ``UniPoly`` are isolated on its square-free part by dyadic
bisection with Descartes' rule of signs; a Descartes bound of 0 or 1 on the
whole range already proves every root there simple, and then the
polynomial is bisected as it stands.  The gcd behind the square-free part
is a heuristic candidate that is proved by exact division and by a degree
bound modulo a prime; the integer primitive remainder sequence is its
fallback, and also builds the Sturm chains that check the isolation
independently.  All arithmetic is exact, so the isolation is a proof, not a
heuristic.

Canonical term order is graded lexicographic, largest first (total degree,
then exponent tuple); serialization and printing follow it, so output is
byte-deterministic.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact import InvariantViolation, general_binomial

Exponent3 = tuple[int, int, int]

_VARS3 = ("x", "y", "z")


def _term_key(exponent: Sequence[int]):
    return (sum(exponent), tuple(exponent))


def _format_terms(terms: list[tuple[tuple[int, ...], Fraction]], names: Sequence[str]) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for exponent, coeff in terms:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exponent)
            if e != 0
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _int_if_integral(value: Fraction | int) -> Fraction | int:
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class MultiPoly3:
    """Sparse exact polynomial in the Kahler-coordinate variables (x, y, z).

    The constructor stores integral coefficients as ``int``; :meth:`terms`
    and :meth:`coefficient` return ``Fraction``.
    """

    # _int_form is filled on first evaluation or restriction
    __slots__ = ("_terms", "_int_form")

    def __init__(self, terms: Mapping[Exponent3, Fraction | int] | Iterable[tuple[Exponent3, Fraction | int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Exponent3, Fraction | int] = {}
        for exponent, coeff in items:
            e = tuple(int(v) for v in exponent)
            if len(e) != 3 or any(v < 0 for v in e):
                raise ValueError(f"bad exponent triple {exponent!r}")
            c = data.get(e, 0) + _int_if_integral(coeff)
            if c:
                data[e] = c
            else:
                data.pop(e, None)
        self._terms = data

    @classmethod
    def _wrap(cls, data: dict[Exponent3, Fraction | int]) -> "MultiPoly3":
        """Take ``data`` as the term map as it stands: exponent triples of
        non-negative ints to nonzero ``int`` or ``Fraction`` coefficients.
        Nothing is converted or checked."""
        out = cls.__new__(cls)
        out._terms = data
        return out

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Exponent3, Fraction]]:
        """Terms in canonical order (graded lex, largest first)."""
        return sorted(((e, Fraction(c)) for e, c in self._terms.items()), key=lambda t: _term_key(t[0]), reverse=True)

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(int(v) for v in exponent), 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self._terms:
            return True
        degrees = {sum(e) for e in self._terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly3) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation and substitution ----------------------------------------

    def _integer_form(self) -> tuple[int, int, list[int], list[tuple[int, int, int, int, int]]]:
        """(den, D, max exponents, terms): den * self is integral, D is the total
        degree (0 for zero) and each term is (ex, ey, ez, D - ex - ey - ez, den * c),
        sorted by (ez, ey, ex), largest first."""
        try:
            return self._int_form
        except AttributeError:
            pass
        den = lcm(*(c.denominator for c in self._terms.values()))
        top = max(self.total_degree(), 0)
        max_e = [max((e[i] for e in self._terms), default=0) for i in range(3)]
        terms = []
        for (ex, ey, ez), c in self._terms.items():
            # an integral polynomial shares its numerators rather than copying them
            num = c.numerator if c.denominator == den else c.numerator * (den // c.denominator)
            terms.append((ex, ey, ez, top - ex - ey - ez, num))
        terms.sort(key=lambda t: (t[2], t[1], t[0]), reverse=True)
        self._int_form = (den, top, max_e, terms)
        return self._int_form

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """p(point), summed in integers over the common denominator of the
        coefficients and of the point; no homogeneity is assumed.  An
        integral point needs no padding powers of that denominator."""
        px, py, pz = (v if type(v) is Fraction else Fraction(v) for v in point)
        den, top, (mx, my, mz), terms = self._integer_form()
        scale = lcm(px.denominator, py.denominator, pz.denominator)
        xs = _powers(px.numerator * (scale // px.denominator), mx)
        ys = _powers(py.numerator * (scale // py.denominator), my)
        zs = _powers(pz.numerator * (scale // pz.denominator), mz)
        if scale == 1:
            return Fraction(sum(c * xs[ex] * ys[ey] * zs[ez] for ex, ey, ez, _, c in terms), den)
        pads = _powers(scale, top)
        total = sum(c * xs[ex] * ys[ey] * zs[ez] * pads[pad] for ex, ey, ez, pad, c in terms)
        return Fraction(total, den * pads[top])

    def restrict_to_line(self, start: Sequence[Fraction | int], end: Sequence[Fraction | int]) -> "UniPoly":
        """The univariate polynomial t -> p((1 - t) * start + t * end).

        Exact for arbitrary rational endpoints.  The endpoints are scaled to a
        shared denominator L, so x, y and z become integer lines X, Y, Z in t,
        and den * L^D * p(line) is expanded by nested Horner over the terms
        sorted by (ez, ey), largest first:

            sum_ez Z^ez sum_ey Y^ey sum_ex c L^(D - ex - ey - ez) X^ex.

        Each (ez, ey) row is added from the power table of X alone, Horner in
        Y runs over ey within an ez block and Horner in Z over the blocks, so
        one row is live at a time.  The L padding means no homogeneity is
        assumed.  The result is those integers over den * L^D.
        """
        s = [Fraction(v) for v in start]
        e = [Fraction(v) for v in end]
        if len(s) != 3 or len(e) != 3:
            raise ValueError("line endpoints must have three coordinates")
        if s == e:
            raise ValueError("coincident line endpoints")
        if self.is_zero():
            return UniPoly(())
        den, top, max_e, terms = self._integer_form()
        scale = lcm(*(v.denominator for v in s + e))
        (x0, x1), (y0, y1), (z0, z1) = [(int(si * scale), int((ei - si) * scale)) for si, ei in zip(s, e)]
        xs = int_power_table(x0, x1, max_e[0])
        pads = _powers(scale, top)

        outer: list[int] = []  # Horner in Z over the ez blocks
        last_ez = None
        for ez, block in groupby(terms, key=itemgetter(2)):
            inner: list[int] = []  # Horner in Y over the ey rows of this block
            last_ey = None
            for ey, row in groupby(block, key=itemgetter(1)):
                if last_ey is not None:
                    inner = _times_line_power(inner, y0, y1, last_ey - ey)
                for ex, _, _, pad, c in row:
                    _add_scaled(inner, c * pads[pad], xs[ex])
                last_ey = ey
            inner = _times_line_power(inner, y0, y1, last_ey)
            if last_ez is not None:
                outer = _times_line_power(outer, z0, z1, last_ez - ez)
            _add_scaled(outer, 1, inner)
            last_ez = ez
        outer = _times_line_power(outer, z0, z1, last_ez)
        return UniPoly._make(outer, den * pads[top])

    def _face_row(self, x: int, c: int) -> list[int]:
        """Integer coefficients of den * p(x, t, c - t) for integers x and c,
        with den > 0 the common denominator of :meth:`_integer_form`, so
        ``UniPoly._make(row, den)`` is :meth:`restrict_to_line` from
        (x, 0, c) to (x, 1, c - 1).  Trailing zeros are not trimmed.

        With x a constant and y = t, each ez block is one list in t read off
        its terms, sum_ey (sum_ex c x^ex) t^ey, and Horner in z = c - t runs
        over the blocks, sorted by ez, largest first.
        """
        _, _, (mx, _, _), terms = self._integer_form()
        xs = _powers(x, mx)
        outer: list[int] = []
        last_ez = None
        for ez, block in groupby(terms, key=itemgetter(2)):
            inner: list[int] = []
            for ex, ey, _, _, coef in block:
                if not inner:
                    # a block is sorted by ey, largest first
                    inner = [0] * (ey + 1)
                inner[ey] += coef * xs[ex]
            if last_ez is not None:
                outer = _times_line_power(outer, c, -1, last_ez - ez)
            _add_scaled(outer, 1, inner)
            last_ez = ez
        return _times_line_power(outer, c, -1, last_ez or 0)

    # -- serialization ------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        return [{"e": list(e), "c": str(c)} for e, c in self.terms()]

    def __str__(self) -> str:
        return _format_terms(self.terms(), _VARS3)

    def __repr__(self) -> str:
        return f"MultiPoly3({dict(self.terms())!r})"


def _powers(base: int, top: int) -> list[int]:
    """base^0 .. base^top."""
    table = [1]
    for _ in range(top):
        table.append(table[-1] * base)
    return table


def int_power_table(const: int, lin: int, top: int) -> list[list[int]]:
    """Powers 0..top of (const + lin*t) as integer coefficient lists."""
    table = [[1]]
    for _ in range(top):
        prev = table[-1]
        nxt = [0] * (len(prev) + 1)
        for k, v in enumerate(prev):
            nxt[k] += v * const
            nxt[k + 1] += v * lin
        table.append(nxt)
    return table


def _add_scaled(acc: list[int], scale: int, row: list[int]) -> None:
    """acc += scale * row in place, lengthening acc when row is longer."""
    if len(acc) < len(row):
        acc.extend([0] * (len(row) - len(acc)))
    acc[: len(row)] = [u + scale * v for u, v in zip(acc, row)]


def _times_line_power(p: list[int], const: int, lin: int, times: int) -> list[int]:
    """p * (const + lin*t)^times: a shift by times and a scale by
    lin^times when const = 0, otherwise one linear factor at a time."""
    if const == 0:
        scale = lin**times
        return [0] * times + [scale * u for u in p]
    for _ in range(times):
        p = [const * u + lin * v for u, v in zip(p + [0], [0] + p)]
    return p


class UniPoly:
    """Dense exact univariate polynomial; coefficient i multiplies t^i.

    It is held as integer numerators ``nums`` (trailing zeros trimmed) over
    one positive denominator ``den`` in lowest terms, so equal polynomials
    have equal fields; the zero polynomial is ``()`` over 1.  The
    constructor takes ``Fraction | int`` coefficients, and
    :meth:`coefficient` and :meth:`coefficients` return ``Fraction``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of lowest-terms denominators the numerators are in lowest terms
        den = lcm(*(c.denominator for c in cs))
        self.nums, self.den = tuple(c.numerator * (den // c.denominator) for c in cs), den

    @classmethod
    def _make(cls, nums: list[int], den: int = 1) -> "UniPoly":
        """The polynomial nums / den for a positive den, brought to lowest
        terms; trailing zeros are trimmed from ``nums`` in place."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [v // g for v in nums], den // g
        out = cls.__new__(cls)
        out.nums, out.den = tuple(nums), den
        return out

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def order(self) -> int | None:
        """Smallest exponent with nonzero coefficient; None for zero."""
        for i, c in enumerate(self.nums):
            if c:
                return i
        return None

    def coefficient(self, k: int) -> Fraction:
        if k < 0 or k >= len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[k], self.den)

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def __neg__(self) -> "UniPoly":
        out = UniPoly.__new__(UniPoly)
        out.nums, out.den = tuple(-v for v in self.nums), self.den
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def evaluate(self, point: Fraction | int) -> Fraction:
        """p(a/b) as sum nums_i a^i b^(D-i) / (den b^D), by integer Horner."""
        if not self.nums:
            return Fraction(0)
        a, b = point.numerator, point.denominator
        return Fraction(_homogeneous_value(self.nums, a, b), self.den * b ** (len(self.nums) - 1))

    def derivative(self) -> "UniPoly":
        return UniPoly._make([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def __str__(self) -> str:
        terms = [((i,), c) for i, c in reversed(list(enumerate(self.coefficients()))) if c]
        return _format_terms(terms, ("t",))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coefficients())!r})"


class TruncSeries2:
    """Bivariate power series in (x, y), truncated past a total degree.

    Arithmetic is exact on the retained range: the stored coefficient of any
    monomial of total degree <= truncation equals the true coefficient of the
    represented product.  Binary operations demand equal truncation degrees.
    Integral coefficients are stored as ``int``, so integral series multiply
    in integers; :meth:`coefficient` and :meth:`terms` return ``Fraction``.
    """

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: int, terms: Mapping[tuple[int, int], Fraction | int] | Iterable = ()):
        if truncation < 0:
            raise ValueError("truncation degree must be non-negative")
        self.truncation = truncation
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[tuple[int, int], Fraction | int] = {}
        for exponent, coeff in items:
            e = (int(exponent[0]), int(exponent[1]))
            if e[0] < 0 or e[1] < 0:
                raise ValueError(f"bad exponent pair {exponent!r}")
            if e[0] + e[1] > truncation:
                continue
            c = data.get(e, 0) + _int_if_integral(coeff)
            if c:
                data[e] = c
            else:
                data.pop(e, None)
        self._terms = data

    @classmethod
    def constant(cls, value: Fraction | int, truncation: int) -> "TruncSeries2":
        return cls(truncation, {(0, 0): value})

    @classmethod
    def binomial_series(cls, e_x: int, e_y: int, truncation: int) -> "TruncSeries2":
        """(1 + x)^e_x (1 + y)^e_y for arbitrary integer exponents."""
        ys = [general_binomial(e_y, j) for j in range(truncation + 1)]
        data = {}
        for i in range(truncation + 1):
            bx = general_binomial(e_x, i)
            if bx == 0:
                continue
            for j, by in enumerate(ys[: truncation + 1 - i]):
                if by:
                    data[(i, j)] = bx * by
        return cls(truncation, data)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        return sorted(((e, Fraction(c)) for e, c in self._terms.items()), key=lambda t: _term_key(t[0]), reverse=True)

    def _retained(self, exponent: Sequence[int]) -> tuple[int, int]:
        e = (int(exponent[0]), int(exponent[1]))
        if e[0] + e[1] > self.truncation:
            raise ValueError(
                f"coefficient {e} lies beyond truncation degree {self.truncation}"
            )
        return e

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(self._retained(exponent), 0))

    def product_coefficient(self, other: "TruncSeries2", exponent: Sequence[int]) -> Fraction:
        """The coefficient of ``self * other`` at ``exponent``, without
        forming the product: one lookup in ``other`` per term of ``self``."""
        return Fraction(self._product_coefficient(other, exponent))

    def _product_coefficient(self, other: "TruncSeries2", exponent: Sequence[int]) -> Fraction | int:
        """:meth:`product_coefficient` as summed, an ``int`` when both series
        are integral."""
        self._check(other)
        e0, e1 = self._retained(exponent)
        theirs = other._terms
        total = 0
        for (a0, a1), ca in self._terms.items():
            cb = theirs.get((e0 - a0, e1 - a1))
            if cb is not None:
                total += ca * cb
        return total

    def _check(self, other: "TruncSeries2") -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"mismatched truncation degrees {self.truncation} != {other.truncation}"
            )

    def __sub__(self, other: "TruncSeries2") -> "TruncSeries2":
        self._check(other)
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e, 0) - c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        out = TruncSeries2.__new__(TruncSeries2)
        out.truncation = self.truncation
        out._terms = data
        return out

    def __mul__(self, other: "TruncSeries2") -> "TruncSeries2":
        """The product, accumulated in a flat list indexed by i * (cap + 1) + j,
        so the index of a product term is the sum of its factors' indices.
        The other factor's terms are bucketed by total degree, and a term of
        ``self`` of degree d meets only the prefix of degree <= cap - d."""
        self._check(other)
        cap = self.truncation
        width = cap + 1
        buckets: list[list[tuple[int, Fraction | int]]] = [[] for _ in range(width)]
        for (b0, b1), cb in other._terms.items():
            buckets[b0 + b1].append((b0 * width + b1, cb))
        theirs: list[tuple[int, Fraction | int]] = []
        ends = []  # ends[d]: the number of terms of degree <= d
        for bucket in buckets:
            theirs += bucket
            ends.append(len(theirs))
        acc: list[Fraction | int] = [0] * (width * width)
        for (a0, a1), ca in self._terms.items():
            base = a0 * width + a1
            for index, cb in theirs[: ends[cap - a0 - a1]]:
                acc[base + index] += ca * cb
        out = TruncSeries2.__new__(TruncSeries2)
        out.truncation = cap
        out._terms = {divmod(index, width): c for index, c in enumerate(acc) if c}
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncSeries2)
            and self.truncation == other.truncation
            and self._terms == other._terms
        )

    def __str__(self) -> str:
        return _format_terms(self.terms(), ("x", "y"))

    def __repr__(self) -> str:
        return f"TruncSeries2({self.truncation}, {dict(self.terms())!r})"


# -- root isolation ---------------------------------------------------------


class RootInterval(NamedTuple):
    """Open interval (lo, hi) containing exactly one root of the square-free
    part of the isolated polynomial; the part changes sign across it."""

    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi)}


class IsolationResult(NamedTuple):
    """Either "identically zero", or the complete list of isolating intervals
    for the distinct real roots in the scanned range (lo, hi]."""

    identically_zero: bool
    intervals: tuple[RootInterval, ...] = ()


def _primitive_positive(p: UniPoly) -> UniPoly:
    # scale by a positive rational: coprime integer coefficients, signs kept
    g = gcd(*p.nums)
    return UniPoly._make([v // g for v in p.nums]) if g else p


def _pseudo_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(q, r) with k*a = q*b + r and deg r < deg b, for integral a and b.

    k is a power of |lc(b)|, never of lc(b): a positive k makes r a positive
    multiple of the rational remainder of a by b, which keeps the signs that
    Sturm sign variations read.
    """
    rem, div = list(a.nums), b.nums
    db = len(div) - 1
    scale, flip = abs(div[-1]), (1 if div[-1] > 0 else -1)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * flip
        if not c:
            continue
        if scale != 1:
            rem = [v * scale for v in rem[:i]]
            quot = [v * scale for v in quot]
        quot[i - db] = c
        for j in range(db):
            rem[i - db + j] -= c * div[j]
    return UniPoly._make(quot), UniPoly._make(rem[:db])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Greatest common divisor with coprime integer coefficients and a positive
    leading coefficient, by the primitive remainder sequence."""
    a, b = _primitive_positive(a), _primitive_positive(b)
    while not b.is_zero():
        a, b = b, _primitive_positive(_pseudo_divmod(a, b)[1])
    return -a if a.nums and a.nums[-1] < 0 else a


# Word-size primes for the gcd degree bound, tried in order until one divides
# neither leading coefficient.
_GCD_PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)

# Evaluation points the heuristic gcd tries before it gives up.
_HEURISTIC_GCD_TRIES = 4


def _modular_gcd_degree(f: list[int], g: list[int]) -> int | None:
    """deg gcd(f mod P, g mod P) for the first prime P of ``_GCD_PRIMES`` that
    divides neither leading coefficient; None when every listed prime does.

    Reduction mod such a P keeps both degrees, so the image of gcd(f, g)
    divides the modular gcd: the result bounds deg gcd(f, g) from above
    (Brown 1971).
    """
    for prime in _GCD_PRIMES:
        if f[-1] % prime and g[-1] % prime:
            break
    else:
        return None
    a, b = [c % prime for c in f], [c % prime for c in g]
    while b:
        inv = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            c = a[-1] * inv % prime
            shift = len(a) - len(b)
            for j, v in enumerate(b):
                a[shift + j] = (a[shift + j] - c * v) % prime
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _exact_quotient(f: list[int], h: list[int]) -> list[int] | None:
    """f / h when h divides f in Z[t], else None; h is nonzero."""
    dh = len(h) - 1
    if len(f) <= dh:
        return None
    rem, lead = list(f), h[-1]
    quot = [0] * (len(f) - dh)
    for i in range(len(f) - 1, dh - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        if c:
            quot[i - dh] = c
            for j in range(dh):
                rem[i - dh + j] -= c * h[j]
    return None if any(rem[:dh]) else quot


def _heuristic_gcd(f: list[int], g: list[int]) -> list[int] | None:
    """A common divisor of f and g that is likely their gcd, or None.

    GCDHEU (Char, Geddes & Gonnet 1989): the integer gcd of f(xi) and g(xi)
    is read back as balanced base-xi digits, and its primitive part is kept
    once it divides both f and g exactly.  Dividing both only proves that
    the candidate divides the gcd; the caller proves equality by degree.
    """
    # xi exceeds every root of the input of smaller norm, so value is nonzero
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(_HEURISTIC_GCD_TRIES):
        value = gcd(_homogeneous_value(f, xi, 1), _homogeneous_value(g, xi, 1))
        digits = []
        while value:
            d = value % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            value = (value - d) // xi
        content = gcd(*digits) if digits[-1] > 0 else -gcd(*digits)
        h = [d // content for d in digits]
        if _exact_quotient(g, h) is not None and _exact_quotient(f, h) is not None:
            return h
        xi = xi * isqrt(xi) + 1
    return None


def square_free_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p') up to a positive factor: same roots, all simple.

    The gcd of the primitive integer p and p' is certified without a
    remainder sequence: a word-size prime bounds its degree from above, and
    a heuristic candidate that divides both exactly and meets that degree is
    the gcd.  The primitive remainder sequence (:func:`poly_gcd`) runs only
    when the heuristic fails or falls short of the bound.
    """
    if p.degree <= 0:
        return p
    f = list(_primitive_positive(p).nums)
    df = [i * c for i, c in enumerate(f)][1:]
    bound = _modular_gcd_degree(f, df)
    if bound == 0:
        return p
    h = _heuristic_gcd(f, df)
    if h is None or len(h) - 1 != bound:
        h = poly_gcd(p, p.derivative()).nums
    if len(h) == 1:
        return p
    q = _exact_quotient(f, h)
    if q is None:
        raise InvariantViolation(f"gcd(p, p') of degree {len(h) - 1} does not divide p of degree {p.degree}")
    return UniPoly._make(q)


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm chain: p, p', then negated remainders, each rescaled to primitive
    integer coefficients (positive rescaling preserves all sign variations).

    Isolation does not use it; it is the independent root count that
    :func:`count_roots` and the verification battery check isolation with.
    """
    chain = [_primitive_positive(p), _primitive_positive(p.derivative())]
    while chain[-1].degree > 0:
        rem = _primitive_positive(-_pseudo_divmod(chain[-2], chain[-1])[1])
        if rem.is_zero():
            break
        chain.append(rem)
    return [q for q in chain if not q.is_zero()]


def _homogeneous_value(coeffs: list[int], num: int, den: int) -> int:
    # den^d * P(num/den) for P of degree d, by integer Horner
    acc = 0
    den_pow = 1
    for c in reversed(coeffs):
        acc = acc * num + c * den_pow
        den_pow *= den
    return acc


def _sign_at_rational(coeffs: list[int], num: int, den: int) -> int:
    # sign of P(num/den) via the homogenized integer value (den > 0)
    acc = _homogeneous_value(coeffs, num, den)
    return (acc > 0) - (acc < 0)


def _variations_int(chain: Sequence[list[int]], at: Fraction) -> int:
    num, den = at.numerator, at.denominator
    signs = [s for s in (_sign_at_rational(c, num, den) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: Sequence[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the (square-free) chained polynomial in (lo, hi]."""
    # each den is positive, so the numerators take the signs of the polynomials
    chain_int = [q.nums for q in chain]
    return _variations_int(chain_int, Fraction(lo)) - _variations_int(chain_int, Fraction(hi))


def _descartes_bound(coeffs: list[int], a: Fraction, b: Fraction) -> int:
    """Sign variations of (1 + y)^d q((a y + b) / (1 + y)) for q = coeffs of
    degree d and a < b.

    y in (0, oo) maps onto x in (a, b), so by Descartes' rule of signs this
    bounds the roots of q in the open interval (a, b) from above, with the
    same parity: a bound of 0 or 1 is the exact count.  With a = A/D and
    b = B/D the transform is sum c_i (B + A y)^i (D + D y)^(d - i), built by
    one homogeneous Horner pass in integers.
    """
    den = lcm(a.denominator, b.denominator)
    num_a, num_b = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    acc = [coeffs[-1]]
    pascal = [1]  # (1 + y)^k
    den_pow = 1  # D^k
    for c in reversed(coeffs[:-1]):
        shifted = [v * num_b for v in acc] + [0]
        for k, v in enumerate(acc):
            shifted[k + 1] += v * num_a
        pascal = [1] + [u + v for u, v in zip(pascal, pascal[1:])] + [1]
        den_pow *= den
        scale = c * den_pow
        if scale:
            for k, v in enumerate(pascal):
                shifted[k] += scale * v
        acc = shifted
    signs = [v > 0 for v in acc if v]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _simple_roots_bound(coeffs: list[int], lo: Fraction, hi: Fraction) -> int | None:
    """Descartes' bound of coeffs on (lo, hi) when it is 0 or 1 and coeffs is
    nonzero at lo and hi, so that every root in [lo, hi] is simple; else None."""
    ends = all(_sign_at_rational(coeffs, v.numerator, v.denominator) for v in (lo, hi))
    bound = _descartes_bound(coeffs, lo, hi) if ends else 2
    return bound if bound <= 1 else None


def sturm_isolate(
    p: UniPoly,
    lo: Fraction | int,
    hi: Fraction | int,
    width: Fraction | int = Fraction(1, 2**20),
) -> IsolationResult:
    """Isolate every distinct real root of p in (lo, hi].

    Returns disjoint open intervals, one per root, each no wider than
    ``width`` and with a strict sign change of the square-free part of p at
    its endpoints.  A root landing exactly on a probe point (including hi)
    is enclosed by a small interval straddling it, which may extend just past
    the scanned range.

    The square-free part q is bisected dyadically.  A cell's root count is
    a Descartes bound (:func:`_descartes_bound`); a bound of 2 or more is
    settled exactly by bisecting inside the cell, so every decision uses the
    true count, the one a Sturm chain would give.  Once a cell holds exactly
    one root and q is nonzero at its left end, the descent follows the sign
    of q at each midpoint and counts nothing more.  When p is nonzero at lo
    and hi and its bound on (lo, hi) is 0 or 1, that bound counts the roots
    with multiplicity, so p has no repeated root there and is q itself on
    [lo, hi] up to a factor of constant sign (:func:`_simple_roots_bound`).
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    width = Fraction(width)
    if lo >= hi:
        raise ValueError(f"empty scan range: lo={lo} >= hi={hi}")
    if width <= 0:
        raise ValueError("width must be positive")
    if p.is_zero():
        return IsolationResult(identically_zero=True)

    q_int = _primitive_positive(p).nums
    bound = _simple_roots_bound(q_int, lo, hi)
    if bound is None:
        q_int = _primitive_positive(square_free_part(p)).nums
    bound_cache: dict[tuple[Fraction, Fraction], int] = {} if bound is None else {(lo, hi): bound}

    def q_sign(at: Fraction) -> int:
        return _sign_at_rational(q_int, at.numerator, at.denominator)

    def open_count(a: Fraction, b: Fraction) -> int:
        # exact root count on (a, b): cells with a bound of 2 or more are split
        total = 0
        cells = [(a, b)]
        while cells:
            cell = cells.pop()
            bound = bound_cache.get(cell)
            if bound is None:
                bound = bound_cache[cell] = _descartes_bound(q_int, *cell)
            if bound <= 1:
                total += bound
                continue
            mid = (cell[0] + cell[1]) / 2
            total += q_sign(mid) == 0
            cells += [(cell[0], mid), (mid, cell[1])]
        return total

    def roots_in(a: Fraction, b: Fraction) -> int:
        return open_count(a, b) + (q_sign(b) == 0)

    found: list[RootInterval] = []

    def emit(a: Fraction, b: Fraction) -> None:
        if q_sign(a) == q_sign(b):
            raise InvariantViolation(f"one root counted on ({a}, {b}) without a sign change")
        found.append(RootInterval(a, b))

    def emit_around(c: Fraction, left: Fraction, right: Fraction) -> tuple[Fraction, Fraction]:
        # c is an exact root; shrink a straddling interval until it isolates.
        rad = width / 2
        if c > left:
            rad = min(rad, (c - left) / 2)
        if c < right:
            rad = min(rad, (right - c) / 2)
        while True:
            a, b = c - rad, c + rad
            if q_sign(a) != 0 and q_sign(b) != 0 and roots_in(a, b) == 1:
                emit(a, b)
                return a, b
            rad /= 2

    def descend(a: Fraction, b: Fraction, sa: int, sb: int) -> None:
        # (a, b] holds exactly one root, which is simple, and q(a) != 0; the
        # cells are (A/D, B/D) with one denominator D that doubles per halving
        den = lcm(a.denominator, b.denominator)
        num_a, num_b = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        while (num_b - num_a) * width.denominator > width.numerator * den:
            num_a, num_b, den = 2 * num_a, 2 * num_b, 2 * den
            mid = (num_a + num_b) >> 1
            sm = _sign_at_rational(q_int, mid, den)
            if sm == 0:
                # the root is mid; the straddling interval stays inside (a, b)
                rad = min(width, Fraction(num_b - mid, den)) / 2
                emit(Fraction(mid, den) - rad, Fraction(mid, den) + rad)
                return
            if sm != sa:
                num_b, sb = mid, sm
            else:
                num_a, sa = mid, sm
        a, b = Fraction(num_a, den), Fraction(num_b, den)
        if sb == 0:
            # the root is b itself
            emit_around(b, a, b + (b - a))
        else:
            emit(a, b)

    # bisection over an explicit stack of ranges, left half on top, so a tiny
    # width costs no interpreter recursion depth
    pending = [(lo, hi)]
    while pending:
        a, b = pending.pop()
        n = roots_in(a, b)
        if n == 0:
            continue
        sa, sb = q_sign(a), q_sign(b)
        if n == 1 and sa != 0:
            descend(a, b, sa, sb)
            continue
        if n == 1 and sb == 0 and b - a <= width:
            # the single counted root is b itself
            emit_around(b, a, b + (b - a))
            continue
        mid = (a + b) / 2
        if q_sign(mid) == 0:
            lo2, hi2 = emit_around(mid, a, b)
            pending += [(hi2, b), (a, lo2)]
        else:
            pending += [(mid, b), (a, mid)]

    found.sort(key=lambda r: (r.lo, r.hi))
    return IsolationResult(identically_zero=False, intervals=tuple(found))
