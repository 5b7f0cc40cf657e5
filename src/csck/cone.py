"""Zero-locus exploration inside the Kahler cone.

Positive classes are studied on the normalized face x + y + z = 1.  The only
region certified to consist of Kahler classes is the open triangle with
vertices A = (1,0,0), B = (0,1,0) and C = (m+2, n+2, 2)/(m+n+6) (the scaled
anticanonical direction); everywhere else the explorer still reports exact
signs of the obstruction polynomial but labels the Kahler status unknown.

Two probe lines drive the existence argument: l1 from A to C, along which
F vanishes to order exactly n + 3 with a negative normalized leading
coefficient, and l2 from the AB edge midpoint to the apex (0,0,1), along
which F vanishes to order exactly 2 with a positive one.  Both leading
coefficients have one-term closed forms, so these signs, and with them a
sign change inside the triangle, hold for every m, n >= 1.  A sign change
between interior points produces, by root isolation on the connecting
segment, certified intervals around classes where the obstruction vanishes.
The isolation counts roots by Descartes' rule of signs and proves each
interval by a sign change of the square-free restriction.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .character import Dims, KahlerClass, anticanonical_class
from .character import obstruction_at, obstruction_on_line
from .exact import InvariantViolation, binomial, sign, to_integers
from .polynomials import DEFAULT_WIDTH, RootInterval, UniPoly, _exact_quotient, sturm_isolate

REGION_INSIDE = "inside"
REGION_BOUNDARY = "boundary"
REGION_OUTSIDE = "outside"
REGION_NOT_NORMALIZABLE = "not-normalizable"

SIGN_NAMES = {-1: "negative", 0: "zero", 1: "positive"}

# The narrowest isolation width a command accepts; each halving below the
# default lengthens the rationals every sign evaluation multiplies.
MIN_WIDTH = Fraction(1, 2**2048)

# sample_face yields its points one lattice row at a time, but R = 500 is
# still 124,251 points, each a line of output
MAX_RESOLUTION = 500

# The largest m or n a command accepts; F has degree m + n + 4, and
# character builds it whole.
MAX_DIM = 100

# The most scan worker processes; a process pool starts every worker at once.
MAX_JOBS = 64

_FACE_A = KahlerClass(1, 0, 0)
_FACE_B = KahlerClass(0, 1, 0)
_EDGE_MIDPOINT = KahlerClass(Fraction(1, 2), Fraction(1, 2), 0)
_APEX = KahlerClass(0, 0, 1)


def vertex_c(d: Dims) -> KahlerClass:
    """The anticanonical direction scaled onto the face: (m+2, n+2, 2)/(m+n+6)."""
    return anticanonical_class(d).scaled(Fraction(1, d.m + d.n + 6))


def _region(d: Dims, x, y, z) -> str:
    """Region label of a class with x + y + z > 0 against the triangle ABC.

    The barycentric coordinates of the class scaled onto the face, each
    multiplied by 2(x + y + z) > 0, are 2x - (m+2)z, 2y - (n+2)z and
    (m+n+6)z; only their signs matter, so no division is needed and integer
    coordinates stay integers.
    """
    alpha = 2 * x - (d.m + 2) * z
    beta = 2 * y - (d.n + 2) * z
    if alpha > 0 and beta > 0 and z > 0:
        return REGION_INSIDE
    if alpha < 0 or beta < 0 or z < 0:
        return REGION_OUTSIDE
    return REGION_BOUNDARY


def in_kahler_triangle(d: Dims, c: KahlerClass) -> str:
    """Classify a class against the certified triangle ABC.

    Its ray meets the face only when x+y+z > 0.  Only "inside" certifies a
    Kahler class; "outside" and "boundary" make no claim about the actual
    Kahler cone.
    """
    if c.x + c.y + c.z <= 0:
        return REGION_NOT_NORMALIZABLE
    return _region(d, c.x, c.y, c.z)


def limit_l1(d: Dims) -> Fraction:
    """Closed form of lim F(l1(t)) / y1(t)^(n+3) as t -> 0+ along the line
    from A to C: -4 (n+1) C(N, m) n^(n+1) / (n+2)^(n+2) with N = m + n + 2,
    negative for every m, n >= 1 (derived in
    :func:`csck.character._shape_weights`)."""
    m, n = d.m, d.n
    return Fraction(-4 * (n + 1) * binomial(m + n + 2, m) * n ** (n + 1), (n + 2) ** (n + 2))


def limit_l2(d: Dims) -> Fraction:
    """Closed form of lim F(l2(t)) / z2(t)^2 as t -> 0+ along the line from
    the AB midpoint to the apex: (m+n) N! / (m! n! 2^N) with N = m + n + 2,
    positive for every m, n >= 1 (derived in
    :func:`csck.character._shape_weights`)."""
    m, n = d.m, d.n
    big_n = m + n + 2
    return Fraction((m + n) * big_n * (big_n - 1) * binomial(m + n, m), 2**big_n)


def sign_at(d: Dims, c: KahlerClass) -> int:
    """Exact sign (-1, 0, +1) of the obstruction polynomial at a class."""
    return sign(obstruction_at(d, c))


def ke_check(d: Dims) -> Fraction:
    """F on the anticanonical class; zero would be the necessary condition
    for a Kahler-Einstein metric."""
    return obstruction_at(d, anticanonical_class(d))


class IsolatedRoot(NamedTuple):
    interval: RootInterval
    midpoint_class: KahlerClass
    inside_certified: bool

    def to_json(self) -> dict:
        return {
            **self.interval.to_json(),
            "midpoint_class": [str(v) for v in self.midpoint_class],
            "inside_certified": self.inside_certified,
        }


class SegmentReport(NamedTuple):
    """Roots of the obstruction along a parametrized segment."""

    dims: Dims
    start: KahlerClass
    end: KahlerClass
    sign_start: int
    sign_end: int
    identically_zero: bool
    roots: tuple[IsolatedRoot, ...]

    def to_json(self) -> dict:
        return {
            "m": self.dims.m,
            "n": self.dims.n,
            "from": [str(v) for v in self.start],
            "to": [str(v) for v in self.end],
            "sign_from": SIGN_NAMES[self.sign_start],
            "sign_to": SIGN_NAMES[self.sign_end],
            "identically_zero": self.identically_zero,
            "intervals": [r.to_json() for r in self.roots],
        }


def _check_width(width: Fraction | int) -> None:
    if width < MIN_WIDTH:
        raise ValueError("width must be at least 1/2^2048")


def _point_on_segment(start: KahlerClass, end: KahlerClass, t: Fraction) -> KahlerClass:
    return KahlerClass(*(s + t * (e - s) for s, e in zip(start, end)))


def isolate_on_segment(
    d: Dims,
    start: KahlerClass,
    end: KahlerClass,
    width: Fraction | int = DEFAULT_WIDTH,
) -> SegmentReport:
    """Isolate the zero classes of F on the half-open segment t in (0, 1].

    Each root interval is reported with its midpoint class and a flag telling
    whether the whole corresponding sub-segment lies in the certified Kahler
    triangle (by convexity, true exactly when both interval endpoints map
    inside).  A zero at t = 1 gets a small interval straddling it, which may
    reach past the segment's end.  Differing endpoint signs force at least
    one interval.  A width below :data:`MIN_WIDTH` is refused before any work.

    z^2 divides F (pinned by ``test_f_is_z_squared_times_an_irreducible``), so
    when z has one strict sign on every t the isolation probes, the
    restriction is divided exactly by the primitive z(t)^2 first; a remainder
    raises :class:`InvariantViolation`.  The quotient has the same roots and
    signs there, so the intervals are the same.  The probes stay in [0, 1],
    and reach up to t = 3/2 only around a zero at t = 1.
    """
    if start == end:
        raise ValueError("segment endpoints coincide")
    _check_width(width)
    restricted = obstruction_on_line(d, start, end)
    # the restriction is exact, so its values at t = 0 and 1 are F at the ends
    sign_start = sign(restricted.evaluate(0))
    sign_end = sign(restricted.evaluate(1))
    _, coords = to_integers((*start, *end))
    points = list(zip(coords[:3], coords[3:]))
    z0, z1 = points[2]
    if z0 != z1 and z0 * z1 > 0 and (sign_end or z0 * (3 * z1 - z0) > 0) and not restricted.is_zero():
        c0, c1 = (v // gcd(z0, z1 - z0) for v in (z0, z1 - z0))
        quotient = _exact_quotient(list(restricted.nums), [c0 * c0, 2 * c0 * c1, c1 * c1])
        if quotient is None:
            raise InvariantViolation(f"z(t)^2 does not divide F on the segment from {start} to {end} for {d}")
        restricted = UniPoly._make(quotient, restricted.den)
    result = sturm_isolate(restricted, Fraction(0), Fraction(1), width)

    def inside(t: Fraction) -> bool:
        # the line point times its positive denominator, in integers
        a, b = t.numerator, t.denominator
        return _region(d, *((b - a) * p + a * q for p, q in points)) == REGION_INSIDE

    roots = tuple(
        IsolatedRoot(iv, _point_on_segment(start, end, iv.midpoint()), inside(iv.lo) and inside(iv.hi))
        for iv in result.intervals
    )
    if sign_start * sign_end < 0 and not roots:
        raise InvariantViolation("endpoint signs differ but no root interval was isolated")
    return SegmentReport(d, start, end, sign_start, sign_end, result.identically_zero, roots)


class ScanRow(NamedTuple):
    """Verdicts for one dimension pair."""

    m: int
    n: int
    limit1: Fraction
    limit2: Fraction
    f_at_c1: Fraction
    ke_admissible: bool
    sign_change_found: bool
    paper_backed: bool
    witness_start: KahlerClass | None = None
    witness_end: KahlerClass | None = None
    witness_intervals: tuple[RootInterval, ...] = ()

    def to_json(self) -> dict:
        obj = {
            "m": self.m,
            "n": self.n,
            "limit_l1": str(self.limit1),
            "limit_l2": str(self.limit2),
            "F_at_c1": str(self.f_at_c1),
            "ke_admissible": self.ke_admissible,
            "sign_change_found": self.sign_change_found,
            "paper_backed": self.paper_backed,
        }
        if self.witness_start is not None and self.witness_end is not None:
            obj["witness"] = {
                "from": [str(v) for v in self.witness_start],
                "to": [str(v) for v in self.witness_end],
                "intervals": [iv.to_json() for iv in self.witness_intervals],
            }
        return obj


_WITNESS_HALVINGS = 20


def _search_signed_point(d: Dims, start: KahlerClass, end: KahlerClass, wanted: int) -> KahlerClass | None:
    # walk t = 1/8, 1/16, ... toward the segment start; F is homogeneous, so
    # each probe is the point at t = 1/2^k times 2^k L > 0, in integers
    _, coords = to_integers((*start, *end))
    for k in range(3, 3 + _WITNESS_HALVINGS):
        if sign_at(d, KahlerClass(*((2**k - 1) * a + b for a, b in zip(coords[:3], coords[3:])))) == wanted:
            return _point_on_segment(start, end, Fraction(1, 2**k))
    return None


def scan_pair(m: int, n: int, width: Fraction = DEFAULT_WIDTH) -> ScanRow:
    """All verdicts for one (m, n): limit constants, the anticanonical check,
    and a sign-change witness with isolated roots when one exists.

    The positive witness is searched along l2 (limit_l2 > 0 guarantees one
    near its start for every pair); the negative witness is the
    anticanonical vertex when F is negative there, else searched along l1.
    """
    d = Dims(m, n)
    f_at_c1 = ke_check(d)
    vc = vertex_c(d)
    positive = _search_signed_point(d, _EDGE_MIDPOINT, _APEX, +1)
    # F is homogeneous and C = c1 / (m+n+6), so F(C) has the sign of F(c1)
    if f_at_c1 < 0:
        negative = vc
    else:
        negative = _search_signed_point(d, _FACE_A, vc, -1)
    sign_change = positive is not None and negative is not None
    intervals: tuple[RootInterval, ...] = ()
    if sign_change:
        report = isolate_on_segment(d, positive, negative, width)
        intervals = tuple(r.interval for r in report.roots)
    return ScanRow(
        m=m,
        n=n,
        limit1=limit_l1(d),
        limit2=limit_l2(d),
        f_at_c1=f_at_c1,
        ke_admissible=f_at_c1 == 0,
        sign_change_found=sign_change,
        paper_backed=1 <= m < n <= 10,
        witness_start=positive if sign_change else None,
        witness_end=negative if sign_change else None,
        witness_intervals=intervals,
    )


def scan_range(
    m_lo: int,
    m_hi: int,
    n_lo: int,
    n_hi: int,
    all_pairs: bool = False,
    jobs: int = 1,
    width: Fraction = DEFAULT_WIDTH,
) -> list[ScanRow]:
    """Scan every requested dimension pair, in lexicographic row order.

    By default only pairs with m < n are emitted; ``all_pairs`` admits the
    rest (reported, but with no backing claims).  ``jobs`` > 1 fans the pairs
    out over at most ``jobs`` processes, never more than there are pairs; the
    result order is independent of it.  Bounds past :data:`MAX_DIM`,
    ``jobs`` outside 1..:data:`MAX_JOBS` and a width below :data:`MIN_WIDTH`
    are refused before any work.
    """
    if m_lo < 1 or n_lo < 1:
        raise ValueError("dimension bounds must be >= 1")
    if m_hi < m_lo or n_hi < n_lo:
        raise ValueError("empty dimension range")
    if m_hi > MAX_DIM or n_hi > MAX_DIM:
        raise ValueError(f"dimension bounds must be at most {MAX_DIM}, got m..{m_hi}, n..{n_hi}")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be 1 to {MAX_JOBS}, got {jobs}")
    _check_width(width)
    pairs = [
        (m, n)
        for m in range(m_lo, m_hi + 1)
        for n in range(n_lo, n_hi + 1)
        if all_pairs or m < n
    ]
    if jobs > 1 and len(pairs) > 1:
        # imported here: the pool machinery loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

        ms, ns = zip(*pairs)
        with ProcessPoolExecutor(max_workers=min(jobs, len(pairs))) as pool:
            return list(pool.map(scan_pair, ms, ns, [width] * len(pairs)))
    return [scan_pair(m, n, width) for m, n in pairs]


class FaceSample(NamedTuple):
    point: KahlerClass
    sign: int
    region: str

    def to_json(self) -> dict:
        return {
            "point": [str(v) for v in self.point],
            "sign": SIGN_NAMES[self.sign],
            "region": self.region,
        }


def sample_face(d: Dims, resolution: int) -> Iterator[FaceSample]:
    """Signs and region labels on the interior lattice of the face:
    points (i, j, k)/R with i + j + k = R and i, j, k >= 1, in order of i,
    then j.

    The arguments are checked when this is called; the samples are then
    produced one lattice row at a time as the iterator is read.
    """
    if isinstance(resolution, bool) or not isinstance(resolution, int):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 3:
        raise ValueError(f"resolution must be at least 3, the first with an interior point, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, got {resolution}")
    return _face_rows(d, resolution)


def _face_rows(d: Dims, r: int) -> Iterator[FaceSample]:
    # F is homogeneous and R > 0, so F(i/R, j/R, k/R) has the sign of the
    # integer F(i, j, k); row i is F(i, t, R - i - t) restricted from the
    # shape form, with integer ends and so integer coefficients, taken at
    # t = j by plain integer Horner over the reversed row.  The points share
    # one coordinate table and skip KahlerClass's Fraction conversion; they
    # lie on the face x + y + z = 1 by the integer identity i + j + k = R.
    coords = [Fraction(v, r) for v in range(r)]
    for i in range(1, r - 1):
        row = obstruction_on_line(d, (i, 0, r - i), (i, 1, r - i - 1)).nums[::-1]
        for j in range(1, r - i):
            k = r - i - j
            value = 0
            for c in row:
                value = value * j + c
            yield FaceSample(
                tuple.__new__(KahlerClass, (coords[i], coords[j], coords[k])),
                sign(value),
                _region(d, i, j, k),
            )
