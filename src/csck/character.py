"""The obstruction polynomial F and its fixed-point localization data.

The manifold under study is the projectivized rank-2 bundle
``P(H_m (+) H_n)`` over ``CP^m x CP^n``; its real second cohomology is
coordinatized as x*u + y*v + z*w.  A Kahler class carries a constant scalar
curvature metric exactly when the integral homogeneous polynomial F(x, y, z)
of degree m + n + 4 vanishes on it, where

    F = -(m(m+2) yz + n(n+2) xz + 2 xy) * g + xyz * h

and g, h are explicit alternating double sums over (s, q).

The circle action rotating the fiber has two fixed components, each a copy of
``CP^m x CP^n``; their weight data (r, kappa, a, b, rho, tau, delta) drives a
second, independent route to F: the localized sums produced by
:func:`localized_sum_poly` have g and -eps*h as their top two coefficients,
and :func:`assemble_from_localization` recombines their values into
``2^(m+n+2) (m+n+2)! F(lam, mu, nu)`` exactly.  Agreement of the two routes
is the package's central self-check.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import NamedTuple

from .exact import InvariantViolation
from .polynomials import Exponent3, MultiPoly3, UniPoly, _add_scaled, _homogeneous_value, _powers, _times_line_power
from .polynomials import int_power_table


def _make_checked(cls, iterable):
    """A namedtuple's ``_make``, and so its ``_replace``, through the
    validating ``__new__`` instead of around it."""
    return cls(*iterable)


class Dims(namedtuple("Dims", ("m", "n"))):
    """Complex dimensions (m, n) of the two projective-space factors."""

    __slots__ = ()

    def __new__(cls, m, n):
        for v in (m, n):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"dimensions must be integers, got ({m!r}, {n!r})")
        if m < 1 or n < 1:
            raise ValueError(f"dimensions must be positive, got ({m}, {n})")
        return super().__new__(cls, m, n)

    _make = classmethod(_make_checked)

    @property
    def fiber_sum(self) -> int:
        """m + n, the complex dimension of the base."""
        return self.m + self.n


class KahlerClass(namedtuple("KahlerClass", ("x", "y", "z"))):
    """Coordinates of a second-cohomology class in the basis (u, v, w)."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        return super().__new__(cls, Fraction(x), Fraction(y), Fraction(z))

    _make = classmethod(_make_checked)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self)

    def scaled(self, factor: Fraction | int) -> "KahlerClass":
        f = Fraction(factor)
        return KahlerClass(self.x * f, self.y * f, self.z * f)

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z})"


class FixedComponent(NamedTuple):
    """Localization constants of one fixed component, evaluated at an
    integral class (lam, mu, nu).

    index 1 is the section at fiber point (1, 0), index 2 at (0, 1); their
    rows are (r, kappa, a, b, rho, tau, delta) =
    (-1, -mu, m, n+2, lam-nu, mu, -1) and (1, -mu+nu, m+2, n, lam, mu-nu, 1).
    """

    index: int
    r: int
    kappa: int
    a: int
    b: int
    rho: int
    tau: int
    delta: int
    dims: Dims
    cls: KahlerClass


class CharacterPolys(NamedTuple):
    """g, h and the obstruction polynomial F for one choice of dimensions."""

    dims: Dims
    g: MultiPoly3
    h: MultiPoly3
    F: MultiPoly3

    def to_json(self) -> dict:
        return {
            "m": self.dims.m,
            "n": self.dims.n,
            "g": self.g.to_json_terms(),
            "h": self.h.to_json_terms(),
            "F": self.F.to_json_terms(),
            "degreeF": self.dims.fiber_sum + 4,
        }


def _add_shape(acc: dict[Exponent3, int], scale: int, e_x: int, e_y: int, shift_x: bool) -> None:
    # acc += scale * (x-z)^e_x y^e_y if shift_x, else scale * x^e_x (y-z)^e_y,
    # binomially expanded
    top = e_x if shift_x else e_y
    c = scale
    for i in range(top + 1):
        key = (e_x - i, e_y, i) if shift_x else (e_x, e_y - i, i)
        acc[key] = acc.get(key, 0) + c
        c = -c * (top - i) // (i + 1)


@lru_cache(maxsize=16)
def _shape_weights(d: Dims) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """((gu, hu), (gx, hx)): with U = x - z, X = x, Y = y, V = y - z and
    N = m + n + 2, g = sum_k gu_k U^k Y^(N-k) + gx_k X^k V^(N-k) and
    h = sum_j hu_j U^j Y^(N-1-j) + hx_j X^j V^(N-1-j) over j, k = 0..m.
    With c_j = (n+1) C(N,j) and c_(m+1) = 0, gx = -gu = c and the four
    scales of :func:`compute_h`, regrouped by the power j of U or X, give
    hu_j = -(n+1)(N-j) c_j - m(j+1) c_(j+1) and
    hx_j = ((n+1)(m+n) - 2(m+1) + (1-n) j) c_j + (m+2)(j+1) c_(j+1)."""
    m, n = d.m, d.n
    c = [(n + 1) * comb(m + n + 2, j) for j in range(m + 1)] + [0]
    hu = [-(n + 1) * (m + n + 2 - j) * c[j] - m * (j + 1) * c[j + 1] for j in range(m + 1)]
    hx = [((n + 1) * (m + n) - 2 * (m + 1) + (1 - n) * j) * c[j] + (m + 2) * (j + 1) * c[j + 1] for j in range(m + 1)]
    return (tuple(-w for w in c[:-1]), tuple(hu)), (tuple(c[:-1]), tuple(hx))


def _shape_terms(d: Dims, which: int) -> dict[Exponent3, int]:
    """g (which = 0) or h (which = 1) expanded from :func:`_shape_weights`."""
    degree = d.m + d.n + 2 - which
    acc: dict[Exponent3, int] = {}
    for shift_x, weights in zip((True, False), _shape_weights(d)):
        for j, w in enumerate(weights[which]):
            _add_shape(acc, w, j, degree - j, shift_x)
    return {e: v for e, v in acc.items() if v}


def _g_terms(d: Dims) -> dict[Exponent3, int]:
    return _shape_terms(d, 0)


def _h_terms(d: Dims) -> dict[Exponent3, int]:
    return _shape_terms(d, 1)


def compute_g(d: Dims) -> MultiPoly3:
    """The double sum g(x, y, z): homogeneous of degree N = m + n + 2,

        g = sum_{s,q} c(s,q) [(x-z)^k y^(N-k) - x^k (y-z)^(N-k)],   k = m - q,

    with c(s,q) = C(N,s) C(s,k) C(m+n-s,q) (-1)^(m+n+s+q+1).  The shapes
    depend on q alone, so g, h and the probe-line limits see c only through
    S0_q = sum_s c(s,q) = -(n+1) C(N,k) and
    S1_q = sum_s s c(s,q) = -C(N,k) ((n+1)(m+n) + n - q).

    Proof.  C(N,s) C(s,k) = C(N,k) C(a,j) with j = s - k and a = n + q + 2,
    so S0_q = (-1)^(n+1) C(N,k) sum_{j<=n} (-1)^j C(a,j) P(j), where
    P(j) = C(n+q-j, q) has degree q in j.  The full sum over j <= a is a
    difference of order a > q of P and vanishes.  P vanishes at
    j = n+1..n+q, so the truncated sum is minus the two tail terms at
    j = a-1 and a, where P is (-1)^q and (-1)^q (q+1): it is (-1)^n (n+1).
    In S1_q - k S0_q, j C(a,j) = a C(a-1,j-1) gives a difference of order
    a - 1 > q of P(j+1) cut at j = n-1; its two tail terms make the sum
    sum_j j (-1)^j C(a,j) P(j) equal to (-1)^n a n.

    limit_l2 (:func:`csck.cone.limit_l2`) times 2^N is
    sum_{s,q} c(s,q) [2(n-m)q^2 + (2(n+1)s + k1) q + k2 s + k3], with
    k1 = m^2 - 4mn - n^2 - 7m - 3n - 2, k2 = n^2 - mn - m + 2n + 1 and
    k3 = 3m^2 + m^2 n - n^3 - mn - 4n^2 - 2m - 4n.  By the moments its q-th
    term is (a0 + a1 k + a2 k(k-1)) C(N,k), with
    a0 = (n+1) N (m^2 - mn + 2m + n), a1 = -(n+1)(3m^2 - 2mn + 6m - n^2 + 2n + 1)
    and a2 = 2(n+1)(m-n+1).  k C(N,k) = N C(N-1,k-1) makes the sum
    a0 T_N(m) + a1 N T_(N-1)(m-1) + a2 N(N-1) T_(N-2)(m-2), in the partial
    row sums T_M(j) = sum_{i<=j} C(M,i).  Pascal's rule,
    T_M(j) = 2 T_(M-1)(j-1) + C(M-1,j), leaves T_(N-2)(m-2) with the
    coefficient 4 a0 + 2N a1 + N(N-1) a2, which is identically 0, and the
    boundary terms a0 (2 C(N-2,m-1) + C(N-1,m)) + a1 N C(N-2,m-1), which
    sum to (m+n) N! / (m! n!).  Along l1 only q = 0 reaches the limit,
    2 (L (n+2)^(n+1) - (L - 2 S0_0) n^(n+1)) / (n+2)^(n+2) with
    L = (n+1) S1_0 - (m + mn + 2n + n^2) S0_0, and by the moments L = 0.
    """
    return MultiPoly3._wrap(_g_terms(d))


def compute_h(d: Dims) -> MultiPoly3:
    """The double sum h(x, y, z): homogeneous of degree m + n + 1,

        h = sum_{s,q} c(s,q) [A (x-z)^k y^(N-k-1) + m k (x-z)^(k-1) y^(N-k)
                              + B x^k (y-z)^(N-k-1) - (m+2) k x^(k-1) (y-z)^(N-k)]

    with N, k and c(s,q) as in :func:`compute_g`, A = (N-s) + (n+2)(s-k)
    and B = (N-s) - n(s-k).  A and B are linear in s, so by the moments of
    :func:`compute_g` the four shapes carry the scales
    -(n+1)^2 (N-k) C(N,k), (n+1) ((n+1)(m+n) - 2(m+1) + (1-n) k) C(N,k),
    -m (n+1) k C(N,k) and (m+2) (n+1) k C(N,k).  The last two vanish at
    k = 0, so the exponent k - 1 is never formed negative.
    """
    return MultiPoly3._wrap(_h_terms(d))


@lru_cache(maxsize=None)
def compute_obstruction(d: Dims) -> CharacterPolys:
    """g, h and F together, with the structural invariants enforced.

    F = -m(m+2) yz g - n(n+2) xz g - 2 xy g + xyz h is summed from shifted
    copies of the integer term maps of g and h into one integer map.

    Raises :class:`InvariantViolation` if F fails integrality or any of the
    three homogeneity degrees is off; those can only mean a bug.
    """
    m, n = d.m, d.n
    g_terms = _g_terms(d)
    h_terms = _h_terms(d)
    shifts = (((0, 1, 1), -m * (m + 2)), ((1, 0, 1), -n * (n + 2)), ((1, 1, 0), -2))
    acc: dict[Exponent3, int] = {}
    for (ex, ey, ez), c in g_terms.items():
        for (dx, dy, dz), k in shifts:
            key = (ex + dx, ey + dy, ez + dz)
            acc[key] = acc.get(key, 0) + k * c
    for (ex, ey, ez), c in h_terms.items():
        key = (ex + 1, ey + 1, ez + 1)
        acc[key] = acc.get(key, 0) + c
    g = MultiPoly3._wrap(g_terms)
    h = MultiPoly3._wrap(h_terms)
    F = MultiPoly3._wrap({e: v for e, v in acc.items() if v})
    if not g.is_homogeneous(m + n + 2):
        raise InvariantViolation(f"g is not homogeneous of degree {m + n + 2} for {d}")
    if not h.is_homogeneous(m + n + 1):
        raise InvariantViolation(f"h is not homogeneous of degree {m + n + 1} for {d}")
    if not F.is_homogeneous(m + n + 4):
        raise InvariantViolation(f"F is not homogeneous of degree {m + n + 4} for {d}")
    if not F.has_integer_coefficients():
        raise InvariantViolation(f"F has a non-integer coefficient for {d}")
    return CharacterPolys(dims=d, g=g, h=h, F=F)


def _prefactor(d: Dims, x, y, z):
    """m(m+2) yz + n(n+2) xz + 2 xy, the factor of -g in F."""
    return d.m * (d.m + 2) * y * z + d.n * (d.n + 2) * x * z + 2 * x * y


def _integral(coords) -> tuple[int, list[int]]:
    """(L, L * coords) for the least L > 0 that makes every coordinate an integer."""
    coords = [Fraction(v) for v in coords]
    scale = lcm(*(c.denominator for c in coords))
    return scale, [c.numerator * (scale // c.denominator) for c in coords]


def obstruction_at(d: Dims, point) -> Fraction:
    """F at a rational point from the shape form, in O(m) products: at the
    point times its denominator L, over L^(m+n+4),

        F = sum over (a, b) = (U, Y), (X, V) of b^(n+1) (xyz H - Q b G),

    with Q = :func:`_prefactor`, G = sum_k g_k a^k b^(m-k) and H likewise
    (:func:`_shape_weights`)."""
    scale, (x, y, z) = _integral(point)
    total = 0
    for (a, b), (wg, wh) in zip(((x - z, y), (x, y - z)), _shape_weights(d)):
        inner = x * y * z * _homogeneous_value(wh, a, b) - _prefactor(d, x, y, z) * b * _homogeneous_value(wg, a, b)
        total += b ** (d.n + 1) * inner
    return Fraction(total, scale ** (d.m + d.n + 4))


def obstruction_on_line(d: Dims, start, end) -> UniPoly:
    """t -> F((1 - t) start + t end) from the shape form of :func:`obstruction_at`.

    Over the shared denominator L of the ends, x, y, z, U and V are integer
    lines in t.  Each G or H is a homogeneous Horner in its first line over
    the power table of its second.  The result is those integers over
    L^(m+n+4).
    """
    scale, coords = _integral((*start, *end))
    (x0, y0, z0), (x1, y1, z1) = p0, p1 = coords[:3], [b - a for a, b in zip(coords[:3], coords[3:])]
    if not any(p1):
        raise ValueError("coincident line endpoints")
    # the quadratic prefactor along the line: Q(p0) + B t + Q(p1) t^2, with
    # its polar term B = Q(p0 + p1) - Q(p0) - Q(p1)
    m, q0, q2 = d.m, _prefactor(d, *p0), _prefactor(d, *p1)
    q = [q0, _prefactor(d, x0 + x1, y0 + y1, z0 + z1) - q0 - q2, q2]
    xyz = _times_line_power(_times_line_power([x0, x1], y0, y1, 1), z0, z1, 1)
    forms, total = (((x0 - z0, x1 - z1), (y0, y1)), ((x0, x1), (y0 - z0, y1 - z1))), []
    for ((a0, a1), b), (wg, wh) in zip(forms, _shape_weights(d)):
        bpow, g, h = int_power_table(*b, m), [wg[m]], [wh[m]]
        for k in range(m - 1, -1, -1):
            g = [a0 * u + a1 * v + wg[k] * c for u, v, c in zip(g + [0], [0] + g, bpow[m - k])]
            h = [a0 * u + a1 * v + wh[k] * c for u, v, c in zip(h + [0], [0] + h, bpow[m - k])]
        inner = [0] * (m + 4)
        for i, (c_h, c_g) in enumerate(zip(xyz, _times_line_power(q, *b, 1))):
            for k, (f_g, f_h) in enumerate(zip(g, h)):
                inner[i + k] += c_h * f_h - c_g * f_g
        _add_scaled(total, 1, _times_line_power(inner, *b, d.n + 1))
    return UniPoly._make(total, scale ** (m + d.n + 4))


def slope(d: Dims, c: KahlerClass) -> Fraction:
    """The slope mu of a class with nonzero coordinates:
    (m(m+2) yz + n(n+2) xz + 2 xy) / ((m+n+1) xyz)."""
    x, y, z = c
    if x * y * z == 0:
        raise ValueError(f"slope undefined: class {c} has a zero coordinate")
    return _prefactor(d, x, y, z) / ((d.m + d.n + 1) * x * y * z)


def anticanonical_class(d: Dims) -> KahlerClass:
    """c1 of the total space: (m + 2, n + 2, 2)."""
    return KahlerClass(d.m + 2, d.n + 2, 2)


def _integral_coords(cls: KahlerClass) -> tuple[int, int, int]:
    if not cls.is_integral():
        raise ValueError(f"fixed-component data needs an integral class, got {cls}")
    return cls.x.numerator, cls.y.numerator, cls.z.numerator


def fixed_components(d: Dims, cls: KahlerClass) -> tuple[FixedComponent, FixedComponent]:
    """Weight data of the two fiber-fixed sections, evaluated at an
    integral class."""
    lam, mu, nu = _integral_coords(cls)
    m, n = d.m, d.n
    first = FixedComponent(1, -1, -mu, m, n + 2, lam - nu, mu, -1, d, cls)
    second = FixedComponent(2, 1, -mu + nu, m + 2, n, lam, mu - nu, 1, d, cls)
    return first, second


def alternating_power_sum(k: int, l: int) -> int:
    """sum_i (-1)^i C(k, i) (k - 2i)^l.

    Vanishes for 0 <= l < k and for l = k + 1, and equals 2^k k! at l = k:
    the derivative filter that extracts single coefficients during assembly.
    """
    if k < 0 or l < 0:
        raise ValueError("arguments must be non-negative")
    return sum((-1) ** i * comb(k, i) * (k - 2 * i) ** l for i in range(k + 1))


_EPS_VALUES = (-1, 0, 1)


def _check_component(d: Dims, fc: FixedComponent, cls: KahlerClass) -> None:
    if fc.dims != d or fc.cls != cls:
        raise ValueError(
            f"fixed component for dims={fc.dims}, cls={fc.cls} used with dims={d}, cls={cls}"
        )


def _check_eps(eps: int) -> None:
    if eps not in _EPS_VALUES:
        raise ValueError(f"eps must be -1, 0 or +1, got {eps}")


def localized_component_poly(d: Dims, fc: FixedComponent, eps: int, cls: KahlerClass) -> UniPoly:
    """One fixed component's share of the localized sum, as a polynomial in
    the evaluation parameter (degree <= m + n + 2).

    This is the reduced double sum
    sum_{s,q} C(m+n+2,s) C(s,m-q) C(m+n-s,q) (-1)^q delta
    (kappa t - r eps)^(m+n+2-s) (rho t - a eps)^(m-q) (tau t - b eps)^(s-m+q);
    the overall 1/p of the group-average normalization is deliberately
    dropped so everything stays in the rationals.
    """
    _check_eps(eps)
    _check_component(d, fc, cls)
    return UniPoly._make(_component_coeffs(d, fc, eps))


def _balanced_digits(value: int, shift: int, length: int) -> list[int]:
    """The digits c_0..c_(length-1) in [-2^(shift-1), 2^(shift-1)) of
    value = sum c_i 2^(shift i); :class:`InvariantViolation` if it needs more."""
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    digits = []
    for _ in range(length):
        digits.append((value & mask) - ((value & half) << 1))
        value = (value - digits[-1]) >> shift
    if value:
        raise InvariantViolation(f"{length} digits of {shift} bits leave a remainder")
    return digits


def _forms(fc: FixedComponent, eps: int) -> tuple[tuple[int, int], ...]:
    """(const, lin) of the forms kappa t - r eps, rho t - a eps, tau t - b eps."""
    return (-fc.r * eps, fc.kappa), (-fc.a * eps, fc.rho), (-fc.b * eps, fc.tau)


def _digit_shift(d: Dims, forms) -> int:
    """A digit width B for reading a localized sum back from t = 2^B.

    An (s, q) term is a product of N = m+n+2 of the forms, so the absolute
    values of its coefficients sum to at most size^N, with size the largest
    |const| + |lin|.  By Vandermonde over q the weights sum to 2^N C(m+n,m)
    in absolute value, so one component's coefficients are at most
    V = C(m+n,m) (2 size)^N, both components' at most 2V < 2^(B-1).
    """
    size = max(abs(c) + abs(l) for c, l in forms)
    return (comb(d.m + d.n, d.m) * (2 * size) ** (d.m + d.n + 2)).bit_length() + 2


def _component_coeffs(d: Dims, fc: FixedComponent, eps: int) -> list[int]:
    """The integer coefficients of :func:`localized_component_poly`: its
    value at t = 2^B (:func:`_digit_shift`) read back as balanced digits.

    With N = m+n+2 and k, r, t the forms kappa t - r eps, rho t - a eps,
    tau t - b eps, the double sum is delta times
    sum_{j<=m} [(m-j+1) C(N,j) ((k+t)^(N-j) (r-k)^j - t^(N-j) r^j)
                - N C(N-1,j) k t^(N-1-j) r^j].
    (1) Coefficient extraction: the q-sum is [u^m] (r u + t)^s (1-u)^(m+n-s).
    (2) The (1-u)^-2 rewrite: (1-u)^(m+n-s) = (1-u)^(N-s) (1-u)^-2, and
    [u^m] f(u) (1-u)^-e = sum_{j<=m} w_j [u^j] f, w_j = m-j+1 for e = 2 and
    1 for e = 1.  (3) The binomial theorem less the two top terms: over
    s = 0..N, sum_s C(N,s) (k(1-u))^(N-s) (r u + t)^s = (k + t + (r-k) u)^N,
    and s stops at m+n, so s = N, (r u + t)^N (1-u)^-2, and s = N-1,
    N k (r u + t)^(N-1) (1-u)^-1, come off.  Each j-sum is one integer
    Horner: O(m) products by the forms instead of O(mn) convolutions.
    """
    shift = _digit_shift(d, _forms(fc, eps))
    return _balanced_digits(_component_value(d, fc, eps, 1 << shift), shift, d.m + d.n + 3)


def _component_value(d: Dims, fc: FixedComponent, eps: int, x) -> int:
    """The closed form of :func:`_component_coeffs` at t = x."""
    m, n = d.m, d.n
    k, r, t = (c + l * x for c, l in _forms(fc, eps))
    w2 = [(m - j + 1) * comb(m + n + 2, j) for j in range(m + 1)]
    w1 = [comb(m + n + 1, j) for j in range(m + 1)]
    return fc.delta * (
        (k + t) ** (n + 2) * _homogeneous_value(w2, r - k, k + t)
        - t ** (n + 2) * _homogeneous_value(w2, r, t)
        - (m + n + 2) * k * t ** (n + 1) * _homogeneous_value(w1, r, t)
    )


@lru_cache(maxsize=4)
def _sum_form(d: Dims, lam: int, mu: int, nu: int) -> tuple[int, ...]:
    """c_0..c_N of both components' sum at eps = 1 for the class (lam, mu, nu).
    Its terms are products of N = m+n+2 forms linear in (t, eps), so at eps
    it is sum_i c_i eps^(N-i) t^i."""
    first, second = fixed_components(d, KahlerClass(lam, mu, nu))
    shift = _digit_shift(d, _forms(first, 1) + _forms(second, 1))
    total = _component_value(d, first, 1, 1 << shift) + _component_value(d, second, 1, 1 << shift)
    return tuple(_balanced_digits(total, shift, d.m + d.n + 3))


def _sum_coeffs(d: Dims, eps: int, cls: KahlerClass) -> list[int]:
    """The m + n + 3 integer coefficients of :func:`localized_sum_poly`."""
    _check_eps(eps)
    # the cache key is integers: hashing the class would hash three Fractions
    form = _sum_form(d, *_integral_coords(cls))
    return [c * eps ** (len(form) - 1 - i) for i, c in enumerate(form)]


def localized_sum_poly(d: Dims, eps: int, cls: KahlerClass) -> UniPoly:
    """Both components' localized sum.  Its coefficient at degree m+n+2 is
    g(lam, mu, nu), at degree m+n+1 is -eps * h(lam, mu, nu), and for eps = 0
    the polynomial is the single monomial g(lam, mu, nu) t^(m+n+2)."""
    return UniPoly._make(_sum_coeffs(d, eps, cls))


@lru_cache(maxsize=4)
def _direct_weights(d: Dims) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """C(N, s) and the (q, C(s, m-q) C(m+n-s, q) (-1)^q) for each s of
    :func:`localized_sum_poly_direct`, shared by every eps and class."""
    m, n = d.m, d.n
    rows = []
    for s in range(m + n + 1):
        qs = range(max(0, m - s), min(m, m + n - s) + 1)
        rows.append((comb(m + n + 2, s), tuple((q, comb(s, m - q) * comb(m + n - s, q) * (-1) ** q) for q in qs)))
    return tuple(rows)


def localized_sum_poly_direct(d: Dims, eps: int, cls: KahlerClass) -> UniPoly:
    """The same sum by the fully specialized two-row (s, q) double sum at
    t = 2^B, read back as balanced digits: an independent code path that
    must agree with :func:`localized_sum_poly` exactly."""
    _check_eps(eps)
    lam, mu, nu = _integral_coords(cls)
    m, n = d.m, d.n
    top = m + n + 2
    rows = (
        ((-eps, mu), (-m * eps, lam - nu), (-(n + 2) * eps, mu)),
        ((-eps, nu - mu), (-(m + 2) * eps, lam), (-n * eps, mu - nu)),
    )
    shift = _digit_shift(d, rows[0] + rows[1])
    (pow1k, pow1r, pow1t), (pow2k, pow2r, pow2t) = (
        [_powers(c + (l << shift), e) for (c, l), e in zip(row, (top, m, n))] for row in rows
    )
    total = 0
    for s, (c_s, weights) in enumerate(_direct_weights(d)):
        inner1 = inner2 = 0
        for q, c in weights:
            inner1 += c * pow1r[m - q] * pow1t[s - m + q]
            inner2 += c * pow2r[m - q] * pow2t[s - m + q]
        total += c_s * ((-1) ** (m + n + s + 1) * inner1 * pow1k[top - s] + inner2 * pow2k[top - s])
    return UniPoly._make(_balanced_digits(total, shift, top + 1))


def assemble_from_localization(d: Dims, cls: KahlerClass) -> Fraction:
    """Recombine localized-sum values into the obstruction: the result equals
    2^(m+n+2) (m+n+2)! F(lam, mu, nu) exactly.

    The two alternating-binomial filters evaluate the sums at the integer
    points m+n+1-2i and m+n+2-2i; only the top coefficients survive, which is
    what ties the localization route to the closed polynomial.
    """
    lam, mu, nu = _integral_coords(cls)
    s_minus, s_plus, s_zero = (_sum_coeffs(d, eps, cls) for eps in (-1, 1, 0))
    K = d.m + d.n
    diff = [a - b for a, b in zip(s_minus, s_plus)]
    first = sum((-1) ** i * comb(K + 1, i) * _homogeneous_value(diff, K + 1 - 2 * i, 1) for i in range(K + 2))
    second = sum((-1) ** i * comb(K + 2, i) * _homogeneous_value(s_zero, K + 2 - 2 * i, 1) for i in range(K + 3))
    return Fraction((K + 2) * lam * mu * nu * first - _prefactor(d, lam, mu, nu) * second)
