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
from typing import NamedTuple

from .exact import InvariantViolation, binomial
from .polynomials import Exponent3, MultiPoly3, UniPoly, _homogeneous_value, int_convolve_into, int_power_table


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


def _double_sum_coeff(d: Dims, s: int, q: int) -> int:
    m, n = d.m, d.n
    return (
        binomial(m + n + 2, s)
        * binomial(s, m - q)
        * binomial(m + n - s, q)
        * (-1) ** (m + n + s + q + 1)
    )


def _moments(d: Dims) -> list[tuple[int, int]]:
    """(S0_q, S1_q) = (sum_s c(s, q), sum_s s c(s, q)) for q = 0..m.

    The shapes in g and h depend on q alone and their scales are at most
    linear in s, so these two moments carry all of the s-sum."""
    m, n = d.m, d.n
    moments = []
    for q in range(m + 1):
        s0 = s1 = 0
        for s in range(m - q, m + n - q + 1):
            c = _double_sum_coeff(d, s, q)
            s0 += c
            s1 += s * c
        moments.append((s0, s1))
    return moments


def _add_shape(acc: dict[Exponent3, int], scale: int, e_x: int, e_y: int, shift_x: bool) -> None:
    # acc += scale * (x-z)^e_x y^e_y if shift_x, else scale * x^e_x (y-z)^e_y,
    # binomially expanded
    top = e_x if shift_x else e_y
    c = scale
    for i in range(top + 1):
        key = (e_x - i, e_y, i) if shift_x else (e_x, e_y - i, i)
        acc[key] = acc.get(key, 0) + c
        c = -c * (top - i) // (i + 1)


def _g_terms(d: Dims, moments: list[tuple[int, int]]) -> dict[Exponent3, int]:
    m, n = d.m, d.n
    acc: dict[Exponent3, int] = {}
    for q, (s0, _) in enumerate(moments):
        _add_shape(acc, s0, m - q, n + q + 2, True)
        _add_shape(acc, -s0, m - q, n + q + 2, False)
    return {e: v for e, v in acc.items() if v}


def _h_terms(d: Dims, moments: list[tuple[int, int]]) -> dict[Exponent3, int]:
    m, n = d.m, d.n
    acc: dict[Exponent3, int] = {}
    for q, (s0, s1) in enumerate(moments):
        k = m - q
        _add_shape(acc, (m + n + 2 + (n + 2) * (q - m)) * s0 + (n + 1) * s1, k, n + q + 1, True)
        _add_shape(acc, (m + n + 2 + n * k) * s0 - (n + 1) * s1, k, n + q + 1, False)
        if k:
            _add_shape(acc, m * k * s0, k - 1, n + q + 2, True)
            _add_shape(acc, -(m + 2) * k * s0, k - 1, n + q + 2, False)
    return {e: v for e, v in acc.items() if v}


def compute_g(d: Dims) -> MultiPoly3:
    """The double sum g(x, y, z): homogeneous of degree m + n + 2,

        g = sum_{s,q} c(s,q) [(x-z)^(m-q) y^(n+q+2) - x^(m-q) (y-z)^(n+q+2)]
          = sum_q S0_q [(x-z)^(m-q) y^(n+q+2) - x^(m-q) (y-z)^(n+q+2)]

    with c(s,q) = C(m+n+2,s) C(s,m-q) C(m+n-s,q) (-1)^(m+n+s+q+1) and
    S0_q = sum_s c(s,q): each shape is expanded once per q.
    """
    return MultiPoly3._wrap(_g_terms(d, _moments(d)))


def compute_h(d: Dims) -> MultiPoly3:
    """The double sum h(x, y, z): homogeneous of degree m + n + 1,

        h = sum_{s,q} c(s,q) [A (x-z)^(m-q) y^(n+q+1) + m(m-q) (x-z)^(m-q-1) y^(n+q+2)
                              + B x^(m-q) (y-z)^(n+q+1) - (m+2)(m-q) x^(m-q-1) (y-z)^(n+q+2)]

    with A = (m+n+2-s) + (n+2)(s-m+q) and B = (m+n+2-s) - n(s-m+q).  A and B
    are linear in s, so with S0_q = sum_s c(s,q) and S1_q = sum_s s c(s,q)
    the s-sum of each shape's scale is

        A: (m+n+2 + (n+2)(q-m)) S0_q + (n+1) S1_q
        B: (m+n+2 + n(m-q)) S0_q - (n+1) S1_q

    and m(m-q) S0_q, -(m+2)(m-q) S0_q for the other two; each shape is
    expanded once per q.  The (m - q) terms are dropped when q = m, so the
    exponent m - q - 1 is never formed negative.
    """
    return MultiPoly3._wrap(_h_terms(d, _moments(d)))


@lru_cache(maxsize=None)
def compute_obstruction(d: Dims) -> CharacterPolys:
    """g, h and F together, with the structural invariants enforced.

    F = -m(m+2) yz g - n(n+2) xz g - 2 xy g + xyz h is summed from shifted
    copies of the integer term maps of g and h into one integer map.

    Raises :class:`InvariantViolation` if F fails integrality or any of the
    three homogeneity degrees is off; those can only mean a bug.
    """
    m, n = d.m, d.n
    moments = _moments(d)
    g_terms = _g_terms(d, moments)
    h_terms = _h_terms(d, moments)
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


def slope(d: Dims, c: KahlerClass) -> Fraction:
    """The slope mu of a class with nonzero coordinates:
    (m(m+2) yz + n(n+2) xz + 2 xy) / ((m+n+1) xyz)."""
    x, y, z = c
    if x * y * z == 0:
        raise ValueError(f"slope undefined: class {c} has a zero coordinate")
    m, n = d.m, d.n
    return (m * (m + 2) * y * z + n * (n + 2) * x * z + 2 * x * y) / ((m + n + 1) * x * y * z)


def anticanonical_class(d: Dims) -> KahlerClass:
    """c1 of the total space: (m + 2, n + 2, 2)."""
    return KahlerClass(d.m + 2, d.n + 2, 2)


def fixed_components(d: Dims, cls: KahlerClass) -> tuple[FixedComponent, FixedComponent]:
    """Weight data of the two fiber-fixed sections, evaluated at an
    integral class."""
    if not cls.is_integral():
        raise ValueError(f"fixed-component data needs an integral class, got {cls}")
    lam, mu, nu = (int(v) for v in cls)
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
    return sum((-1) ** i * binomial(k, i) * (k - 2 * i) ** l for i in range(k + 1))


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


@lru_cache(maxsize=None)
def _component_weights(d: Dims) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For s = 0..m+n: C(m+n+2, s) and the pairs (q, C(s, m-q) C(m+n-s, q) (-1)^q)
    over the q range where that weight is nonzero, 0 <= s-m+q <= n.  They
    depend on the dimensions alone, not on the component, class or eps."""
    m, n = d.m, d.n
    return tuple(
        (
            binomial(m + n + 2, s),
            tuple(
                (q, binomial(s, m - q) * binomial(m + n - s, q) * (-1) ** q)
                for q in range(max(0, m - s), min(m, m + n - s) + 1)
            ),
        )
        for s in range(m + n + 1)
    )


def _component_coeffs(d: Dims, fc: FixedComponent, eps: int) -> list[int]:
    """The integer coefficients of :func:`localized_component_poly`."""
    m, n = d.m, d.n
    top = m + n + 2
    pow_k = int_power_table(-fc.r * eps, fc.kappa, top)
    pow_r = int_power_table(-fc.a * eps, fc.rho, m)
    pow_t = int_power_table(-fc.b * eps, fc.tau, n)
    acc = [0] * (top + 1)
    for s, (outer, weights) in enumerate(_component_weights(d)):
        # the q-sum, of degree s
        inner = [0] * (s + 1)
        for q, c in weights:
            int_convolve_into(inner, c, pow_r[m - q], pow_t[s - m + q])
        int_convolve_into(acc, outer * fc.delta, inner, pow_k[top - s])
    return acc


def localized_sum_poly(d: Dims, eps: int, cls: KahlerClass) -> UniPoly:
    """Both components' localized sum.  Its coefficient at degree m+n+2 is
    g(lam, mu, nu), at degree m+n+1 is -eps * h(lam, mu, nu), and for eps = 0
    the polynomial is the single monomial g(lam, mu, nu) t^(m+n+2)."""
    return UniPoly._make(_sum_coeffs(d, eps, cls))


def _sum_coeffs(d: Dims, eps: int, cls: KahlerClass) -> list[int]:
    """The integer coefficients of :func:`localized_sum_poly`; both
    components' lists have length m + n + 3 and add termwise."""
    first, second = fixed_components(d, cls)
    _check_eps(eps)
    return [u + v for u, v in zip(_component_coeffs(d, first, eps), _component_coeffs(d, second, eps))]


def localized_sum_poly_direct(d: Dims, eps: int, cls: KahlerClass) -> UniPoly:
    """The same sum by the fully specialized two-row formula: an independent
    code path that must agree with :func:`localized_sum_poly` exactly."""
    _check_eps(eps)
    if not cls.is_integral():
        raise ValueError(f"integral class required, got {cls}")
    lam, mu, nu = (int(v) for v in cls)
    m, n = d.m, d.n
    top = m + n + 2
    pow1k = int_power_table(-eps, mu, top)
    pow1r = int_power_table(-m * eps, lam - nu, m)
    pow1t = int_power_table(-(n + 2) * eps, mu, n)
    pow2k = int_power_table(-eps, -mu + nu, top)
    pow2r = int_power_table(-(m + 2) * eps, lam, m)
    pow2t = int_power_table(-n * eps, mu - nu, n)
    acc = [0] * (top + 1)
    for s in range(m + n + 1):
        inner1 = [0] * (s + 1)
        inner2 = [0] * (s + 1)
        for q in range(max(0, m - s), min(m, m + n - s) + 1):
            c = binomial(s, m - q) * binomial(m + n - s, q) * (-1) ** q
            int_convolve_into(inner1, c, pow1r[m - q], pow1t[s - m + q])
            int_convolve_into(inner2, c, pow2r[m - q], pow2t[s - m + q])
        c = binomial(m + n + 2, s)
        int_convolve_into(acc, c * (-1) ** (m + n + s + 1), inner1, pow1k[top - s])
        int_convolve_into(acc, c, inner2, pow2k[top - s])
    return UniPoly._make(acc)


def assemble_from_localization(d: Dims, cls: KahlerClass) -> Fraction:
    """Recombine localized-sum values into the obstruction: the result equals
    2^(m+n+2) (m+n+2)! F(lam, mu, nu) exactly.

    The two alternating-binomial filters evaluate the sums at the integer
    points m+n+1-2i and m+n+2-2i; only the top coefficients survive, which is
    what ties the localization route to the closed polynomial.
    """
    lam, mu, nu = cls
    m, n = d.m, d.n
    K = m + n
    s_minus = _sum_coeffs(d, -1, cls)
    s_plus = _sum_coeffs(d, +1, cls)
    s_zero = _sum_coeffs(d, 0, cls)
    diff = [a - b for a, b in zip(s_minus, s_plus)]
    first = sum(
        ((-1) ** i * binomial(K + 1, i)) * _homogeneous_value(diff, K + 1 - 2 * i, 1)
        for i in range(K + 2)
    )
    second = sum(
        ((-1) ** i * binomial(K + 2, i)) * _homogeneous_value(s_zero, K + 2 - 2 * i, 1)
        for i in range(K + 3)
    )
    return (K + 2) * lam * mu * nu * first - (
        m * (m + 2) * mu * nu + n * (n + 2) * lam * nu + 2 * lam * mu
    ) * second
