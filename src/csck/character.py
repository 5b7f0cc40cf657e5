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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import InvariantViolation, binomial
from .polynomials import MultiPoly3, UniPoly, int_convolve_into, int_power_table


@dataclass(frozen=True)
class Dims:
    """Complex dimensions (m, n) of the two projective-space factors."""

    m: int
    n: int

    def __post_init__(self):
        for v in (self.m, self.n):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"dimensions must be integers, got ({self.m!r}, {self.n!r})")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be positive, got ({self.m}, {self.n})")

    @property
    def fiber_sum(self) -> int:
        """m + n, the complex dimension of the base."""
        return self.m + self.n


class KahlerClass(namedtuple("KahlerClass", ("x", "y", "z"))):
    """Coordinates of a second-cohomology class in the basis (u, v, w)."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        return super().__new__(cls, Fraction(x), Fraction(y), Fraction(z))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self)

    def scaled(self, factor: Fraction | int) -> "KahlerClass":
        f = Fraction(factor)
        return KahlerClass(self.x * f, self.y * f, self.z * f)

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z})"


@dataclass(frozen=True)
class FixedComponent:
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


@dataclass(frozen=True)
class CharacterPolys:
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


def _accumulate_shifted(
    acc: dict[tuple[int, int, int], int],
    scale: int,
    shift_x: bool,
    e_x: int,
    shift_y: bool,
    e_y: int,
) -> None:
    # scale * (x-z if shift_x else x)^e_x * (y-z if shift_y else y)^e_y,
    # binomially expanded into an integer coefficient map.
    for i in range(e_x + 1) if shift_x else (0,):
        cx = binomial(e_x, i) * (-1) ** i if shift_x else 1
        for j in range(e_y + 1) if shift_y else (0,):
            cy = binomial(e_y, j) * (-1) ** j if shift_y else 1
            key = (e_x - i, e_y - j, i + j)
            acc[key] = acc.get(key, 0) + scale * cx * cy


def compute_g(d: Dims) -> MultiPoly3:
    """The double sum g(x, y, z): homogeneous of degree m + n + 2."""
    m, n = d.m, d.n
    acc: dict[tuple[int, int, int], int] = {}
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = _double_sum_coeff(d, s, q)
            if c == 0:
                continue
            _accumulate_shifted(acc, c, True, m - q, False, n + q + 2)
            _accumulate_shifted(acc, -c, False, m - q, True, n + q + 2)
    return MultiPoly3({e: v for e, v in acc.items() if v})


def compute_h(d: Dims) -> MultiPoly3:
    """The double sum h(x, y, z): homogeneous of degree m + n + 1.

    Terms carrying the scalar factor (m - q) are dropped when q = m, so the
    exponent m - q - 1 is never formed negative.
    """
    m, n = d.m, d.n
    acc: dict[tuple[int, int, int], int] = {}
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = _double_sum_coeff(d, s, q)
            if c == 0:
                continue
            _accumulate_shifted(acc, c * ((m + n + 2 - s) + (n + 2) * (s - m + q)), True, m - q, False, n + q + 1)
            if m - q >= 1:
                _accumulate_shifted(acc, c * m * (m - q), True, m - q - 1, False, n + q + 2)
            _accumulate_shifted(acc, c * ((m + n + 2 - s) - n * (s - m + q)), False, m - q, True, n + q + 1)
            if m - q >= 1:
                _accumulate_shifted(acc, -c * (m + 2) * (m - q), False, m - q - 1, True, n + q + 2)
    return MultiPoly3({e: v for e, v in acc.items() if v})


@lru_cache(maxsize=None)
def compute_obstruction(d: Dims) -> CharacterPolys:
    """g, h and F together, with the structural invariants enforced.

    Raises :class:`InvariantViolation` if F fails integrality or any of the
    three homogeneity degrees is off; those can only mean a bug.
    """
    m, n = d.m, d.n
    g = compute_g(d)
    h = compute_h(d)
    prefactor = MultiPoly3(
        {
            (0, 1, 1): -m * (m + 2),
            (1, 0, 1): -n * (n + 2),
            (1, 1, 0): -2,
        }
    )
    F = prefactor * g + MultiPoly3.monomial((1, 1, 1)) * h
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
    m, n = d.m, d.n
    top = m + n + 2
    pow_k = int_power_table(-fc.r * eps, fc.kappa, top)
    pow_r = int_power_table(-fc.a * eps, fc.rho, m)
    pow_t = int_power_table(-fc.b * eps, fc.tau, n)
    acc = [0] * (top + 1)
    for s in range(m + n + 1):
        # the q-sum, of degree s; C(s, m-q) C(m+n-s, q) != 0 exactly on this
        # q range, where 0 <= s-m+q <= n
        inner = [0] * (s + 1)
        for q in range(max(0, m - s), min(m, m + n - s) + 1):
            c = binomial(s, m - q) * binomial(m + n - s, q) * (-1) ** q
            int_convolve_into(inner, c, pow_r[m - q], pow_t[s - m + q])
        int_convolve_into(acc, binomial(m + n + 2, s) * fc.delta, inner, pow_k[top - s])
    return UniPoly(acc)


def localized_sum_poly(d: Dims, eps: int, cls: KahlerClass) -> UniPoly:
    """Both components' localized sum.  Its coefficient at degree m+n+2 is
    g(lam, mu, nu), at degree m+n+1 is -eps * h(lam, mu, nu), and for eps = 0
    the polynomial is the single monomial g(lam, mu, nu) t^(m+n+2)."""
    first, second = fixed_components(d, cls)
    return localized_component_poly(d, first, eps, cls) + localized_component_poly(d, second, eps, cls)


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
    return UniPoly(acc)


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
    s_minus = localized_sum_poly(d, -1, cls)
    s_plus = localized_sum_poly(d, +1, cls)
    s_zero = localized_sum_poly(d, 0, cls)
    diff = s_minus - s_plus
    first = sum(
        ((-1) ** i * binomial(K + 1, i)) * diff.evaluate(K + 1 - 2 * i)
        for i in range(K + 2)
    )
    second = sum(
        ((-1) ** i * binomial(K + 2, i)) * s_zero.evaluate(K + 2 - 2 * i)
        for i in range(K + 3)
    )
    return (K + 2) * lam * mu * nu * first - (
        m * (m + 2) * mu * nu + n * (n + 2) * lam * nu + 2 * lam * mu
    ) * second
