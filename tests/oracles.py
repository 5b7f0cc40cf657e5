"""Slow reference builds that faster code paths in ``csck`` replaced.

Each is the earlier implementation, kept so that tests can compare the fast
path against it term for term:

* :func:`double_sum_coeff` is the coefficient c(s, q) of the double sums
  that define g and h, and :func:`reference_moments` sums it over s;
* :func:`reference_g` and :func:`reference_h` expand the two shapes once for
  every (s, q) of the double sums;
* :func:`reference_F` assembles ``prefactor * g + xyz * h`` term by term
  with :func:`poly_product` and :func:`poly_sum`;
* :func:`reference_restrict` substitutes a line into every monomial by two
  integer convolutions and sums the products;
* :func:`reference_in_kahler_triangle` scales a class onto the face and
  reads its barycentric coordinates in ``Fraction``;
* :func:`reference_sample_face` evaluates F and classifies the region at
  every lattice point on its own;
* :func:`reference_root_sum` evaluates Lambda_j in full at every root of
  unity, one inversion per (s, j, k), by :func:`reference_lambda_at_root`;
* :func:`reference_component_coeffs` builds a localized component as
  integer coefficient lists, one :func:`int_convolve_into` per (s, q) and
  per s, every binomial weight computed where it is used;
* :func:`reference_limit_l1` and :func:`reference_limit_l2` sum the
  probe-line limits over every (s, q) of the double sum, with their own copy
  of its coefficient;
* :func:`dict_series_product` multiplies truncated series pair of terms by
  pair of terms into a dict, popping every sum that cancels;
* :func:`times_line_power_by_factors` multiplies a coefficient list by a
  power of a linear form one factor at a time.
"""
from fractions import Fraction
from math import lcm

from csck.character import Dims, FixedComponent, KahlerClass
from csck.cone import (
    REGION_BOUNDARY,
    REGION_INSIDE,
    REGION_NOT_NORMALIZABLE,
    REGION_OUTSIDE,
    FacePoint,
    FaceSample,
    sign_at,
)
from csck.exact import binomial
from csck.localization import CycloElement
from csck.polynomials import MultiPoly3, TruncSeries2, UniPoly, int_power_table


def int_convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def int_convolve_into(acc: list[int], scale: int, a: list[int], b: list[int]) -> None:
    """acc += scale * a * b in place, for integer coefficient lists with
    len(acc) >= len(a) + len(b) - 1."""
    for i, ai in enumerate(a):
        if ai:
            f = scale * ai
            for j, bj in enumerate(b):
                acc[i + j] += f * bj


def double_sum_coeff(d: Dims, s: int, q: int) -> int:
    """c(s, q) = C(m+n+2, s) C(s, m-q) C(m+n-s, q) (-1)^(m+n+s+q+1), the
    coefficient of the (s, q) double sums that define g and h."""
    m, n = d.m, d.n
    return (
        binomial(m + n + 2, s)
        * binomial(s, m - q)
        * binomial(m + n - s, q)
        * (-1) ** (m + n + s + q + 1)
    )


def reference_moments(d: Dims) -> list[tuple[int, int]]:
    """(S0_q, S1_q) = (sum_s c(s, q), sum_s s c(s, q)) for q = 0..m, over the
    s where C(s, m-q) C(m+n-s, q) is nonzero."""
    m, n = d.m, d.n
    moments = []
    for q in range(m + 1):
        weights = [(s, double_sum_coeff(d, s, q)) for s in range(m - q, m + n - q + 1)]
        moments.append((sum(c for _, c in weights), sum(s * c for s, c in weights)))
    return moments


def _accumulate_shifted(acc, scale, shift_x, e_x, shift_y, e_y):
    # scale * (x-z if shift_x else x)^e_x * (y-z if shift_y else y)^e_y,
    # binomially expanded into an integer coefficient map.
    for i in range(e_x + 1) if shift_x else (0,):
        cx = binomial(e_x, i) * (-1) ** i if shift_x else 1
        for j in range(e_y + 1) if shift_y else (0,):
            cy = binomial(e_y, j) * (-1) ** j if shift_y else 1
            key = (e_x - i, e_y - j, i + j)
            acc[key] = acc.get(key, 0) + scale * cx * cy


def reference_g(d: Dims) -> MultiPoly3:
    m, n = d.m, d.n
    acc = {}
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = double_sum_coeff(d, s, q)
            if c == 0:
                continue
            _accumulate_shifted(acc, c, True, m - q, False, n + q + 2)
            _accumulate_shifted(acc, -c, False, m - q, True, n + q + 2)
    return MultiPoly3({e: v for e, v in acc.items() if v})


def reference_h(d: Dims) -> MultiPoly3:
    m, n = d.m, d.n
    acc = {}
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = double_sum_coeff(d, s, q)
            if c == 0:
                continue
            _accumulate_shifted(acc, c * ((m + n + 2 - s) + (n + 2) * (s - m + q)), True, m - q, False, n + q + 1)
            if m - q >= 1:
                _accumulate_shifted(acc, c * m * (m - q), True, m - q - 1, False, n + q + 2)
            _accumulate_shifted(acc, c * ((m + n + 2 - s) - n * (s - m + q)), False, m - q, True, n + q + 1)
            if m - q >= 1:
                _accumulate_shifted(acc, -c * (m + 2) * (m - q), False, m - q - 1, True, n + q + 2)
    return MultiPoly3({e: v for e, v in acc.items() if v})


def poly_sum(*polys: MultiPoly3) -> MultiPoly3:
    """The sum of the polynomials; the constructor adds equal exponents."""
    return MultiPoly3([term for p in polys for term in p.terms()])


def poly_product(a: MultiPoly3, b: MultiPoly3) -> MultiPoly3:
    """a * b, one product per pair of terms."""
    return MultiPoly3(
        ((ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2]), ca * cb) for ea, ca in a.terms() for eb, cb in b.terms()
    )


def reference_F(d: Dims, g: MultiPoly3, h: MultiPoly3) -> MultiPoly3:
    m, n = d.m, d.n
    prefactor = MultiPoly3({(0, 1, 1): -m * (m + 2), (1, 0, 1): -n * (n + 2), (1, 1, 0): -2})
    return poly_sum(poly_product(prefactor, g), poly_product(MultiPoly3({(1, 1, 1): 1}), h))


def reference_restrict(p: MultiPoly3, start, end) -> UniPoly:
    """t -> p((1 - t) * start + t * end), one pair of convolutions per monomial."""
    s = [Fraction(v) for v in start]
    e = [Fraction(v) for v in end]
    terms = p.terms()
    if not terms:
        return UniPoly(())
    den = lcm(*(c.denominator for _, c in terms))
    top = max(sum(ex) for ex, _ in terms)
    scale = lcm(*(v.denominator for v in s + e))
    lines = [(int(si * scale), int((ei - si) * scale)) for si, ei in zip(s, e)]
    pows = [int_power_table(a, b, top) for a, b in lines]
    acc = [0] * (top + 1)
    for (ex, ey, ez), c in terms:
        conv = int_convolve(int_convolve(pows[0][ex], pows[1][ey]), pows[2][ez])
        f = c.numerator * (den // c.denominator) * scale ** (top - ex - ey - ez)
        for k, v in enumerate(conv):
            acc[k] += f * v
    return UniPoly(Fraction(v, den * scale**top) for v in acc)


def reference_in_kahler_triangle(d: Dims, c: KahlerClass) -> str:
    """The region of a class by its barycentric coordinates on the face."""
    total = c.x + c.y + c.z
    if total <= 0:
        return REGION_NOT_NORMALIZABLE
    x, y, z = c.x / total, c.y / total, c.z / total
    scale = d.m + d.n + 6
    gamma = z * scale / 2
    alpha = x - gamma * Fraction(d.m + 2, scale)
    beta = y - gamma * Fraction(d.n + 2, scale)
    if alpha > 0 and beta > 0 and gamma > 0:
        return REGION_INSIDE
    if alpha < 0 or beta < 0 or gamma < 0:
        return REGION_OUTSIDE
    return REGION_BOUNDARY


def reference_sample_face(d: Dims, resolution: int) -> list[FaceSample]:
    """Every interior lattice point of the face, with F evaluated and the
    region classified at each point on its own."""
    samples = []
    for i in range(1, resolution - 1):
        for j in range(1, resolution - i):
            k = resolution - i - j
            point = FacePoint(Fraction(i, resolution), Fraction(j, resolution), Fraction(k, resolution))
            cls = point.as_class()
            samples.append(FaceSample(point, sign_at(d, cls), reference_in_kahler_triangle(d, cls)))
    return samples


def _cyclo_power(base: CycloElement, e: int) -> CycloElement:
    """base^e for e >= 0, by e multiplications."""
    result = CycloElement.rational(base.p, 1)
    for _ in range(e):
        result = result * base
    return result


def reference_lambda_at_root(p: int, k: int, d: Dims, s: int, c0: int, delta: int, j: int) -> CycloElement:
    """Lambda_j at alpha_p^k, numerator and denominator built and the
    denominator inverted for this (s, j, k) alone."""
    one = CycloElement.rational(p, 1)
    num = CycloElement.root_power(p, k * (s * c0 + delta)) * _cyclo_power(
        CycloElement.root_power(p, k * c0) - one, d.m + d.n + 2 - s
    )
    den = (CycloElement.root_power(p, k) - one) * _cyclo_power(CycloElement.root_power(p, k * delta) - one, j + 1)
    return num * den.inverse()


def reference_root_sum(p: int, d: Dims, s: int, j: int, c0: int, delta: int) -> Fraction:
    """-sum_{k=1}^{p-1} Lambda_j(alpha_p^k), one full evaluation per root."""
    total = CycloElement.rational(p, 0)
    for k in range(1, p):
        total = total + reference_lambda_at_root(p, k, d, s, c0, delta, j)
    return -total.rational_value()


def reference_component_coeffs(d: Dims, fc: FixedComponent, eps: int) -> list[int]:
    """The integer coefficients of one localized component, every binomial
    weight computed where it is used."""
    m, n = d.m, d.n
    top = m + n + 2
    pow_k = int_power_table(-fc.r * eps, fc.kappa, top)
    pow_r = int_power_table(-fc.a * eps, fc.rho, m)
    pow_t = int_power_table(-fc.b * eps, fc.tau, n)
    acc = [0] * (top + 1)
    for s in range(m + n + 1):
        inner = [0] * (s + 1)
        for q in range(max(0, m - s), min(m, m + n - s) + 1):
            c = binomial(s, m - q) * binomial(m + n - s, q) * (-1) ** q
            int_convolve_into(inner, c, pow_r[m - q], pow_t[s - m + q])
        int_convolve_into(acc, binomial(m + n + 2, s) * fc.delta, inner, pow_k[top - s])
    return acc


def reference_limit_l1(d: Dims) -> Fraction:
    """lim F(l1(t)) / y1(t)^(n+3), summed over s in Fraction."""
    m, n = d.m, d.n
    total = Fraction(0)
    for s in range(m + n + 1):
        c = binomial(m + n + 2, s) * binomial(s, m)
        if c == 0:
            continue
        c *= (-1) ** (m + n + s + 1)
        lin = (n + 1) * s - m - m * n - 2 * n - n * n
        total += Fraction(2 * c, (n + 2) ** (n + 2)) * (
            lin * (n + 2) ** (n + 1) - (lin - 2) * n ** (n + 1)
        )
    return total


def reference_limit_l2(d: Dims) -> Fraction:
    """lim F(l2(t)) / z2(t)^2, summed over every (s, q) in Fraction."""
    m, n = d.m, d.n
    total = Fraction(0)
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = binomial(m + n + 2, s) * binomial(s, m - q) * binomial(m + n - s, q)
            if c == 0:
                continue
            c *= (-1) ** (m + n + s + q + 1)
            bracket = (
                2 * (n - m) * q * q
                + (2 * (n + 1) * s + (m * m - 4 * m * n - n * n - 7 * m - 3 * n - 2)) * q
                + (-m * n + n * n - m + 2 * n + 1) * s
                + 3 * m * m + m * m * n - n**3 - m * n - 4 * n * n - 2 * m - 4 * n
            )
            total += Fraction(c * bracket, 2 ** (m + n + 2))
    return total


def dict_series_product(a: TruncSeries2, b: TruncSeries2) -> TruncSeries2:
    """a * b for equal truncations, every pair of terms in turn, summed in a
    dict keyed by exponent pair; a sum that cancels is popped, so no zero
    coefficient is stored."""
    if a.truncation != b.truncation:
        raise ValueError(f"mismatched truncation degrees {a.truncation} != {b.truncation}")
    cap = a.truncation
    data = {}
    for (a0, a1), ca in a._terms.items():
        for (b0, b1), cb in b._terms.items():
            e = (a0 + b0, a1 + b1)
            if e[0] + e[1] > cap:
                continue
            s = data.get(e, 0) + ca * cb
            if s:
                data[e] = s
            else:
                data.pop(e, None)
    out = TruncSeries2.__new__(TruncSeries2)
    out.truncation = cap
    out._terms = data
    return out


def times_line_power_by_factors(p: list[int], const: int, lin: int, times: int) -> list[int]:
    """p * (const + lin*t)^times, one linear factor at a time."""
    for _ in range(times):
        p = [const * u + lin * v for u, v in zip(p + [0], [0] + p)]
    return p
