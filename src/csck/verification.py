"""The package's self-verification battery.

Each check re-proves one pillar of the computation with exact arithmetic:
the golden low-dimensional polynomial, sign and vanishing-order claims along
the probe lines for every pair 1 <= m < n <= 10, the localization assembly
identity on randomized integral classes, the cross-path equality of the
localized sums, root isolation soundness against a Sturm count, and
structural facts (integrality, homogeneity, slope of the anticanonical
class).  The cyclotomic congruence battery re-derives the mod-p reduction and
runs only when deep checks are requested.

The same battery backs ``csck verify`` and the acceptance test suite.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

from . import cone, localization
from .character import (
    Dims,
    KahlerClass,
    alternating_power_sum,
    anticanonical_class,
    assemble_from_localization,
    compute_obstruction,
    fixed_components,
    localized_component_poly,
    localized_sum_poly,
    localized_sum_poly_direct,
    obstruction_at,
    obstruction_on_line,
    slope,
)
from .exact import factorial
from .localization import CheckResult
from .polynomials import UniPoly, count_roots, square_free_part, sturm_chain, sturm_isolate

SAMPLE_SEED = 74215093

GOLDEN_F_1_2 = {
    (2, 3, 2): 120,
    (2, 2, 3): -420,
    (2, 1, 4): 390,
    (2, 0, 5): -120,
    (1, 4, 2): 60,
    (1, 3, 3): -90,
    (1, 2, 4): 150,
    (1, 1, 5): -99,
    (1, 0, 6): 24,
    (0, 4, 3): -90,
    (0, 3, 4): 90,
    (0, 2, 5): -45,
    (0, 1, 6): 9,
}


def _result(name: str, start: float, bad: list, ok: str, shown: str | None = None) -> CheckResult:
    """The check passes when ``bad`` is empty; ``elapsed`` runs from ``start``
    to now.  A failed check reports ``shown``, by default every failure."""
    detail = ok if not bad else (f"failures: {bad}" if shown is None else shown)
    return CheckResult(name, not bad, detail, time.perf_counter() - start)


def _backed_pairs() -> list[tuple[int, int]]:
    return [(m, n) for m in range(1, 10) for n in range(m + 1, 11)]


def _random_classes(rng: random.Random, count: int) -> list[KahlerClass]:
    return [
        KahlerClass(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        for _ in range(count)
    ]


def check_golden_polynomial() -> CheckResult:
    """F for (m, n) = (1, 2) equals the golden 13-term polynomial exactly."""
    start = time.perf_counter()
    actual = dict(compute_obstruction(Dims(1, 2)).F.terms())
    bad = [] if actual == GOLDEN_F_1_2 else [actual]
    return _result("golden_polynomial_1_2", start, bad, "13 terms match", f"mismatch: {actual}")


def check_limit_signs() -> CheckResult:
    """limit_l1 < 0 and limit_l2 > 0 for all 45 pairs."""
    start = time.perf_counter()
    bad = []
    for m, n in _backed_pairs():
        d = Dims(m, n)
        if not cone.limit_l1(d) < 0:
            bad.append((m, n, "l1"))
        if not cone.limit_l2(d) > 0:
            bad.append((m, n, "l2"))
    return _result("limit_signs_45_pairs", start, bad, "45 pairs: l1 < 0 and l2 > 0")


def check_ke_nonvanishing() -> CheckResult:
    """F(m+2, n+2, 2) != 0 for all 45 pairs, the shape-form value equal to
    the expanded F's."""
    start = time.perf_counter()
    values = {(m, n): cone.ke_check(Dims(m, n)) for m, n in _backed_pairs()}
    bad = [(m, n) for (m, n), value in values.items() if value == 0]
    for (m, n), value in values.items():
        if value != compute_obstruction(Dims(m, n)).F.evaluate(anticanonical_class(Dims(m, n))):
            bad.append((m, n, "shape form"))
    return _result("anticanonical_nonvanishing_45_pairs", start, bad, "45 pairs: F(c1) != 0")


def check_assembly_identity() -> CheckResult:
    """assemble_from_localization = 2^(m+n+2) (m+n+2)! F(cls) for every
    (m, n) with m + n <= 7 and 20 seeded random integral classes each."""
    start = time.perf_counter()
    rng = random.Random(SAMPLE_SEED)
    bad = []
    count = 0
    for m in range(1, 7):
        for n in range(1, 8 - m):
            d = Dims(m, n)
            F = compute_obstruction(d).F
            scale = 2 ** (m + n + 2) * factorial(m + n + 2)
            for cls in _random_classes(rng, 20):
                count += 1
                if assemble_from_localization(d, cls) != scale * F.evaluate(cls):
                    bad.append((m, n, cls))
    ok = f"{count} (dims, class) samples agree exactly"
    return _result("localization_assembly_identity", start, bad, ok, f"failures: {bad[:3]}")


def check_localized_sum_structure() -> CheckResult:
    """Top coefficients of the localized sums are g and -eps*h, the eps = 0
    sum is a monomial, and the direct specialized path agrees, on classes
    drawn apart from those of :func:`check_assembly_identity`."""
    start = time.perf_counter()
    rng = random.Random(SAMPLE_SEED + 1)
    bad = []
    for m in range(1, 7):
        for n in range(1, 8 - m):
            d = Dims(m, n)
            polys = compute_obstruction(d)
            for cls in _random_classes(rng, 20):
                gv = polys.g.evaluate(cls)
                hv = polys.h.evaluate(cls)
                for eps in (-1, 0, 1):
                    s = localized_sum_poly(d, eps, cls)
                    if s.coefficient(m + n + 2) != gv:
                        bad.append((m, n, cls, eps, "top"))
                    if s.coefficient(m + n + 1) != -eps * hv:
                        bad.append((m, n, cls, eps, "sub"))
                    if s != localized_sum_poly_direct(d, eps, cls):
                        bad.append((m, n, cls, eps, "direct"))
                    if eps == 0:
                        monomial = UniPoly([0] * (m + n + 2) + [gv])
                        if s != monomial:
                            bad.append((m, n, cls, "monomial"))
    ok = "g / -eps*h coefficients and direct path agree"
    return _result("localized_sum_structure", start, bad, ok, f"failures: {bad[:3]}")


def check_series_oracle() -> CheckResult:
    """Truncated-series coefficient extraction equals the closed-form
    localized component for d in {(1,1),(1,2),(2,2),(1,3)}, both components,
    eps in {-1,0,+1}, zeta in [-3,3], three classes."""
    start = time.perf_counter()
    bad = []
    classes = [KahlerClass(3, 4, 2), KahlerClass(1, 1, 1), KahlerClass(2, -1, 1)]
    for m, n in ((1, 1), (1, 2), (2, 2), (1, 3)):
        d = Dims(m, n)
        for cls in classes:
            for fc in fixed_components(d, cls):
                for eps in (-1, 0, 1):
                    closed = localized_component_poly(fc, eps)
                    for zeta in range(-3, 4):
                        ctx = localization.build_series_context(fc, eps, zeta)
                        if localization.series_component_value(ctx) != closed.evaluate(zeta):
                            bad.append((m, n, fc.index, eps, zeta, cls))
    ok = "series route equals closed forms on the full grid"
    return _result("series_oracle_equivalence", start, bad, ok, f"failures: {bad[:3]}")


def check_alternating_power_sum_table() -> CheckResult:
    """Exhaustive k <= 12, 0 <= l <= k+1: zero off the diagonal, 2^k k! on it."""
    start = time.perf_counter()
    bad = []
    for k in range(13):
        for l in range(k + 2):
            expected = 2**k * factorial(k) if l == k else 0
            if alternating_power_sum(k, l) != expected:
                bad.append((k, l))
    return _result("alternating_power_sum_table", start, bad, "table reproduced for k <= 12")


def check_vanishing_orders() -> CheckResult:
    """Along l1 the obstruction vanishes to order exactly n+3 and its
    normalized leading coefficient is limit_l1; along l2 order exactly 2 with
    leading coefficient limit_l2.  Both shape-form restrictions equal the
    expanded F's.  All 45 pairs."""
    start = time.perf_counter()
    bad = []
    for m, n in _backed_pairs():
        d = Dims(m, n)
        lines = ((cone._FACE_A, cone.vertex_c(d)), (cone._EDGE_MIDPOINT, cone._APEX))
        f_l1, f_l2 = (obstruction_on_line(d, *ends) for ends in lines)
        for name, f, ends in zip(("shape l1", "shape l2"), (f_l1, f_l2), lines):
            if f != compute_obstruction(d).F.restrict_to_line(*ends):
                bad.append((m, n, name))
        if f_l1.order() != n + 3:
            bad.append((m, n, "ord l1", f_l1.order()))
            continue
        normalized = f_l1.coefficient(n + 3) * Fraction(m + n + 6, n + 2) ** (n + 3)
        if normalized != cone.limit_l1(d):
            bad.append((m, n, "lead l1"))
        if f_l2.order() != 2:
            bad.append((m, n, "ord l2", f_l2.order()))
        elif f_l2.coefficient(2) != cone.limit_l2(d):
            bad.append((m, n, "lead l2"))
    return _result("vanishing_orders_45_pairs", start, bad, "orders n+3 / 2 with matching leading coefficients")


def check_root_isolation() -> CheckResult:
    """For (1, 2): a segment with verified opposite endpoint signs yields
    isolating intervals; the square-free restriction changes sign across each
    interval, and the interval count equals the Sturm root count, which the
    Descartes isolation never computes."""
    start = time.perf_counter()
    d = Dims(1, 2)
    positive = cone._search_signed_point(d, cone._EDGE_MIDPOINT, cone._APEX, +1)
    negative = cone.vertex_c(d)
    problems = []
    if positive is None:
        problems.append("no positive point found on l2")
    elif cone.sign_at(d, positive) <= 0 or cone.sign_at(d, negative) >= 0:
        problems.append("endpoint signs not opposite")
    else:
        restricted = obstruction_on_line(d, positive, negative)
        result = sturm_isolate(restricted, 0, 1)
        squarefree = square_free_part(restricted)
        if not result.intervals:
            problems.append("no isolating interval")
        for iv in result.intervals:
            lo_sign = squarefree.evaluate(iv.lo)
            hi_sign = squarefree.evaluate(iv.hi)
            if lo_sign == 0 or hi_sign == 0 or (lo_sign > 0) == (hi_sign > 0):
                problems.append(f"no sign change across {iv}")
        chain = sturm_chain(squarefree)
        if count_roots(chain, Fraction(0), Fraction(1)) != len(result.intervals):
            problems.append("interval count != Sturm count")
    ok = "sign-change segment isolates its roots"
    return _result("root_isolation_soundness", start, problems, ok, "; ".join(problems))


def check_structural_properties() -> CheckResult:
    """Integrality and homogeneity of F for all m, n <= 10, with the
    shape-form value equal to the expanded F's at the random points;
    F(x, y, 0) = 0; slope 1 on the anticanonical class for 10 random dims."""
    start = time.perf_counter()
    rng = random.Random(SAMPLE_SEED)
    bad = []
    for m in range(1, 11):
        for n in range(1, 11):
            d = Dims(m, n)
            polys = compute_obstruction(d)  # integrality + homogeneity enforced inside
            if polys.F.total_degree() != m + n + 4:
                bad.append((m, n, "degree"))
            if any(e[2] == 0 for e in polys.F._terms):
                bad.append((m, n, "F(x,y,0) != 0"))
            for _ in range(5):
                point = KahlerClass(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)))
                c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                value = polys.F.evaluate(point)
                if polys.F.evaluate(point.scaled(c)) != c ** (m + n + 4) * value:
                    bad.append((m, n, "homogeneity"))
                if obstruction_at(d, point) != value:
                    bad.append((m, n, "shape form"))
    for _ in range(10):
        d = Dims(rng.randint(1, 10), rng.randint(1, 10))
        if slope(d, anticanonical_class(d)) != 1:
            bad.append((d.m, d.n, "slope"))
    return _result("structural_properties", start, bad, "integrality, homogeneity, z | F, anticanonical slope 1")


def check_cyclotomic_congruences() -> CheckResult:
    """Deep battery: lambda-sum and T-sum congruences for p in {3, 5},
    d in {(1,1),(1,2)}, both components, eps in {-1,0,+1}, zeta in {1,2},
    classes (3,4,2) and (1,1,1)."""
    start = time.perf_counter()
    bad = []
    classes = [KahlerClass(3, 4, 2), KahlerClass(1, 1, 1)]
    # a lambda-sum verdict depends on (p, d, c0, delta) alone, which several
    # (component, eps, zeta) share; each is checked once
    lambda_keys = set()
    for p in (3, 5):
        for m, n in ((1, 1), (1, 2)):
            d = Dims(m, n)
            for cls in classes:
                for fc in fixed_components(d, cls):
                    for eps in (-1, 0, 1):
                        for zeta in (1, 2):
                            verdict = localization.t_sum_congruence_check(p, fc, eps, zeta)
                            if not verdict.passed:
                                bad.append(verdict.params)
                            c0 = zeta * fc.kappa - eps * fc.r
                            key = (p, d, c0, fc.delta)
                            if key in lambda_keys:
                                continue
                            lambda_keys.add(key)
                            for s in range(m + n + 1):
                                for j in range(m + n - s + 1):
                                    lv = localization.lambda_sum_check(p, d, s, j, c0, fc.delta)
                                    if not lv.passed:
                                        bad.append(lv.params)
    ok = "mod-p reduction verified in exact cyclotomic arithmetic"
    return _result("cyclotomic_congruences", start, bad, ok, f"failures: {bad[:3]}")


STANDARD_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_golden_polynomial,
    check_limit_signs,
    check_ke_nonvanishing,
    check_assembly_identity,
    check_localized_sum_structure,
    check_series_oracle,
    check_alternating_power_sum_table,
    check_vanishing_orders,
    check_root_isolation,
    check_structural_properties,
)

DEEP_CHECKS: tuple[Callable[[], CheckResult], ...] = (check_cyclotomic_congruences,)


def run_checks(deep: bool = False) -> list[CheckResult]:
    return [check() for check in STANDARD_CHECKS + (DEEP_CHECKS if deep else ())]
