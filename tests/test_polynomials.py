import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_zz_heu_gcd

from csck import cone, localization, polynomials
from csck.character import (
    Dims,
    InvariantViolation,
    KahlerClass,
    _sum_coeffs,
    anticanonical_class,
    compute_obstruction,
    localized_sum_poly,
)
from csck.exact import general_binomial
from csck.polynomials import (
    MultiPoly3,
    TruncSeries2,
    UniPoly,
    _pseudo_divmod,
    _sign_at_rational,
    _times_line_power,
    _variations_int,
    count_roots,
    poly_gcd,
    square_free_part,
    sturm_chain,
    sturm_isolate,
)
from oracles import dict_series_product, poly_product, poly_sum, reference_restrict, times_line_power_by_factors

# The golden 13-term polynomial for (m, n) = (1, 2), transcribed term by term.
F_1_2 = MultiPoly3(
    {
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
)


X = MultiPoly3({(1, 0, 0): 1})
Y = MultiPoly3({(0, 1, 0): 1})
Z = MultiPoly3({(0, 0, 1): 1})


def _negated(p: MultiPoly3) -> MultiPoly3:
    return MultiPoly3({e: -c for e, c in p.terms()})


def _random_poly(rng, max_degree=3, n_terms=5) -> MultiPoly3:
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_degree) for _ in range(3))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly3(terms)


class TestMultiPoly3:
    # the products check the term-map product that tests/oracles.py builds reference_F with
    def test_product_difference_of_squares(self):
        difference = poly_sum(X, _negated(Y))
        assert poly_product(poly_sum(X, Y), difference) == poly_sum(poly_product(X, X), _negated(poly_product(Y, Y)))

    def test_product_with_zero(self):
        p = _random_poly(random.Random(5))
        assert poly_product(p, MultiPoly3()) == MultiPoly3()

    def test_square_of_difference(self):
        difference = poly_sum(X, _negated(Z))
        assert poly_product(difference, difference) == MultiPoly3({(2, 0, 0): 1, (1, 0, 1): -2, (0, 0, 2): 1})

    def test_canonical_form_has_no_zero_terms(self):
        p = MultiPoly3([((1, 0, 0), 1), ((0, 1, 0), -1), ((0, 1, 0), 1)])
        assert dict(p.terms()) == {(1, 0, 0): Fraction(1)}
        rng = random.Random(7)
        for _ in range(20):
            p, q = _random_poly(rng), _random_poly(rng)
            for poly in (poly_sum(p, q), poly_sum(p, _negated(q)), poly_product(p, q), _negated(p)):
                assert all(c != 0 for _, c in poly.terms())

    def test_evaluate_golden_polynomial(self):
        assert F_1_2.evaluate((3, 4, 2)) == -2304

    def test_evaluate_simple(self):
        p = MultiPoly3({(2, 1, 0): 1, (0, 0, 1): -1})  # x^2 y - z
        assert p.evaluate((1, 1, 1)) == 0

    def test_evaluate_at_origin_gives_constant_term(self):
        rng = random.Random(11)
        for _ in range(10):
            p = poly_sum(_random_poly(rng), MultiPoly3({(0, 0, 0): Fraction(rng.randint(-5, 5))}))
            assert p.evaluate((0, 0, 0)) == p.coefficient((0, 0, 0))

    def test_coefficient_of_golden_leading_term(self):
        assert F_1_2.coefficient((2, 3, 2)) == 120
        assert F_1_2.coefficient((9, 9, 9)) == 0

    def test_canonical_term_order_is_graded_lex_descending(self):
        exponents = [e for e, _ in F_1_2.terms()]
        assert exponents == sorted(exponents, key=lambda e: (sum(e), e), reverse=True)
        assert exponents[0] == (2, 3, 2)
        assert exponents[-1] == (0, 1, 6)

    def test_json_round_trip(self):
        obj = F_1_2.to_json_terms()
        assert obj[0] == {"e": [2, 3, 2], "c": "120"}

    def test_str_matches_golden_term_order(self):
        assert str(F_1_2).startswith("120*x^2*y^3*z^2 - 420*x^2*y^2*z^3")


class TestRestrictToLine:
    def test_constant_on_plane(self):
        p = poly_sum(X, Y, Z)
        c = (Fraction(1, 3), Fraction(4, 9), Fraction(2, 9))
        restricted = p.restrict_to_line((1, 0, 0), c)
        assert restricted == UniPoly([1])

    def test_linear_coordinate(self):
        restricted = Z.restrict_to_line((Fraction(1, 2), Fraction(1, 2), 0), (0, 0, 1))
        assert restricted == UniPoly([0, 1])

    def test_golden_vanishes_to_order_five_along_l1(self):
        c = (Fraction(3, 9), Fraction(4, 9), Fraction(2, 9))
        restricted = F_1_2.restrict_to_line((1, 0, 0), c)
        assert restricted.order() == 5
        assert restricted.degree <= 7

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            X.restrict_to_line((1, 2, 3), (1, 2, 3))

    def test_agrees_with_pointwise_evaluation(self):
        rng = random.Random(99)
        for _ in range(5):
            p = _random_poly(rng)
            start = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            end = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            if start == end:
                continue
            restricted = p.restrict_to_line(start, end)
            for _ in range(20):
                t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                point = tuple(s + t * (e - s) for s, e in zip(start, end))
                assert restricted.evaluate(t) == p.evaluate(point)


class TestTruncSeries2:
    # Phi and Psi are built as localization builds them: (1 + x)^e_x (1 + y)^e_y - 1
    def test_product_of_binomials(self):
        one_x = TruncSeries2.binomial_series(1, 0, 2)
        one_y = TruncSeries2.binomial_series(0, 1, 2)
        assert one_x * one_y == TruncSeries2(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_truncation_drops_high_degree(self):
        x = TruncSeries2(1, {(1, 0): 1})
        y = TruncSeries2(1, {(0, 1): 1})
        assert (x * y).is_zero()

    def test_phi_times_psi(self):
        phi = localization._shifted_binomial(-1, 1, 2)
        psi = localization._shifted_binomial(1, 1, 2)
        assert phi * psi == TruncSeries2(2, {(2, 0): -1, (0, 2): 1})

    def test_phi_expansion(self):
        binomials = {(0, 0): 1, (1, 0): -1, (0, 1): 1, (2, 0): 1, (1, 1): -1}
        phi = TruncSeries2(2, binomials) - TruncSeries2(2, {(0, 0): 1})
        assert phi == TruncSeries2(2, {(1, 0): -1, (0, 1): 1, (2, 0): 1, (1, 1): -1})
        assert phi == localization._shifted_binomial(-1, 1, 2)
        assert phi.coefficient((1, 0)) == -1

    def test_square_with_delta_minus_one(self):
        phi = TruncSeries2(2, {(1, 0): 1, (0, 1): -1, (0, 2): 1, (1, 1): -1})
        assert phi == localization._shifted_binomial(1, -1, 2)
        assert phi * phi == TruncSeries2(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})

    def test_power_of_sum(self):
        s = TruncSeries2(2, {(1, 0): 1, (0, 1): 1})
        assert s * s == TruncSeries2(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        # the zeroth power that starts the powers of Psi is the unit
        assert s * TruncSeries2(2, {(0, 0): 1}) == s

    def test_coefficient_beyond_truncation_rejected(self):
        s = TruncSeries2(2, {(1, 0): 1})
        with pytest.raises(ValueError):
            s.coefficient((2, 1))

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries2(2, {}) * TruncSeries2(3, {})
        with pytest.raises(ValueError):
            TruncSeries2(2, {}) - TruncSeries2(3, {})

    def test_multiplication_sound_against_polynomials(self):
        # embed random bivariate polynomials and compare all retained terms
        rng = random.Random(321)
        cap = 4
        for _ in range(20):
            a_terms = {(rng.randint(0, 2), rng.randint(0, 2), 0): Fraction(rng.randint(-5, 5)) for _ in range(4)}
            b_terms = {(rng.randint(0, 2), rng.randint(0, 2), 0): Fraction(rng.randint(-5, 5)) for _ in range(4)}
            pa, pb = MultiPoly3(a_terms), MultiPoly3(b_terms)
            sa = TruncSeries2(cap, {(e[0], e[1]): c for e, c in pa.terms()})
            sb = TruncSeries2(cap, {(e[0], e[1]): c for e, c in pb.terms()})
            product_poly = poly_product(pa, pb)
            product_series = sa * sb
            for i in range(cap + 1):
                for j in range(cap + 1 - i):
                    assert product_series.coefficient((i, j)) == product_poly.coefficient((i, j, 0))


_NON_DIVISOR_CANDIDATE = """
from csck import polynomials
from csck.exact import InvariantViolation

polynomials._heuristic_gcd = lambda f, g: [1, 1]
try:
    polynomials.square_free_part(polynomials.UniPoly([0, 0, 1]))
except InvariantViolation:
    pass
else:
    raise SystemExit("a non-divisor gcd candidate was accepted")
"""


def _prs_square_free_part(p):
    """p / gcd(p, p') by the primitive remainder sequence alone, made primitive."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    quotient, remainder = _pseudo_divmod(polynomials._primitive_positive(p), g)
    assert remainder.is_zero()
    return polynomials._primitive_positive(quotient)


class TestUniPoly:
    def test_pseudo_divmod_reconstructs(self):
        # k*p = quotient*q + remainder with k a positive power of |lc(q)|, also for lc(q) < 0
        p = UniPoly([1, 0, -3, 2, 5])
        for q in (UniPoly([2, 1, 1]), UniPoly([3, 0, -2]), UniPoly([1, 4, 0, -3])):
            quotient, remainder = _pseudo_divmod(p, q)
            P, Q = _to_sympy(p), _to_sympy(q)
            rebuilt = _to_sympy(quotient) * Q + _to_sympy(remainder)
            k = rebuilt.LC() / P.LC()
            assert k in {abs(Q.LC()) ** e for e in range(p.degree + 1)}
            assert rebuilt == P * k
            assert remainder.degree < q.degree

    def test_square_free_part(self):
        # (t - 1)^2 (t + 2) -> (t - 1)(t + 2)
        p = _expand([-1, 1], [-1, 1], [2, 1])
        sf = square_free_part(p)
        assert sf.degree == 2
        assert sf.evaluate(1) == 0 and sf.evaluate(-2) == 0

    def test_square_free_part_non_divisor_gcd_is_invariant_violation(self, monkeypatch):
        # t + 1 meets the degree bound of gcd(t^2, 2t) = t but does not divide t^2
        monkeypatch.setattr(polynomials, "_heuristic_gcd", lambda f, g: [1, 1])
        with pytest.raises(InvariantViolation):
            square_free_part(UniPoly([0, 0, 1]))

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_non_divisor_gcd_raises_in_a_fresh_interpreter(self, flags):
        # a proven identity, so it must fail loudly also under python -O
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        cmd = [sys.executable, *flags, "-c", _NON_DIVISOR_CANDIDATE]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("candidate", [lambda f, g: None, lambda f, g: [1]], ids=["none", "wrong-degree"])
    def test_forced_fallback_gives_the_remainder_sequence_result(self, monkeypatch, candidate):
        # (t - 1)^3 (2t + 3)^2 (t^2 + 1): gcd(p, p') has degree 3
        p = _expand([-1, 1], [-1, 1], [-1, 1], [3, 2], [3, 2], [1, 0, 1])
        fast = square_free_part(p)
        monkeypatch.setattr(polynomials, "_heuristic_gcd", candidate)
        assert square_free_part(p) == fast == _prs_square_free_part(p)
        assert fast == UniPoly([-3, 1, -1, 1, 2])  # (t - 1)(2t + 3)(t^2 + 1)

    def test_prime_dividing_the_leading_coefficient_is_skipped(self, monkeypatch):
        # (P t + 1)^2 is constant mod P, where gcd(p, p') would read as degree 0
        prime = polynomials._GCD_PRIMES[0]
        p = _expand([1, prime], [1, prime])
        f = [int(c) for c in p.coefficients()]
        assert polynomials._modular_gcd_degree(f, [f[1], 2 * f[2]]) == 1
        assert square_free_part(p) == UniPoly([1, prime])
        # with no usable prime there is no bound, and the remainder sequence decides
        monkeypatch.setattr(polynomials, "_GCD_PRIMES", (prime,))
        assert polynomials._modular_gcd_degree(f, [f[1], 2 * f[2]]) is None
        assert square_free_part(p) == UniPoly([1, prime])


class TestSturmIsolation:
    def test_two_roots(self):
        p = UniPoly([-1, 0, 1])  # t^2 - 1
        result = sturm_isolate(p, -2, 2, Fraction(1, 8))
        assert not result.identically_zero
        assert len(result.intervals) == 2
        lo_iv, hi_iv = result.intervals
        assert lo_iv.lo < -1 < lo_iv.hi
        assert hi_iv.lo < 1 < hi_iv.hi
        for iv in result.intervals:
            assert iv.hi - iv.lo <= Fraction(1, 8)

    def test_no_real_roots(self):
        result = sturm_isolate(UniPoly([1, 0, 1]), -10, 10)
        assert not result.identically_zero
        assert result.intervals == ()

    def test_identically_zero(self):
        result = sturm_isolate(UniPoly([]), 0, 1)
        assert result.identically_zero

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            sturm_isolate(UniPoly([1, 1]), 1, 0)
        with pytest.raises(ValueError):
            sturm_isolate(UniPoly([1, 1]), 0, 1, width=0)

    def test_recovers_known_rational_roots(self):
        rng = random.Random(2024)
        for _ in range(25):
            k = rng.randint(1, 4)
            roots = set()
            while len(roots) < k:
                roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 8)))
            p = _expand(*([-r, 1] for r in roots))
            lo = min(roots) - 1
            hi = max(roots) + 1
            result = sturm_isolate(p, lo, hi, Fraction(1, 64))
            assert len(result.intervals) == k
            for r in sorted(roots):
                assert any(iv.lo < r < iv.hi for iv in result.intervals)

    def test_multiplicities_are_reduced(self):
        # (t - 1/2)^2 (t + 3) has two distinct roots
        p = _expand([Fraction(-1, 2), 1], [Fraction(-1, 2), 1], [3, 1])
        result = sturm_isolate(p, -4, 4, Fraction(1, 32))
        assert len(result.intervals) == 2

    def test_root_exactly_at_midpoint_probe(self):
        # roots at dyadic points hit bisection midpoints exactly
        p = _expand([Fraction(-1, 2), 1], [Fraction(-9, 16), 1])
        result = sturm_isolate(p, 0, 1, Fraction(1, 8))
        assert len(result.intervals) == 2
        for r in (Fraction(1, 2), Fraction(9, 16)):
            assert any(iv.lo < r < iv.hi for iv in result.intervals)
        a, b = result.intervals
        assert a.hi <= b.lo  # disjoint

    def test_root_exactly_at_scan_endpoint(self):
        p = UniPoly([-1, 1])  # root at t = 1 == hi
        result = sturm_isolate(p, 0, 1, Fraction(1, 16))
        assert len(result.intervals) == 1
        iv = result.intervals[0]
        assert iv.lo < 1 < iv.hi

    def test_root_at_lo_is_excluded(self):
        p = UniPoly([0, 1])  # root at t = 0 == lo
        result = sturm_isolate(p, 0, 1, Fraction(1, 16))
        assert result.intervals == ()

    def test_sign_change_at_interval_endpoints(self):
        rng = random.Random(77)
        for _ in range(10):
            roots = {Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)}
            p = _expand(*([-r, 1] for r in roots))
            result = sturm_isolate(p, min(roots) - 2, max(roots) + 2, Fraction(1, 16))
            sf = square_free_part(p)
            for iv in result.intervals:
                assert sf.evaluate(iv.lo) * sf.evaluate(iv.hi) < 0

    def test_count_matches_sturm_count(self):
        p = _expand([-1, 0, 1], [-4, 0, 1])  # roots -2, -1, 1, 2
        chain = sturm_chain(square_free_part(p))
        assert count_roots(chain, Fraction(-3), Fraction(3)) == 4
        assert count_roots(chain, Fraction(0), Fraction(3)) == 2


_T = sympy.Symbol("t")
_DIFFERENTIAL = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def _products(draw):
    """A product of one to three rational factors of degree 1-3, each raised
    to a power 1-3, as a sympy polynomial over QQ and as a UniPoly.  Zero
    coefficients are drawn often: sparse factors make remainder degrees drop
    by more than one, the only case where a negative pseudo-division
    multiplier would flip a sign of the Sturm chain."""
    coeffs = st.one_of(st.just(Fraction(0)), _RATIONALS)
    expr = sympy.Rational(draw(st.sampled_from((1, -3, Fraction(2, 7)))))
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.lists(coeffs, min_size=2, max_size=4).filter(lambda cs: cs[-1] != 0))
        expr *= sum(sympy.Rational(c) * _T**i for i, c in enumerate(factor)) ** draw(st.integers(1, 3))
    poly = sympy.Poly(expr, _T, domain="QQ")
    return poly, _from_sympy(poly)


def _from_sympy(poly):
    return UniPoly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _to_sympy(p):
    return sympy.Poly([sympy.Rational(c) for c in reversed(p.coefficients())] or [0], _T, domain="QQ")


def _expand(*factors):
    """The product of coefficient lists (lowest degree first), expanded by sympy."""
    return _from_sympy(sympy.prod([_to_sympy(UniPoly(f)) for f in factors], start=sympy.Poly(1, _T, domain="QQ")))


def _primitive_positive(coeffs):
    den = lcm(*(c.denominator for c in coeffs))
    nums = [int(c * den) for c in coeffs]
    return [v // gcd(*nums) for v in nums]


class TestIsolationAgainstSympy:
    """The square-free part, the Sturm chain and the interval counts against
    sympy's rational arithmetic."""

    @_DIFFERENTIAL
    @given(_products())
    def test_square_free_part_degree_matches_sympy(self, drawn):
        poly, p = drawn
        got = square_free_part(p)
        assert got.degree == sympy.sqf_part(poly).degree()
        want = _from_sympy(sympy.sqf_part(poly).monic())
        lead = got.coefficient(got.degree)
        assert UniPoly(c / lead for c in got.coefficients()) == want

    @_DIFFERENTIAL
    @given(_products())
    def test_heuristic_gcd_matches_sympy_and_remainder_sequence(self, drawn):
        p = drawn[1]
        f = [int(c) for c in polynomials._primitive_positive(p).coefficients()]
        df = [i * c for i, c in enumerate(f)][1:]
        got = polynomials._heuristic_gcd(f, df)
        want = dup_zz_heu_gcd(f[::-1], df[::-1], ZZ)[0]  # sympy lists run from the leading coefficient
        assert got == [int(c) for c in reversed(want)]
        assert got == [int(c) for c in poly_gcd(p, p.derivative()).coefficients()]

    @_DIFFERENTIAL
    @given(_products())
    def test_sturm_chain_matches_rational_remainders(self, drawn):
        # the chain of p itself ends at gcd(p, p'); the chain of its square-free part is the one isolation uses
        p = drawn[1]
        for q in (p, square_free_part(p)):
            expected = [_to_sympy(q)]
            expected.append(expected[0].diff(_T))
            while expected[-1].degree() > 0:
                rem = -sympy.rem(expected[-2], expected[-1])
                if rem.is_zero:
                    break
                expected.append(rem)
            chain = sturm_chain(q)
            assert len(chain) == len(expected)
            for got, want in zip(chain, expected):
                assert list(got.coefficients()) == _primitive_positive(list(_from_sympy(want).coefficients()))

    @_DIFFERENTIAL
    @given(_products(), _RATIONALS, _RATIONALS)
    def test_interval_count_matches_real_roots(self, drawn, a, b):
        poly, p = drawn
        lo, hi = min(a, b), max(a, b) + 1
        roots = set(sympy.real_roots(poly))
        expected = sum(1 for r in roots if sympy.Rational(lo) < r <= sympy.Rational(hi))
        assert len(sturm_isolate(p, lo, hi, Fraction(1, 64)).intervals) == expected


def _sturm_isolate_reference(p, lo, hi, width):
    """The Sturm-chain bisection that sturm_isolate replaced, kept as the
    reference: its square-free part comes from the remainder sequence and
    every root count from the Sturm chain."""
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    q = _prs_square_free_part(p)
    if q.degree == 0:
        return ()
    chain_int = [[int(c) for c in r.coefficients()] for r in sturm_chain(q)]
    q_int = chain_int[0]
    variation_cache = {}

    def variations(at):
        if at not in variation_cache:
            variation_cache[at] = _variations_int(chain_int, at)
        return variation_cache[at]

    def roots_in(a, b):
        return variations(a) - variations(b)

    def q_sign(at):
        return _sign_at_rational(q_int, at.numerator, at.denominator)

    found = []

    def emit_around(c, left, right):
        rad = width / 2
        if c > left:
            rad = min(rad, (c - left) / 2)
        if c < right:
            rad = min(rad, (right - c) / 2)
        while True:
            a, b = c - rad, c + rad
            if q_sign(a) != 0 and q_sign(b) != 0 and roots_in(a, b) == 1:
                assert q_sign(a) != q_sign(b)
                found.append((a, b))
                return a, b
            rad /= 2

    pending = [(lo, hi)]
    while pending:
        a, b = pending.pop()
        n = roots_in(a, b)
        if n == 0:
            continue
        sa, sb = q_sign(a), q_sign(b)
        if n == 1 and b - a <= width and sa != 0 and sb != 0:
            assert sa != sb
            found.append((a, b))
            continue
        if n == 1 and sb == 0 and b - a <= width:
            emit_around(b, a, b + (b - a))
            continue
        mid = (a + b) / 2
        if q_sign(mid) == 0:
            lo2, hi2 = emit_around(mid, a, b)
            pending += [(hi2, b), (a, lo2)]
        else:
            pending += [(mid, b), (a, mid)]
    return tuple(sorted(found))


def _interval_tuple(result):
    return tuple((iv.lo, iv.hi) for iv in result.intervals)


@st.composite
def _isolation_cases(draw):
    """A drawn product with a scan range of any length and sign, extra roots
    placed on its ends and on bisection probe points, and a width."""
    poly = draw(_products())[0]
    lo = draw(_RATIONALS)
    hi = lo + draw(st.sampled_from((Fraction(1, 3), 1, Fraction(3, 2), 5)))
    width = draw(st.sampled_from((Fraction(1, 8), Fraction(1, 64), Fraction(1, 2**20))))
    depth = draw(st.integers(1, 4))
    probe = lo + (hi - lo) * Fraction(2 * draw(st.integers(0, 2 ** (depth - 1) - 1)) + 1, 2**depth)
    for root in draw(st.lists(st.sampled_from((lo, hi, probe)), max_size=3)):
        poly *= sympy.Poly(_T - sympy.Rational(root), _T, domain="QQ") ** draw(st.integers(1, 2))
    return _from_sympy(poly), lo, hi, width


def _scan_restrictions():
    """F restricted to the witness segment of every scan-paper and scan-wide pair."""
    pairs = [(m, n) for m in range(1, 10) for n in range(m + 1, 11)] + [(10, n) for n in range(9, 13)]
    restrictions = []
    for m, n in pairs:
        row = cone.scan_pair(m, n)
        restrictions.append(cone.restrict_f_to_line(Dims(m, n), row.witness_start, row.witness_end))
    return restrictions


class TestIsolationAgainstSturm:
    """Descartes bisection against the Sturm-chain reference: equal interval
    tuples, not just equal counts."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_isolation_cases())
    def test_intervals_match_sturm_reference(self, case):
        p, lo, hi, width = case
        assert _interval_tuple(sturm_isolate(p, lo, hi, width)) == _sturm_isolate_reference(p, lo, hi, width)

    def test_descartes_bound_above_one_at_the_width_stop(self):
        # a complex pair 1/3 +- i/100 beside the real root 1/3 + 1/1000 keeps
        # the Descartes bound at 3 on the width-1/8 cell that holds one root
        p = _expand([Fraction(-1, 3) - Fraction(1, 1000), 1], [Fraction(1, 9) + Fraction(1, 10**4), Fraction(-2, 3), 1])
        cell = (Fraction(1, 4), Fraction(3, 8))
        q = [int(c) for c in polynomials._primitive_positive(p).coefficients()]
        assert polynomials._descartes_bound(q, *cell) == 3
        got = _interval_tuple(sturm_isolate(p, 0, 1, Fraction(1, 8)))
        assert got == _sturm_isolate_reference(p, 0, 1, Fraction(1, 8)) == (cell,)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_isolation_cases())
    def test_fast_and_slow_paths_agree(self, case):
        # the path that skips the square-free part where Descartes proves the
        # roots simple, against the one that always takes it and the Sturm count
        p, lo, hi, width = case
        fast = sturm_isolate(p, lo, hi, width)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polynomials, "_simple_roots_bound", lambda *args: None)
            slow = sturm_isolate(p, lo, hi, width)
        assert fast == slow
        assert len(fast.intervals) == count_roots(sturm_chain(square_free_part(p)), Fraction(lo), Fraction(hi))

    def test_fast_path_needs_a_bound_of_one_and_nonzero_ends(self):
        lo, hi = Fraction(0), Fraction(1)
        simple = _primitive_positive(_expand([Fraction(-1, 3), 1], [-5, 1]).coefficients())  # roots 1/3 and 5
        assert polynomials._simple_roots_bound(simple, lo, hi) == 1
        double = _primitive_positive(_expand([Fraction(-1, 3), 1], [Fraction(-1, 3), 1]).coefficients())
        assert polynomials._simple_roots_bound(double, lo, hi) is None  # the bound is 2
        at_end = _primitive_positive(_expand([-1, 1], [-5, 1]).coefficients())  # root at hi
        assert polynomials._simple_roots_bound(at_end, lo, hi) is None
        for coeffs in (simple, double, at_end):
            p = UniPoly(coeffs)
            chain = sturm_chain(square_free_part(p))
            assert len(sturm_isolate(p, lo, hi).intervals) == count_roots(chain, lo, hi) == 1

    def test_scan_restrictions_match_sturm_reference(self):
        restrictions = _scan_restrictions()
        assert len(restrictions) == 49
        for p in restrictions:
            # each restriction proves its one root simple, so isolation skips the square-free part
            assert polynomials._simple_roots_bound(list(polynomials._primitive_positive(p).nums), Fraction(0), Fraction(1)) == 1
            got = _interval_tuple(sturm_isolate(p, 0, 1, cone.DEFAULT_WIDTH))
            assert got == _sturm_isolate_reference(p, 0, 1, cone.DEFAULT_WIDTH)
            assert len(got) == 1


def _fraction_evaluate(p, point):
    """The term-by-term Fraction loop that MultiPoly3.evaluate replaced, kept as the reference."""
    px, py, pz = (Fraction(v) for v in point)
    total = Fraction(0)
    for (ex, ey, ez), c in p.terms():
        total += c * px**ex * py**ey * pz**ez
    return total


_COORDS = st.one_of(st.integers(-6, 6), _RATIONALS)
_POINTS = st.tuples(_COORDS, _COORDS, _COORDS)
# sparse, mostly non-homogeneous; the empty dict is the zero polynomial
_POLYS3 = st.dictionaries(st.tuples(*[st.integers(0, 5)] * 3), _RATIONALS, max_size=8).map(MultiPoly3)


class TestIntegerFormAgainstFractions:
    """The integer evaluation and line restriction against the Fraction loop."""

    @_DIFFERENTIAL
    @given(_POLYS3, _POINTS)
    def test_evaluate_matches_fraction_loop(self, p, point):
        assert p.evaluate(point) == _fraction_evaluate(p, point)
        assert p.evaluate(point) == _fraction_evaluate(p, point)  # again, through the memoised form

    @_DIFFERENTIAL
    @given(_POLYS3, _POINTS, _POINTS, _RATIONALS)
    def test_restriction_matches_substitution(self, p, start, end, t):
        assume(tuple(map(Fraction, start)) != tuple(map(Fraction, end)))
        point = [(1 - t) * Fraction(s) + t * Fraction(e) for s, e in zip(start, end)]
        assert p.restrict_to_line(start, end).evaluate(t) == _fraction_evaluate(p, point)

    @_DIFFERENTIAL
    @given(_POLYS3, _POLYS3, _POINTS, _RATIONALS)
    def test_derived_polynomials_evaluate_afresh(self, p, q, point, factor):
        # polynomials built from the terms of evaluated ones get their own integer form
        p.evaluate(point)
        q.evaluate(point)
        scaled = MultiPoly3({e: c * factor for e, c in p.terms()})
        for r in (poly_sum(p, q), poly_sum(p, _negated(q)), poly_product(p, q), _negated(p), scaled):
            assert r.evaluate(point) == _fraction_evaluate(r, point)

    def test_evaluate_does_not_assume_homogeneity(self):
        p = poly_sum(poly_product(X, X), Y)
        assert p.evaluate((1, 1, 1)) == 2
        assert p.evaluate((2, 2, 2)) == 6

    def test_face_lattice_of_9_10(self):
        F = compute_obstruction(Dims(9, 10)).F
        points = [(Fraction(i, 20), Fraction(j, 20), Fraction(20 - i - j, 20))
                  for i in range(1, 19) for j in range(1, 20 - i)]
        assert len(points) == 171
        for point in points:
            assert F.evaluate(point) == _fraction_evaluate(F, point), point

    def test_anticanonical_class_of_every_paper_pair(self):
        for m in range(1, 11):
            for n in range(1, 11):
                d = Dims(m, n)
                F, c1 = compute_obstruction(d).F, anticanonical_class(d)
                assert F.evaluate(c1) == _fraction_evaluate(F, c1), (m, n)


_EXPONENTS = st.tuples(*[st.integers(0, 6)] * 3)
_RESTRICTION_POLYS = st.one_of(
    _POLYS3,
    st.dictionaries(_EXPONENTS, st.one_of(st.integers(-9, 9), _RATIONALS), max_size=12).map(MultiPoly3),
    _RATIONALS.map(lambda c: MultiPoly3({(0, 0, 0): c})),
    st.builds(lambda e, c: MultiPoly3({e: c}), _EXPONENTS, st.one_of(st.integers(-9, 9), _RATIONALS)),
)
# endpoints with zero coordinates often: a zero line coordinate or direction
_ENDPOINTS = st.tuples(*[st.one_of(st.just(0), _COORDS)] * 3)


class TestRestrictionAgainstConvolution:
    """The nested Horner restriction against the per-monomial convolutions."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_RESTRICTION_POLYS, _ENDPOINTS, _ENDPOINTS)
    def test_matches_per_monomial_convolution(self, p, start, end):
        assume(tuple(map(Fraction, start)) != tuple(map(Fraction, end)))
        assert p.restrict_to_line(start, end) == reference_restrict(p, start, end)

    def test_zero_constant_and_single_monomials(self):
        line = ((Fraction(1, 2), 0, 3), (0, Fraction(-2, 3), 1))
        assert MultiPoly3().restrict_to_line(*line) == UniPoly(())
        assert MultiPoly3({(0, 0, 0): Fraction(-5, 3)}).restrict_to_line(*line) == UniPoly([Fraction(-5, 3)])
        for e in ((0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 4), (1, 2, 3), (5, 0, 1)):
            p = MultiPoly3({e: Fraction(7, 4)})
            assert p.restrict_to_line(*line) == reference_restrict(p, *line), e

    def test_scan_witness_segments(self):
        for m, n in ((1, 2), (3, 7), (9, 10), (10, 12)):
            row = cone.scan_pair(m, n)
            F = compute_obstruction(Dims(m, n)).F
            ends = (row.witness_start, row.witness_end)
            assert F.restrict_to_line(*ends) == reference_restrict(F, *ends), (m, n)


def _face_row_poly(p, x, c):
    return UniPoly._make(p._face_row(x, c), p._integer_form()[0])


class TestFaceRowAgainstRestriction:
    """The face-row path den * p(x, t, c - t) against restrict_to_line."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_RESTRICTION_POLYS, st.integers(-12, 12), st.integers(-12, 12))
    def test_matches_restrict_to_line(self, p, x, c):
        assert _face_row_poly(p, x, c) == p.restrict_to_line((x, 0, c), (x, 1, c - 1))

    def test_zero_and_constant(self):
        assert MultiPoly3()._face_row(3, 5) == []
        assert _face_row_poly(MultiPoly3(), 3, 5) == UniPoly(())
        assert _face_row_poly(MultiPoly3({(0, 0, 0): Fraction(-5, 3)}), 2, 7) == UniPoly([Fraction(-5, 3)])

    def test_rows_of_real_obstructions(self):
        # m < n, m > n and m = n, at face resolutions whose rows reach both edges
        for m, n in ((1, 2), (3, 7), (9, 10), (10, 9), (4, 4)):
            F = compute_obstruction(Dims(m, n)).F
            for r in (3, 17, 60):
                for i in (1, r // 2, r - 2):
                    got = _face_row_poly(F, i, r - i)
                    assert got == F.restrict_to_line((i, 0, r - i), (i, 1, r - i - 1)), (m, n, r, i)


def _fraction_horner(p, point):
    """The Fraction Horner loop that UniPoly.evaluate replaced, kept as the reference."""
    total = Fraction(0)
    for c in reversed(p.coefficients()):
        total = total * point + c
    return total


class TestUniPolyEvaluateAgainstFractions:
    """Integer Horner over one denominator against the Fraction loop."""

    @_DIFFERENTIAL
    @given(st.lists(st.one_of(st.just(Fraction(0)), st.integers(-9, 9), _RATIONALS), max_size=8), _COORDS)
    def test_evaluate_matches_fraction_horner(self, coeffs, point):
        p = UniPoly(coeffs)
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == _fraction_horner(p, point)

    def test_zero_polynomial(self):
        for point in (0, -3, Fraction(-5, 7)):
            value = UniPoly(()).evaluate(point)
            assert type(value) is Fraction and value == 0

    def test_constant(self):
        for point in (0, 4, Fraction(2, 9)):
            assert UniPoly([Fraction(-7, 3)]).evaluate(point) == Fraction(-7, 3)

    def test_zero_and_negative_points(self):
        p = UniPoly([Fraction(1, 2), -3, 0, Fraction(5, 4)])
        for point in (0, -1, -2, Fraction(-3, 4), Fraction(-1, 6)):
            assert p.evaluate(point) == _fraction_horner(p, point)
        assert p.evaluate(0) == Fraction(1, 2)

    def test_distinct_denominators(self):
        # den = lcm(2, 3, 7, 5) = 210; a rational point pads every lower term
        p = UniPoly([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3, 5)])
        for point in (Fraction(-3, 4), Fraction(5, 11), 3):
            assert p.evaluate(point) == _fraction_horner(p, point)
        assert p.evaluate(Fraction(1, 2)) == Fraction(1, 2) - Fraction(1, 3) + Fraction(5, 28) + Fraction(3, 40)


_NUMERATORS = st.lists(st.one_of(st.just(0), st.integers(-30, 30)), max_size=7)


def _assert_one_form(polys, coeffs):
    """Every polynomial holds the same fields and hash, in lowest terms, and
    reads back as ``coeffs`` without trailing zeros."""
    want = list(coeffs)
    while want and want[-1] == 0:
        want.pop()
    first = polys[0]
    assert first.den > 0 and gcd(first.den, *first.nums) == 1 and first.nums[-1:] != (0,)
    for p in polys:
        assert (p.nums, p.den) == (first.nums, first.den)
        assert p == first and hash(p) == hash(first)
        assert all(type(c) is Fraction for c in p.coefficients())
        assert list(p.coefficients()) == want


def _lifted_restriction(coeffs):
    """sum c_i t^i as the restriction of sum c_i 2^i x^i to the line x = t/2,
    y = z = 0, whose denominator 2^D has to cancel."""
    lifted = MultiPoly3({(i, 0, 0): c * 2**i for i, c in enumerate(coeffs)})
    return lifted.restrict_to_line((0, 0, 0), (Fraction(1, 2), 0, 0))


class TestUniPolyCanonicalForm:
    """Integer numerators over one denominator in lowest terms, whichever
    path built the polynomial."""

    @_DIFFERENTIAL
    @given(_NUMERATORS, st.integers(1, 12), st.integers(1, 6))
    def test_rational_coefficients_every_way(self, nums, den, common):
        coeffs = [Fraction(v, den) for v in nums]
        polys = [
            UniPoly(coeffs),
            UniPoly._make([v * common for v in nums], den * common),
            _lifted_restriction(coeffs),
        ]
        if den == 1:
            polys.append(UniPoly(nums))
        _assert_one_form(polys, coeffs)

    @_DIFFERENTIAL
    @given(st.integers(1, 3), st.integers(1, 3), st.sampled_from((-1, 0, 1)), st.tuples(*[st.integers(-9, 9)] * 3))
    def test_localized_sums_four_ways(self, m, n, eps, cls):
        d, cls = Dims(m, n), KahlerClass(*cls)
        ints = _sum_coeffs(d, eps, cls)
        coeffs = [Fraction(c) for c in ints]
        polys = [UniPoly(coeffs), UniPoly(ints), _lifted_restriction(coeffs), localized_sum_poly(d, eps, cls)]
        _assert_one_form(polys, coeffs)

    def test_zero_polynomial_is_empty_over_one(self):
        zeros = [
            UniPoly(),
            UniPoly([0, Fraction(0, 7)]),
            UniPoly._make([0, 0], 6),
            MultiPoly3().restrict_to_line((0, 0, 0), (1, 2, 3)),
            UniPoly([Fraction(5, 3)]).derivative(),
        ]
        for p in zeros:
            assert (p.nums, p.den) == ((), 1)
        _assert_one_form(zeros, [])

    def test_denominators_cancel(self):
        cases = [
            (UniPoly._make([2, 4, 0], 6), ((1, 2), 3)),
            (UniPoly([Fraction(1, 2), Fraction(3, 2)]), ((1, 3), 2)),
            (UniPoly([Fraction(1, 2), Fraction(3, 2)]).derivative(), ((3,), 2)),
            (UniPoly([1, Fraction(3, 2), Fraction(-1, 2)]).derivative(), ((3, -2), 2)),
            (UniPoly([1, Fraction(1, 2)]).derivative(), ((1,), 2)),
            (UniPoly([1, Fraction(1, 2), Fraction(1, 4)]).derivative(), ((1, 1), 2)),
        ]
        for p, fields in cases:
            assert (p.nums, p.den) == fields


def _fraction_series_product(a, b, cap):
    """The truncated product of two {(i, j): Fraction} maps, term by term."""
    out = {}
    for (a0, a1), ca in a.items():
        for (b0, b1), cb in b.items():
            if a0 + b0 + a1 + b1 <= cap:
                e = (a0 + b0, a1 + b1)
                out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return out


_SERIES_CAP = 4
_SERIES_TERMS = st.dictionaries(
    st.tuples(st.integers(0, _SERIES_CAP), st.integers(0, _SERIES_CAP)),
    st.one_of(st.integers(-9, 9), _RATIONALS),
    max_size=8,
)


class TestTruncSeriesAgainstFractions:
    """Integer-held series coefficients against a Fraction-dict oracle."""

    @staticmethod
    def _assert_matches(series, expected):
        for i in range(series.truncation + 1):
            for j in range(series.truncation + 1 - i):
                value = series.coefficient((i, j))
                assert type(value) is Fraction
                assert value == expected.get((i, j), 0), (i, j)

    @_DIFFERENTIAL
    @given(_SERIES_TERMS, _SERIES_TERMS)
    def test_products_and_sums_match_oracle(self, a, b):
        sa, sb = TruncSeries2(_SERIES_CAP, a), TruncSeries2(_SERIES_CAP, b)
        self._assert_matches(sa * sb, _fraction_series_product(a, b, _SERIES_CAP))
        cubed = _fraction_series_product(_fraction_series_product(a, b, _SERIES_CAP), b, _SERIES_CAP)
        self._assert_matches(sa * sb * sb, cubed)
        difference = {e: Fraction(c) for e, c in a.items() if sum(e) <= _SERIES_CAP}
        for e, c in b.items():
            if sum(e) <= _SERIES_CAP:
                difference[e] = difference.get(e, Fraction(0)) - Fraction(c)
        self._assert_matches(sa - sb, difference)
        assert all(type(c) is Fraction for _, c in (sa * sb).terms())

    @_DIFFERENTIAL
    @given(_SERIES_TERMS, _SERIES_TERMS)
    def test_product_coefficient_matches_product(self, a, b):
        sa, sb = TruncSeries2(_SERIES_CAP, a), TruncSeries2(_SERIES_CAP, b)
        product = sa * sb
        for i in range(_SERIES_CAP + 1):
            for j in range(_SERIES_CAP + 1 - i):
                value = sa.product_coefficient(sb, (i, j))
                assert type(value) is Fraction
                assert value == product.coefficient((i, j)), (i, j)

    def test_product_coefficient_rejects_what_coefficient_rejects(self):
        s = TruncSeries2(2, {(1, 0): 1})
        with pytest.raises(ValueError, match="beyond truncation"):
            s.product_coefficient(s, (2, 1))
        with pytest.raises(ValueError, match="mismatched truncation"):
            s.product_coefficient(TruncSeries2(3, {(0, 1): 1}), (1, 0))

    def test_non_integral_series(self):
        half = TruncSeries2(2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3), (0, 1): 2})
        square = half * half
        assert square.coefficient((0, 0)) == Fraction(1, 4)
        assert square.coefficient((1, 0)) == Fraction(1, 3)
        assert square.coefficient((1, 1)) == Fraction(4, 3)
        assert square.coefficient((0, 2)) == 4
        # an integral Fraction input is held as an integer and compares equal
        assert TruncSeries2(2, {(1, 0): Fraction(6, 3)}) == TruncSeries2(2, {(1, 0): 2})

    def test_binomial_series_matches_general_binomials(self):
        for e_x, e_y in ((3, -2), (-4, 5), (0, -1)):
            series = TruncSeries2.binomial_series(e_x, e_y, 5)
            expected = {
                (i, j): Fraction(general_binomial(e_x, i) * general_binomial(e_y, j))
                for i in range(6)
                for j in range(6 - i)
            }
            self._assert_matches(series, expected)

    def test_shifted_binomial_matches_general_binomials(self):
        # (1 + x)^e_x (1 + y)^e_y - 1: the series subtraction of the localization route
        for e_x in (-3, -1, 0, 1, 3):
            for e_y in (-3, -1, 0, 1, 3):
                series = localization._shifted_binomial(e_x, e_y, 5)
                expected = {
                    (i, j): Fraction(general_binomial(e_x, i) * general_binomial(e_y, j)) - (i == j == 0)
                    for i in range(6)
                    for j in range(6 - i)
                }
                self._assert_matches(series, expected)
                assert all(c != 0 for _, c in series.terms()), (e_x, e_y)


_SMALL_COEFFS = st.sampled_from((-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)))


@st.composite
def _series_pairs(draw):
    """Two series with one truncation 0..6, int or Fraction coefficients from
    a small set on exponents 0..3, so that products often cancel."""
    cap = draw(st.integers(0, 6))
    values = st.integers(-2, 2) if draw(st.booleans()) else _SMALL_COEFFS
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), values, max_size=6)
    return TruncSeries2(cap, draw(terms)), TruncSeries2(cap, draw(terms))


class TestFlatSeriesProductAgainstDict:
    """The flat-list product against the pairwise dict product it replaced."""

    @staticmethod
    def _assert_same(product, reference):
        assert product == reference
        assert all(c != 0 for c in product._terms.values())
        for e, c in product._terms.items():
            assert type(c) is type(reference._terms[e]), e

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_series_pairs())
    def test_matches_dict_product(self, pair):
        a, b = pair
        self._assert_same(a * b, dict_series_product(a, b))
        self._assert_same(b * a, dict_series_product(b, a))
        self._assert_same(a * a, dict_series_product(a, a))

    def test_integral_products_stay_int(self):
        a = TruncSeries2.binomial_series(3, -2, 5)
        assert all(type(c) is int for c in (a * a)._terms.values())

    def test_cancelling_products_store_no_zero(self):
        for cap in range(7):
            x_plus_y = TruncSeries2(cap, {(1, 0): 1, (0, 1): 1})
            x_minus_y = TruncSeries2(cap, {(1, 0): 1, (0, 1): -1})
            product = x_plus_y * x_minus_y
            assert product == dict_series_product(x_plus_y, x_minus_y)
            assert (1, 1) not in product._terms
            # (1 + x)(1 + x)^-1 = 1: every positive degree cancels
            unit = TruncSeries2.binomial_series(1, 0, cap) * TruncSeries2.binomial_series(-1, 0, cap)
            assert unit._terms == {(0, 0): 1}
            half = TruncSeries2(cap, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)})
            two = TruncSeries2.binomial_series(-1, 0, cap) * TruncSeries2.constant(2, cap)
            assert (half * two)._terms == {(0, 0): 1}

    def test_empty_factors(self):
        for cap in range(3):
            empty, one = TruncSeries2(cap, {}), TruncSeries2.constant(1, cap)
            assert (empty * one).is_zero() and (one * empty).is_zero()


class TestTimesLinePowerAgainstFactors:
    """The shift-and-scale branch for const = 0 and the factor loop against
    one linear factor at a time."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=6),
        st.one_of(st.just(0), st.integers(-4, 4)),
        st.one_of(st.just(0), st.integers(-4, 4)),
        st.integers(0, 5),
    )
    def test_matches_factor_loop(self, p, const, lin, times):
        assert _times_line_power(list(p), const, lin, times) == times_line_power_by_factors(list(p), const, lin, times)

    @pytest.mark.parametrize(
        "p, const, lin, times",
        [
            ([3, -1, 2], 0, 5, 3),
            ([3, -1, 2], 0, 0, 2),
            ([3, -1, 2], 4, 0, 2),
            ([3, -1, 2], 0, 5, 0),
            ([3, -1, 2], 2, -3, 0),
            ([], 0, 5, 3),
            ([], 2, -3, 2),
            ([], 0, 0, 0),
        ],
    )
    def test_edge_cases(self, p, const, lin, times):
        assert _times_line_power(list(p), const, lin, times) == times_line_power_by_factors(list(p), const, lin, times)
