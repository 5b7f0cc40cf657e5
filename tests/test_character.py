import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csck import character
from csck.character import (
    Dims,
    KahlerClass,
    _balanced_digits,
    _component_coeffs,
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
from csck.exact import InvariantViolation, binomial, factorial
from csck.polynomials import MultiPoly3, UniPoly, int_power_table
from oracles import (
    int_convolve,
    poly_product,
    poly_sum,
    reference_component_coeffs,
    reference_F,
    reference_g,
    reference_h,
    reference_moments,
)
from test_polynomials import F_1_2

# Independently derived coefficient tables (direct per-(s,q) summation with a
# separate engine, frozen before this module was written).
G_1_1 = {(0, 0, 4): 2, (0, 1, 3): -8, (0, 2, 2): 12, (1, 0, 3): -8, (1, 1, 2): 24, (1, 2, 1): -24}
H_1_1 = {(0, 0, 3): -24, (0, 1, 2): 72, (0, 2, 1): -24, (1, 2, 0): -48}


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(0, 3)
    with pytest.raises(ValueError):
        Dims(2, -1)


class TestGH:
    def test_g_vanishes_at_z_zero(self):
        # canonical form: g(x, y, 0) == 0 means no stored term is z-free
        for m, n in ((1, 1), (1, 2), (2, 3), (3, 1)):
            g = compute_obstruction(Dims(m, n)).g
            assert all(e[2] >= 1 for e, _ in g.terms())

    def test_g_homogeneous(self):
        for m, n in ((1, 2), (2, 2), (4, 3)):
            assert compute_obstruction(Dims(m, n)).g.is_homogeneous(m + n + 2)

    def test_h_homogeneous(self):
        for m, n in ((1, 2), (2, 2), (4, 3)):
            assert compute_obstruction(Dims(m, n)).h.is_homogeneous(m + n + 1)

    def test_frozen_1_1_tables(self):
        polys = compute_obstruction(Dims(1, 1))
        assert dict(polys.g.terms()) == {e: Fraction(c) for e, c in G_1_1.items()}
        assert dict(polys.h.terms()) == {e: Fraction(c) for e, c in H_1_1.items()}

    def test_g_value_frozen(self):
        assert compute_obstruction(Dims(1, 1)).g.evaluate((2, 3, 1)) == -218

    def test_golden_combination(self):
        d = Dims(1, 2)
        g, h = compute_obstruction(d).g, compute_obstruction(d).h
        prefactor = MultiPoly3({(0, 1, 1): -3, (1, 0, 1): -8, (1, 1, 0): -2})
        assert poly_sum(poly_product(prefactor, g), poly_product(MultiPoly3({(1, 1, 1): 1}), h)) == F_1_2


class TestObstruction:
    def test_golden_polynomial(self):
        assert compute_obstruction(Dims(1, 2)).F == F_1_2

    def test_homogeneity_under_scaling(self):
        rng = random.Random(8)
        F = compute_obstruction(Dims(1, 2)).F
        for _ in range(5):
            point = KahlerClass(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)))
            assert F.evaluate(point.scaled(2)) == 2**7 * F.evaluate(point)

    def test_divisible_by_z(self):
        # z^2 divides F and z^3 does not, for every 1 <= m, n <= 10
        for m in range(1, 11):
            for n in range(1, 11):
                F = compute_obstruction(Dims(m, n)).F
                assert min(e[2] for e, _ in F.terms()) == 2, (m, n)

    def test_vanishes_at_anticanonical_class_exactly_when_m_equals_n(self):
        for m in range(1, 11):
            for n in range(1, 11):
                d = Dims(m, n)
                assert (compute_obstruction(d).F.evaluate(anticanonical_class(d)) == 0) == (m == n), (m, n)

    def test_integer_coefficients(self):
        for m, n in ((1, 3), (5, 2)):
            assert compute_obstruction(Dims(m, n)).F.has_integer_coefficients()

    def test_json_shape(self):
        obj = compute_obstruction(Dims(1, 2)).to_json()
        assert obj["m"] == 1 and obj["n"] == 2 and obj["degreeF"] == 7
        assert obj["F"][0] == {"e": [2, 3, 2], "c": "120"}
        assert {"g", "h"} <= set(obj)


def _assert_build_matches_reference(d):
    polys = compute_obstruction(d)
    g, h = reference_g(d), reference_h(d)
    assert dict(polys.g.terms()) == dict(g.terms()), d
    assert dict(polys.h.terms()) == dict(h.terms()), d
    assert dict(polys.F.terms()) == dict(reference_F(d, g, h).terms()), d


class TestBuildAgainstReference:
    """The closed-form per-q build and the integer assembly of F against the
    per-(s, q) expansion and the ring-operation assembly."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_pair_up_to_12(self, m):
        for n in range(1, 13):
            _assert_build_matches_reference(Dims(m, n))

    @pytest.mark.parametrize("m, n", [(29, 31), (1, 40), (40, 1)])
    def test_far_pairs(self, m, n):
        _assert_build_matches_reference(Dims(m, n))

    def test_integral_F_reads_back_as_fractions(self):
        F = compute_obstruction(Dims(3, 5)).F
        assert all(type(c) is Fraction for _, c in F.terms())
        for e, c in F.terms():
            value = F.coefficient(e)
            assert type(value) is Fraction and value == c
        assert type(F.coefficient((0, 0, 0))) is Fraction


_SHAPE_COORDS = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_SHAPE_POINTS = st.tuples(_SHAPE_COORDS, _SHAPE_COORDS, _SHAPE_COORDS)


@st.composite
def shape_segments(draw, top=12):
    """(d, start, end) with m, n <= top, m >= n included: a free segment, one
    with z constant, one in the plane z = 0 (where F vanishes) or one along
    the ray of c1 at m = n (where F vanishes too)."""
    d = Dims(draw(st.integers(1, top)), draw(st.integers(1, top)))
    start, end = draw(_SHAPE_POINTS), draw(_SHAPE_POINTS)
    kind = draw(st.sampled_from(("free", "z-constant", "z-plane", "c1-ray")))
    if kind == "z-constant":
        end = (end[0], end[1], start[2])
    elif kind == "z-plane":
        start, end = (start[0], start[1], 0), (end[0], end[1], 0)
    elif kind == "c1-ray":
        d = Dims(d.m, d.m)
        scales = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=5)
        start, end = (anticanonical_class(d).scaled(draw(scales)) for _ in range(2))
    assume(tuple(start) != tuple(end))
    return d, start, end


class TestShapeForm:
    """The shape-form restriction and point value against the expanded F."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(shape_segments())
    @example((Dims(3, 1), (1, 2, Fraction(1, 3)), (2, -1, Fraction(1, 3))))  # z constant
    @example((Dims(2, 2), (4, 4, 2), (8, 8, 4)))  # along the ray of c1, where F vanishes at m = n
    @example((Dims(1, 2), (1, 0, 0), (0, 1, 0)))  # AB, in the plane z = 0
    def test_restriction_and_value_match_expanded_f(self, segment):
        d, start, end = segment
        F = compute_obstruction(d).F
        assert obstruction_on_line(d, start, end) == F.restrict_to_line(start, end)
        for point in (start, end):
            assert obstruction_at(d, point) == F.evaluate(point)

    def test_far_pair_value_and_restriction(self):
        d = Dims(29, 31)
        start, end = (Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)), (Fraction(1, 3), Fraction(4, 9), Fraction(2, 9))
        F = compute_obstruction(d).F
        assert obstruction_on_line(d, start, end) == F.restrict_to_line(start, end)
        assert obstruction_at(d, anticanonical_class(d)) == F.evaluate(anticanonical_class(d))

    def test_coincident_ends_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            obstruction_on_line(Dims(1, 2), (1, 2, 3), (1, 2, 3))


def test_f_is_z_squared_times_an_irreducible():
    # F = c z^2 F~ with F~ irreducible over Q of degree m + n + 2, for every
    # m + n <= 8: z^2 is the one repeated factor on every line, and the
    # exact division in csck.cone.isolate_on_segment rests on it
    x, y, z = sympy.symbols("x y z")
    for m in range(1, 8):
        for n in range(1, 9 - m):
            terms = compute_obstruction(Dims(m, n)).F.terms()
            content, factors = sympy.factor_list(sum(int(c) * x**a * y**b * z**e for (a, b, e), c in terms))
            assert content != 0 and len(factors) == 2, (m, n, factors)
            assert (z, 2) in factors, (m, n)
            rest = next(f for f, k in factors if f != z)
            assert sympy.Poly(rest, x, y, z).total_degree() == m + n + 2, (m, n)


def _recorded_shapes(monkeypatch, d, which):
    """The (scale, e_x, e_y, shift_x) of every shape the build of g
    (which = 0) or h (which = 1) adds."""
    shapes = []
    monkeypatch.setattr(character, "_add_shape", lambda acc, *shape: shapes.append(shape))
    character._shape_terms(d, which)
    return shapes


class TestClosedFormWeights:
    """The one-term weights of g and h against the moments of the (s, q)
    double sum, for every pair with m, n <= 40."""

    @pytest.mark.parametrize("m", range(1, 41))
    def test_moments_and_shape_scales(self, m, monkeypatch):
        for n in range(1, 41):
            d = Dims(m, n)
            big_n = m + n + 2
            g_shapes, h_shapes = [], []
            for q, (s0, s1) in enumerate(reference_moments(d)):
                k = m - q
                assert s0 == -(n + 1) * binomial(big_n, k), (d, q)
                assert s1 == -binomial(big_n, k) * ((n + 1) * (m + n) + n - q), (d, q)
                g_shapes += [(s0, k, big_n - k, True), (-s0, k, big_n - k, False)]
                # the s-sums of the scales A = (N-s) + (n+2)(s-k) and B = (N-s) - n(s-k)
                h_shapes += [
                    ((big_n - (n + 2) * k) * s0 + (n + 1) * s1, k, big_n - k - 1, True),
                    ((big_n + n * k) * s0 - (n + 1) * s1, k, big_n - k - 1, False),
                ]
                if k:
                    h_shapes += [(m * k * s0, k - 1, big_n - k, True), (-(m + 2) * k * s0, k - 1, big_n - k, False)]
            # h adds each shape once, with its scales summed over q
            grouped: dict[tuple, int] = {}
            for scale, *shape in h_shapes:
                grouped[tuple(shape)] = grouped.get(tuple(shape), 0) + scale
            h_shapes = [(scale, *shape) for shape, scale in grouped.items()]
            assert sorted(_recorded_shapes(monkeypatch, d, 0)) == sorted(g_shapes), d
            assert sorted(_recorded_shapes(monkeypatch, d, 1)) == sorted(h_shapes), d


# Corrupted integer builds: one term of the wrong degree in g, then a g term
# that is not an integer, which leaves F non-integral.
_CORRUPTIONS = {
    "wrong-degree": ("g is not homogeneous", "terms[(0, 0, 0)] = 1"),
    "non-integer": ("F has a non-integer coefficient", "terms[max(terms)] += Fraction(1, 7)"),
}

_CORRUPTED_BUILD = """
from fractions import Fraction
from csck import character
from csck.exact import InvariantViolation

real = character._shape_terms

def corrupted(d, which):
    terms = real(d, which)
    if which == 0:
        {edit}
    return terms

character._shape_terms = corrupted
try:
    character.compute_obstruction(character.Dims(1, 2))
except InvariantViolation as exc:
    if "{message}" not in str(exc):
        raise SystemExit(f"the wrong check fired: {{exc}}")
else:
    raise SystemExit("a corrupted build was accepted")
"""


class TestObstructionInvariants:
    @pytest.mark.parametrize("flags", [(), ("-O",)])
    @pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
    def test_corrupted_build_raises(self, kind, flags):
        # proven identities, so they must fail loudly also under python -O
        message, edit = _CORRUPTIONS[kind]
        script = _CORRUPTED_BUILD.format(edit=edit, message=message)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSlope:
    def test_anticanonical_slope_is_one(self):
        assert slope(Dims(1, 2), KahlerClass(3, 4, 2)) == 1

    def test_direct_value(self):
        assert slope(Dims(1, 1), KahlerClass(1, 1, 1)) == Fraction(8, 3)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError):
            slope(Dims(1, 2), KahlerClass(1, 1, 0))


def test_anticanonical_class():
    assert anticanonical_class(Dims(1, 2)) == KahlerClass(3, 4, 2)
    assert anticanonical_class(Dims(1, 1)) == KahlerClass(3, 3, 2)
    assert anticanonical_class(Dims(9, 10)) == KahlerClass(11, 12, 2)


class TestFixedComponents:
    def test_rows_at_anticanonical_class(self):
        first, second = fixed_components(Dims(1, 2), KahlerClass(3, 4, 2))
        assert (first.r, first.kappa, first.a, first.b, first.rho, first.tau, first.delta) == (
            -1, -4, 1, 4, 1, 4, -1,
        )
        assert (second.r, second.kappa, second.a, second.b, second.rho, second.tau, second.delta) == (
            1, -2, 3, 2, 3, 2, 1,
        )

    def test_rows_at_zero_class(self):
        first, _ = fixed_components(Dims(2, 5), KahlerClass(0, 0, 0))
        assert (first.r, first.kappa, first.a, first.b, first.rho, first.tau, first.delta) == (
            -1, 0, 2, 7, 0, 0, -1,
        )

    def test_non_integral_class_rejected(self):
        with pytest.raises(ValueError):
            fixed_components(Dims(1, 2), KahlerClass(Fraction(1, 2), 1, 1))


@pytest.mark.parametrize(
    "entry",
    [
        lambda d, cls: localized_sum_poly(d, 1, cls),
        lambda d, cls: localized_sum_poly_direct(d, 1, cls),
        assemble_from_localization,
    ],
    ids=["localized_sum_poly", "localized_sum_poly_direct", "assemble_from_localization"],
)
def test_localization_entry_points_reject_non_integral_class(entry):
    with pytest.raises(ValueError, match="integral class"):
        entry(Dims(1, 2), KahlerClass(Fraction(1, 2), 1, 1))


def test_alternating_power_sum_values():
    assert alternating_power_sum(2, 2) == 8
    assert alternating_power_sum(3, 1) == 0
    assert alternating_power_sum(3, 4) == 0
    assert alternating_power_sum(4, 4) == 2**4 * factorial(4)
    with pytest.raises(ValueError):
        alternating_power_sum(-1, 0)


class TestLocalizedSums:
    def test_eps_zero_is_monomial(self):
        d = Dims(1, 2)
        cls = KahlerClass(3, 4, 2)
        s = localized_sum_poly(d, 0, cls)
        g_value = compute_obstruction(d).g.evaluate(cls)
        assert g_value == -6096
        assert s == UniPoly([0] * 5 + [g_value])

    def test_component_frozen_coefficients(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 1)
        first, _ = fixed_components(d, cls)
        poly = localized_component_poly(first, 1)
        assert list(poly.coefficients()) == [-42, 104, -84, 24, -2]

    def test_component_eps_zero_is_monomial(self):
        d = Dims(2, 3)
        cls = KahlerClass(1, 1, 1)
        for fc in fixed_components(d, cls):
            poly = localized_component_poly(fc, 0)
            assert all(c == 0 for c in poly.coefficients()[:-1])
            assert poly.degree in (-1, d.m + d.n + 2)

    def test_subleading_coefficient_is_minus_eps_h(self):
        d = Dims(1, 2)
        cls = KahlerClass(3, 4, 2)
        h_value = compute_obstruction(d).h.evaluate(cls)
        assert h_value == -24480
        assert localized_sum_poly(d, 1, cls).coefficient(4) == -h_value
        assert localized_sum_poly(d, -1, cls).coefficient(4) == h_value

    def test_eps_difference_cancels_leading_term(self):
        d = Dims(1, 2)
        cls = KahlerClass(3, 4, 2)
        minus, plus = localized_sum_poly(d, -1, cls), localized_sum_poly(d, 1, cls)
        assert minus.coefficient(5) - plus.coefficient(5) == 0

    def test_eps_zero_matches_g_oracle(self):
        d = Dims(1, 1)
        cls = KahlerClass(2, 3, 1)
        s = localized_sum_poly(d, 0, cls)
        assert s == UniPoly([0, 0, 0, 0, compute_obstruction(d).g.evaluate(cls)])

    def test_direct_path_agrees(self):
        rng = random.Random(4242)
        for m, n in ((1, 1), (1, 2), (2, 3)):
            d = Dims(m, n)
            for _ in range(5):
                cls = KahlerClass(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
                for eps in (-1, 0, 1):
                    assert localized_sum_poly(d, eps, cls) == localized_sum_poly_direct(d, eps, cls)

    def test_component_matches_per_call_binomials(self):
        # the closed form read back from t = 2^B against the (s, q) double sum
        # in coefficient lists, every binomial weight made where it is used
        for m in range(1, 9):
            for n in range(1, 9):
                d = Dims(m, n)
                for cls in (KahlerClass(3, 4, 2), KahlerClass(2, -1, 1)):
                    for fc in fixed_components(d, cls):
                        for eps in (-1, 0, 1):
                            expected = reference_component_coeffs(d, fc, eps)
                            assert _component_coeffs(fc, eps) == expected, (m, n, fc.index, eps)

    def test_bad_eps_rejected(self):
        d = Dims(1, 2)
        cls = KahlerClass(3, 4, 2)
        with pytest.raises(ValueError):
            localized_sum_poly(d, 2, cls)


class TestKronecker:
    def test_balanced_digits_round_trip(self):
        rng = random.Random(2009)
        for shift in (2, 3, 8, 61, 64, 200):
            edge = 2 ** (shift - 1) - 1
            for length in (1, 2, 5, 17):
                for top in (0, -1, None, edge, -edge):
                    digits = [rng.randint(-edge, edge) for _ in range(length)]
                    if top is not None:
                        digits[-1] = top
                    digits[rng.randrange(length)] = rng.choice((edge, -edge))
                    value = sum(c << (shift * i) for i, c in enumerate(digits))
                    assert _balanced_digits(value, shift, length) == digits, (shift, length, top)

    def test_balanced_digits_reject_a_remainder(self):
        for shift, length in ((2, 1), (8, 3), (64, 5)):
            # a value one digit too long, then top digits -3 * 2^(shift-2) and
            # 2^(shift-1), each just outside the balanced range
            with pytest.raises(InvariantViolation):
                _balanced_digits(1 << (shift * length), shift, length)
            with pytest.raises(InvariantViolation):
                _balanced_digits(-(3 << (shift * (length - 1) + shift - 2)), shift, length)
            with pytest.raises(InvariantViolation):
                _balanced_digits(1 << (shift * (length - 1) + shift - 1), shift, length)

    # coordinates +-10^6 and zeros: the largest forms in any bound, and
    # the zero weights rho, tau and kappa
    _EXTREME_CLASSES = (
        KahlerClass(10**6, -(10**6), 10**6),
        KahlerClass(-(10**6), 10**6, 0),
        KahlerClass(0, 0, -(10**6)),
        KahlerClass(10**6, 10**6, 10**6),
        KahlerClass(0, 0, 0),
    )

    @pytest.mark.parametrize("m", range(1, 7))
    def test_extreme_classes_match_oracles(self, m):
        for n in range(1, 7):
            d = Dims(m, n)
            for cls in self._EXTREME_CLASSES:
                for eps in (-1, 0, 1):
                    for fc in fixed_components(d, cls):
                        assert _component_coeffs(fc, eps) == reference_component_coeffs(d, fc, eps), (m, n, cls)
                    assert localized_sum_poly_direct(d, eps, cls) == _unfactored_direct(d, eps, cls), (m, n, cls)

    def test_far_pair_assembly_is_exact(self):
        d = Dims(49, 51)
        cls = KahlerClass(7, -3, 5)
        scale = 2**102 * factorial(102)
        assert assemble_from_localization(d, cls) == scale * compute_obstruction(d).F.evaluate(cls)


class TestAssembly:
    def test_golden_value(self):
        value = assemble_from_localization(Dims(1, 2), KahlerClass(3, 4, 2))
        assert value == 2**5 * factorial(5) * -2304 == -8847360

    def test_vanishes_when_nu_zero(self):
        for m, n in ((1, 2), (2, 2)):
            assert assemble_from_localization(Dims(m, n), KahlerClass(4, 7, 0)) == 0

    def test_cross_check_via_polynomial(self):
        d = Dims(2, 2)
        cls = KahlerClass(1, 1, 1)
        F_value = compute_obstruction(d).F.evaluate(cls)
        assert assemble_from_localization(d, cls) == 2**6 * factorial(6) * F_value


def test_dims_must_be_integers():
    for m, n in ((1.5, 2), (True, 2), (2, False), (2, "3"), (2.0, 3)):
        with pytest.raises(ValueError):
            Dims(m, n)


def _unfactored_component(d, fc, eps):
    """The double sum as localized_component_poly computed it before the q-sum
    was grouped per s: two convolutions per (s, q), kept as the reference."""
    m, n = d.m, d.n
    top = m + n + 2
    pow_k = int_power_table(-fc.r * eps, fc.kappa, top)
    pow_r = int_power_table(-fc.a * eps, fc.rho, m)
    pow_t = int_power_table(-fc.b * eps, fc.tau, top)
    acc = [0] * (top + 1)
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = binomial(m + n + 2, s) * binomial(s, m - q) * binomial(m + n - s, q) * (-1) ** q * fc.delta
            if c == 0:
                continue
            prod = int_convolve(int_convolve(pow_k[top - s], pow_r[m - q]), pow_t[s - m + q])
            for k, v in enumerate(prod):
                acc[k] += c * v
    return UniPoly(acc)


def _unfactored_direct(d, eps, cls):
    """The two-row specialization before the same grouping, kept as the reference."""
    lam, mu, nu = (int(v) for v in cls)
    m, n = d.m, d.n
    top = m + n + 2
    pow1k = int_power_table(-eps, mu, top)
    pow1r = int_power_table(-m * eps, lam - nu, m)
    pow1t = int_power_table(-(n + 2) * eps, mu, top)
    pow2k = int_power_table(-eps, -mu + nu, top)
    pow2r = int_power_table(-(m + 2) * eps, lam, m)
    pow2t = int_power_table(-n * eps, mu - nu, top)
    acc = [0] * (top + 1)
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = binomial(m + n + 2, s) * binomial(s, m - q) * binomial(m + n - s, q) * (-1) ** q
            if c == 0:
                continue
            sgn1 = (-1) ** (m + n + s + 1)
            t1 = int_convolve(int_convolve(pow1k[top - s], pow1r[m - q]), pow1t[s - m + q])
            t2 = int_convolve(int_convolve(pow2k[top - s], pow2r[m - q]), pow2t[s - m + q])
            for k, v in enumerate(t1):
                acc[k] += c * sgn1 * v
            for k, v in enumerate(t2):
                acc[k] += c * v
    return UniPoly(acc)


# integral classes, several with zero coordinates (zero weights rho, tau, kappa)
_REFERENCE_CLASSES = (
    KahlerClass(3, 4, 2),
    KahlerClass(-5, 2, 7),
    KahlerClass(0, 3, -2),
    KahlerClass(4, 0, 0),
    KahlerClass(2, 2, 2),
    KahlerClass(0, 0, 0),
)


@pytest.mark.parametrize("m", range(1, 6))
def test_localized_paths_match_unfactored_double_sum(m):
    for n in range(1, 6):
        d = Dims(m, n)
        for cls in _REFERENCE_CLASSES:
            for eps in (-1, 0, 1):
                for fc in fixed_components(d, cls):
                    assert localized_component_poly(fc, eps) == _unfactored_component(d, fc, eps), (m, n)
                assert localized_sum_poly_direct(d, eps, cls) == _unfactored_direct(d, eps, cls), (m, n)
