import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from csck import character, localization
from csck.character import Dims, InvariantViolation, KahlerClass, fixed_components, localized_component_poly
from csck.exact import general_binomial
from csck.localization import (
    CheckResult,
    CycloElement,
    build_series_context,
    lambda_at_one,
    lambda_sum_check,
    series_component_value,
    t_sum_congruence_check,
)
from oracles import reference_root_sum


def _no_work(*args):
    raise AssertionError("work done before the arguments were checked")


class TestSeriesContext:
    def test_fields(self):
        fc = fixed_components(Dims(1, 2), KahlerClass(3, 4, 2))[1]
        ctx = build_series_context(fc, -1, 2)
        assert ctx._fields == ("fc", "eps", "zeta", "beta", "gamma")
        assert ctx == (fc, -1, 2, 2 * fc.rho + fc.a, 2 * fc.tau + fc.b)

    def test_phi_for_positive_delta(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 1)
        second = fixed_components(d, cls)[1]  # delta = +1
        phi = localization._shifted_binomial(-second.delta, second.delta, d.m + d.n)
        # (1+x)^-1 (1+y) - 1 truncated at degree 2
        assert dict(phi.terms()) == {
            (1, 0): Fraction(-1),
            (0, 1): Fraction(1),
            (2, 0): Fraction(1),
            (1, 1): Fraction(-1),
        }

    def test_psi_zero_when_beta_gamma_zero(self):
        d = Dims(1, 1)
        cls = KahlerClass(0, 0, 0)
        first = fixed_components(d, cls)[0]
        ctx = build_series_context(first, 0, 3)  # rho = tau = 0
        assert ctx.beta == 0 and ctx.gamma == 0
        assert localization._shifted_binomial(ctx.beta, ctx.gamma, d.m + d.n).is_zero()

    def test_psi_direct_expansion(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 0)
        first = fixed_components(d, cls)[0]  # rho = 1, tau = 1
        ctx = build_series_context(first, 0, 1)
        assert ctx.beta == 1 and ctx.gamma == 1
        psi = localization._shifted_binomial(ctx.beta, ctx.gamma, d.m + d.n)
        assert dict(psi.terms()) == {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}


class TestEntryPointsRefuseBadEps:
    """Each entry point of the localization route refuses an eps outside
    {-1, 0, 1} before any sum is formed."""

    @pytest.fixture
    def fc(self, monkeypatch):
        for module, name in (
            (character, "_component_coeffs"),
            (localization, "SeriesContext"),
            (localization, "_root_sums"),
            (localization, "_extraction_sum"),
        ):
            monkeypatch.setattr(module, name, _no_work)
        return fixed_components(Dims(1, 2), KahlerClass(3, 4, 2))[0]

    @pytest.mark.parametrize(
        "entry",
        [
            lambda fc: localized_component_poly(fc, 2),
            lambda fc: build_series_context(fc, -2, 1),
            lambda fc: t_sum_congruence_check(3, fc, 2, 1),
        ],
        ids=["localized_component_poly", "build_series_context", "t_sum_congruence_check"],
    )
    def test_bad_eps_rejected_before_any_work(self, fc, entry):
        with pytest.raises(ValueError, match="eps must be"):
            entry(fc)



class TestSeriesRoute:
    def test_matches_closed_form_on_grid(self):
        # (1, 2) and (2, 1) fail if fc.dims is read in the wrong order
        for m, n in ((1, 1), (1, 2), (2, 1)):
            d = Dims(m, n)
            for cls in (KahlerClass(1, 1, 1), KahlerClass(3, 4, 2)):
                for fc in fixed_components(d, cls):
                    for eps in (-1, 0, 1):
                        closed = localized_component_poly(fc, eps)
                        for zeta in (-2, 0, 1, 3):
                            ctx = build_series_context(fc, eps, zeta)
                            assert series_component_value(ctx) == closed.evaluate(zeta)

    def test_zero_weight_base_contributes_nothing(self):
        # zeta*kappa - eps*r = 0 kills every term with a positive power
        d = Dims(1, 2)
        cls = KahlerClass(1, 0, 1)  # kappa = -mu = 0 for the first component
        first = fixed_components(d, cls)[0]
        ctx = build_series_context(first, 0, 5)
        assert series_component_value(ctx) == 0
        assert localized_component_poly(first, 0).evaluate(5) == 0


class TestSeriesRouteFar:
    """The series route past the verify grid, where it is the costliest route;
    the value only is pinned, not the time."""

    @pytest.mark.parametrize("m, n", [(9, 11), (14, 16)])
    def test_far_value_equals_closed_form(self, m, n):
        d = Dims(m, n)
        cls = KahlerClass(3, 4, 2)
        for fc in fixed_components(d, cls):
            ctx = build_series_context(fc, 1, 2)
            assert series_component_value(ctx) == localized_component_poly(fc, 1).evaluate(2)


class TestCycloElement:
    def test_root_powers_cycle(self):
        a = CycloElement.root_power(5, 1)
        fifth = a * a * a * a * a
        assert fifth == CycloElement.rational(5, 1)
        assert fifth * a * a == CycloElement.root_power(5, 2)
        assert a.inverse() == CycloElement.root_power(5, 4)

    def test_all_roots_sum_to_minus_one(self):
        for p in (3, 5, 7):
            total = CycloElement.rational(p, 0)
            for k in range(1, p):
                total = total + CycloElement.root_power(p, k)
            assert total.is_rational()
            assert total.rational_value() == -1

    def test_inverse_round_trip(self):
        e = CycloElement(7, [1, 2, 0, -1, 3, Fraction(1, 2)])
        assert e * e.inverse() == CycloElement.rational(7, 1)

    def test_inverse_round_trip_larger_prime(self):
        import random

        rng = random.Random(55)
        for _ in range(5):
            e = CycloElement(13, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(12)])
            if e.is_zero():
                continue
            assert e * e.inverse() == CycloElement.rational(13, 1)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CycloElement.rational(5, 0).inverse()

    def test_non_rational_detected(self):
        assert not CycloElement.root_power(5, 2).is_rational()


_T = sympy.Symbol("t")
_DIFFERENTIAL = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def _field_elements(draw, count):
    """A prime p in {3, 5, 7, 11, 13} and `count` nonzero elements of Q(alpha_p)."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    vectors = st.lists(coeffs, min_size=p - 1, max_size=p - 1).filter(any)
    return p, [CycloElement(p, draw(vectors)) for _ in range(count)]


def _as_sympy(e):
    return sum(sympy.Rational(c, e.den) * _T**i for i, c in enumerate(e.nums))


class TestCycloElementAgainstSympy:
    """The Galois-norm inverse and the conjugations against sympy's extended
    Euclid modulo the cyclotomic polynomial."""

    @_DIFFERENTIAL
    @given(_field_elements(1))
    def test_inverse_matches_sympy_invert(self, drawn):
        p, (e,) = drawn
        expected = sympy.invert(_as_sympy(e), sympy.cyclotomic_poly(p, _T), _T)
        assert sympy.expand(_as_sympy(e.inverse()) - expected) == 0

    @_DIFFERENTIAL
    @given(_field_elements(2), st.integers(min_value=1, max_value=12))
    def test_conjugate_is_multiplicative(self, drawn, k):
        p, (a, b) = drawn
        k = k % (p - 1) + 1
        assert (a * b).conjugate(k) == a.conjugate(k) * b.conjugate(k)
        assert a.conjugate(1) == a

    def test_conjugate_rejects_multiples_of_p(self):
        with pytest.raises(ValueError):
            CycloElement.root_power(5, 1).conjugate(10)


class TestLambdaLimit:
    def test_zero_below_diagonal(self):
        assert lambda_at_one(Dims(1, 2), 1, 0, 4, -1) == 0

    def test_diagonal_value(self):
        # m + n + 2 - s = 4 with s = 0: limit is 3^4
        assert lambda_at_one(Dims(1, 1), 0, 2, 3, 1) == 81
        assert lambda_at_one(Dims(1, 1), 0, 2, 3, -1) == -81

    def test_zero_base(self):
        assert lambda_at_one(Dims(1, 1), 1, 1, 0, 1) == 0

    def test_out_of_range_j_rejected(self):
        with pytest.raises(ValueError):
            lambda_at_one(Dims(1, 1), 0, 3, 1, 1)

    @pytest.mark.parametrize("s", [-1, 3])
    def test_out_of_range_s_rejected(self, s):
        with pytest.raises(ValueError, match="0 <= s <= m \\+ n"):
            lambda_at_one(Dims(1, 1), s, 0, 1, 1)


# Lambda_j forced to 1/3 at the first root, for every (s, j).  The root sum
# carries it to the other roots by conjugation, which fixes a rational, so at
# p = 3 it is 2/3, not an integer, and both checks must raise instead of
# returning a verdict.  (1/2 would sum to the integer (p-1)/2 = 1.)
_NON_INTEGRAL_ROOT_SUM = """
from fractions import Fraction
from csck import localization as L
from csck.character import Dims, InvariantViolation, KahlerClass, fixed_components

def _row(p, k, d, c0, delta):
    value = L.CycloElement.rational(p, Fraction(1, 3) if k == 1 else 0)
    return [[value] * (d.m + d.n - s + 1) for s in range(d.m + d.n + 1)]

L._lambda_row = _row
d, cls = Dims(1, 1), KahlerClass(1, 1, 1)
checks = {
    "lambda_sum_check": lambda: L.lambda_sum_check(3, d, 2, 0, 1, 1),
    "t_sum_congruence_check": lambda: L.t_sum_congruence_check(3, fixed_components(d, cls)[0], 0, 1),
}
for name, check in checks.items():
    try:
        print(name, "returned", check())
    except InvariantViolation as exc:
        print(name, "raised", exc)
        continue
    raise SystemExit(1)
"""


class TestCongruences:
    def test_frozen_witness_small(self):
        verdict = lambda_sum_check(3, Dims(1, 1), 2, 0, 1, 1)
        assert verdict.passed
        assert verdict.detail == "2"

    def test_frozen_witness_p5(self):
        verdict = lambda_sum_check(5, Dims(1, 2), 1, 2, 2, -1)
        assert verdict.passed
        assert verdict.detail == "-4"

    @pytest.mark.parametrize(
        "s, j, delta, message",
        [
            (-1, 0, 1, "0 <= s <= m \\+ n"),
            (3, 0, 1, "0 <= s <= m \\+ n"),
            (1, 2, 1, "0 <= j <= m \\+ n - s"),
            (0, -1, 1, "0 <= j <= m \\+ n - s"),
            (0, 0, 2, "delta must be"),
            (0, 0, 0, "delta must be"),
        ],
    )
    def test_bad_indices_rejected_before_any_field_element(self, monkeypatch, s, j, delta, message):
        # the refusal must come before the root sum: no cyclotomic element is built
        def refuse(*_):
            raise AssertionError("a cyclotomic element was built")

        monkeypatch.setattr(CycloElement, "__init__", refuse)
        monkeypatch.setattr(CycloElement, "_make", classmethod(refuse))
        with pytest.raises(ValueError, match=message):
            lambda_sum_check(3, Dims(1, 1), s, j, 1, delta)

    def test_root_sums_match_one_evaluation_per_root(self):
        # every (s, j) entry of the shared table against Lambda_j evaluated in
        # full, with its own inverse, at each root
        for p in (3, 5, 7):
            for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
                d = Dims(m, n)
                for c0 in range(-3, 4):
                    for delta in (-1, 1):
                        table = localization._root_sums(p, d, c0, delta)
                        assert len(table) == m + n + 1
                        for s in range(m + n + 1):
                            assert len(table[s]) == m + n - s + 1
                            for j in range(m + n - s + 1):
                                assert table[s][j] == reference_root_sum(p, d, s, j, c0, delta), (p, d, s, j, c0)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_lambda_row_at_each_root_is_a_conjugate(self, p):
        # the root sums evaluate only the row at alpha_p and carry it to
        # alpha_p^k by sigma_k; the row evaluated at alpha_p^k must agree
        for d in (Dims(1, 1), Dims(1, 2), Dims(2, 3)):
            for c0 in (-3, 0, 1, 4):
                for delta in (-1, 1):
                    first = localization._lambda_row(p, 1, d, c0, delta)
                    for k in range(2, p):
                        row = localization._lambda_row(p, k, d, c0, delta)
                        assert [len(r) for r in row] == [len(r) for r in first]
                        for at_k, at_one in zip(row, first):
                            for value, base in zip(at_k, at_one):
                                assert value == base.conjugate(k), (p, d, c0, delta, k)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            lambda_sum_check(4, Dims(1, 1), 0, 0, 1, 1)
        with pytest.raises(ValueError):
            lambda_sum_check(9, Dims(1, 1), 0, 0, 1, 1)

    def test_lambda_grid_small_dims(self):
        # every j <= m + n - s over p in {3, 5, 7} and m + n <= 4
        for p in (3, 5, 7):
            for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
                d = Dims(m, n)
                for delta in (-1, 1):
                    for c in (0, 1, 2, -3):
                        for s in range(m + n + 1):
                            for j in range(m + n - s + 1):
                                assert lambda_sum_check(p, d, s, j, c, delta).passed

    def test_t_sum_small(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 1)
        first = fixed_components(d, cls)[0]
        verdict = t_sum_congruence_check(3, first, 0, 1)
        assert verdict.passed

    def test_t_sum_p5(self):
        d = Dims(1, 2)
        cls = KahlerClass(3, 4, 2)
        second = fixed_components(d, cls)[1]
        verdict = t_sum_congruence_check(5, second, -1, 2)
        assert verdict.passed
        assert verdict.to_json()["pass"] is True

    def test_t_sum_composite_p_rejected(self, monkeypatch):
        # refused before any sum is formed
        for name in ("SeriesContext", "_root_sums", "_extraction_sum"):
            monkeypatch.setattr(localization, name, _no_work)
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 1)
        first = fixed_components(d, cls)[0]
        with pytest.raises(ValueError, match="odd prime"):
            t_sum_congruence_check(9, first, 0, 1)

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_non_integral_root_sum_rejected(self, flags):
        # a fresh interpreter, so the patch meets a cold root-sum cache; under
        # -O as well, so the raise cannot be an assert statement
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        cmd = [sys.executable, *flags, "-c", _NON_INTEGRAL_ROOT_SUM]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_verdict_serialization(self):
        verdict = lambda_sum_check(3, Dims(1, 1), 2, 0, 1, 1)
        obj = verdict.to_json()
        assert set(obj) == {"check", "params", "pass", "witness"}
        assert obj["check"] == "lambda_sum_congruence"


def _fraction_lambda_at_one(d, s, j, c0, delta):
    """Lambda_j(1) by its u-series around t = 1 + u, every coefficient a
    Fraction: the reference for the closed form of lambda_at_one."""
    m, n = d.m, d.n
    den_order = j + 2
    cap = den_order

    def one_plus_u_pow(e):
        return [Fraction(general_binomial(e, i)) for i in range(cap + 1)]

    def mul(a, b):
        out = [Fraction(0)] * (cap + 1)
        for i, ai in enumerate(a):
            for jj, bj in enumerate(b):
                if i + jj <= cap:
                    out[i + jj] += ai * bj
        return out

    def powered(a, e):
        out = [Fraction(1)] + [Fraction(0)] * cap
        for _ in range(e):
            out = mul(out, a)
        return out

    cm1 = one_plus_u_pow(c0)
    cm1[0] -= 1
    num = mul(one_plus_u_pow(s * c0 + delta), powered(cm1, m + n + 2 - s))
    dm1 = one_plus_u_pow(delta)
    dm1[0] -= 1
    den = mul([Fraction(0), Fraction(1)] + [Fraction(0)] * (cap - 1), powered(dm1, j + 1))
    num_order = next((i for i, v in enumerate(num) if v), None)
    if num_order is None or num_order > den_order:
        return Fraction(0)
    if num_order < den_order:
        raise InvariantViolation("pole")
    return num[den_order] / den[den_order]


class TestLambdaLimitAgainstFractions:
    def test_grid_matches_fraction_series(self):
        for m, n in ((1, 1), (1, 3), (3, 1), (2, 2), (2, 4)):
            d = Dims(m, n)
            for s in range(m + n + 1):
                for j in range(m + n - s + 1):
                    for c0 in (-4, -1, 0, 1, 2, 5):
                        for delta in (-1, 1):
                            value = lambda_at_one(d, s, j, c0, delta)
                            assert type(value) is Fraction
                            assert value == _fraction_lambda_at_one(d, s, j, c0, delta), (m, n, s, j, c0, delta)


def test_check_result_params_default_is_not_shared():
    first, second = CheckResult("a", True, "x"), CheckResult("b", False, "y", 1.5)
    first.params["p"] = 3
    assert second.params == {}
    assert second.to_json() == {"check": "b", "params": {}, "pass": False, "witness": "y"}
