from fractions import Fraction

import pytest

from csck.character import Dims, KahlerClass, fixed_components, localized_component_poly
from csck.localization import (
    CycloElement,
    build_series_context,
    lambda_at_one,
    lambda_sum_check,
    series_component_value,
    t_sum_congruence_check,
)


class TestSeriesContext:
    def test_phi_for_positive_delta(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 1)
        second = fixed_components(d, cls)[1]  # delta = +1
        ctx = build_series_context(d, second, 0, 0, cls)
        # (1+x)^-1 (1+y) - 1 truncated at degree 2
        assert dict(ctx.phi.terms()) == {
            (1, 0): Fraction(-1),
            (0, 1): Fraction(1),
            (2, 0): Fraction(1),
            (1, 1): Fraction(-1),
        }

    def test_psi_zero_when_beta_gamma_zero(self):
        d = Dims(1, 1)
        cls = KahlerClass(0, 0, 0)
        first = fixed_components(d, cls)[0]
        ctx = build_series_context(d, first, 0, 3, cls)  # rho = tau = 0
        assert ctx.beta == 0 and ctx.gamma == 0
        assert ctx.psi.is_zero()

    def test_psi_direct_expansion(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 0)
        first = fixed_components(d, cls)[0]  # rho = 1, tau = 1
        ctx = build_series_context(d, first, 0, 1, cls)
        assert ctx.beta == 1 and ctx.gamma == 1
        assert dict(ctx.psi.terms()) == {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}

    def test_mismatched_class_rejected(self):
        d = Dims(1, 1)
        fc = fixed_components(d, KahlerClass(1, 1, 1))[0]
        with pytest.raises(ValueError):
            build_series_context(d, fc, 0, 1, KahlerClass(2, 2, 2))


class TestSeriesRoute:
    def test_matches_closed_form_on_grid(self):
        for m, n in ((1, 1), (1, 2)):
            d = Dims(m, n)
            for cls in (KahlerClass(1, 1, 1), KahlerClass(3, 4, 2)):
                for fc in fixed_components(d, cls):
                    for eps in (-1, 0, 1):
                        closed = localized_component_poly(d, fc, eps, cls)
                        for zeta in (-2, 0, 1, 3):
                            ctx = build_series_context(d, fc, eps, zeta, cls)
                            assert series_component_value(ctx) == closed.evaluate(zeta)

    def test_zero_weight_base_contributes_nothing(self):
        # zeta*kappa - eps*r = 0 kills every term with a positive power
        d = Dims(1, 2)
        cls = KahlerClass(1, 0, 1)  # kappa = -mu = 0 for the first component
        first = fixed_components(d, cls)[0]
        ctx = build_series_context(d, first, 0, 5, cls)
        assert series_component_value(ctx) == 0
        assert localized_component_poly(d, first, 0, cls).evaluate(5) == 0


class TestCycloElement:
    def test_root_powers_cycle(self):
        a = CycloElement.root_power(5, 1)
        assert a**5 == CycloElement.rational(5, 1)
        assert a**7 == CycloElement.root_power(5, 2)
        assert a ** (-1) == CycloElement.root_power(5, 4)

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


class TestCongruences:
    def test_frozen_witness_small(self):
        verdict = lambda_sum_check(3, Dims(1, 1), 2, 0, 1, 1)
        assert verdict.passed
        assert verdict.detail == "2"

    def test_frozen_witness_p5(self):
        verdict = lambda_sum_check(5, Dims(1, 2), 1, 2, 2, -1)
        assert verdict.passed
        assert verdict.detail == "-4"

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
        verdict = t_sum_congruence_check(3, d, first, 0, 1, cls)
        assert verdict.passed

    def test_t_sum_p5(self):
        d = Dims(1, 2)
        cls = KahlerClass(3, 4, 2)
        second = fixed_components(d, cls)[1]
        verdict = t_sum_congruence_check(5, d, second, -1, 2, cls)
        assert verdict.passed
        assert verdict.to_json()["pass"] is True

    def test_t_sum_composite_p_rejected(self):
        d = Dims(1, 1)
        cls = KahlerClass(1, 1, 1)
        first = fixed_components(d, cls)[0]
        with pytest.raises(ValueError):
            t_sum_congruence_check(9, d, first, 0, 1, cls)

    def test_verdict_serialization(self):
        verdict = lambda_sum_check(3, Dims(1, 1), 2, 0, 1, 1)
        obj = verdict.to_json()
        assert set(obj) == {"check", "params", "pass", "witness"}
        assert obj["check"] == "lambda_sum_congruence"
