"""Acceptance suite: one test per criterion, exact tolerances, stated runtime
bounds.  Each test prints a single pass/fail line (visible with ``pytest -s``
or in the captured output of a failing run)."""

from csck import verification


def _run(check, bound_seconds=None):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {status} {result.name}: {result.detail} [{result.elapsed:.2f}s]")
    assert result.passed, result.detail
    if bound_seconds is not None:
        assert result.elapsed < bound_seconds, (
            f"{result.name} took {result.elapsed:.2f}s, bound {bound_seconds}s"
        )


def test_criterion_01_golden_polynomial():
    _run(verification.check_golden_polynomial, bound_seconds=1)


def test_criterion_02_limit_signs():
    _run(verification.check_limit_signs, bound_seconds=10)


def test_criterion_03_ke_nonvanishing():
    _run(verification.check_ke_nonvanishing, bound_seconds=10)


def test_criterion_04_localization_assembly():
    _run(verification.check_assembly_identity, bound_seconds=60)


def test_criterion_05_localized_sum_structure():
    _run(verification.check_localized_sum_structure)


def test_criterion_06_series_oracle():
    _run(verification.check_series_oracle, bound_seconds=30)


def test_criterion_07_alternating_power_sum():
    _run(verification.check_alternating_power_sum_table)


def test_criterion_08_vanishing_orders():
    _run(verification.check_vanishing_orders, bound_seconds=30)


def test_criterion_09_root_isolation():
    _run(verification.check_root_isolation)


def test_criterion_10_structural_properties():
    _run(verification.check_structural_properties)


def test_criterion_11_cyclotomic_congruences_deep():
    _run(verification.check_cyclotomic_congruences, bound_seconds=120)


def test_assembly_and_structure_checks_draw_different_classes(monkeypatch):
    # the two seeded checks each cover their own 420 (dims, class) samples
    drawn = []
    real = verification._random_classes

    def recording(rng, count):
        classes = real(rng, count)
        drawn[-1].extend(classes)
        return classes

    monkeypatch.setattr(verification, "_random_classes", recording)
    for check in (verification.check_assembly_identity, verification.check_localized_sum_structure):
        drawn.append([])
        assert check().passed
    assert len(drawn[0]) == len(drawn[1]) == 420
    assert drawn[0] != drawn[1]


def test_cyclotomic_battery_checks_each_lambda_sum_once(monkeypatch):
    # components and signs share (p, d, c0, delta), and with it every
    # lambda-sum verdict; 512 distinct ones, each checked once
    seen = []
    real = verification.localization.lambda_sum_check

    def recording(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(verification.localization, "lambda_sum_check", recording)
    assert verification.check_cyclotomic_congruences().passed
    assert len(seen) == len(set(seen)) == 512
