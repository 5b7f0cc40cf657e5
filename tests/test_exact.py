import random
from fractions import Fraction

import pytest

from csck.exact import binomial, factorial, general_binomial, parse_rational, sign


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(2, 5) == 0
    assert binomial(7, 0) == 1
    assert binomial(-1, 0) == 0
    assert binomial(4, -1) == 0


def test_binomial_pascal_identity():
    for n in range(1, 31):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_row_sums():
    for n in range(13):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_general_binomial_negative_exponent():
    # (1 + u)^-2 = 1 - 2u + 3u^2 - 4u^3 + ...
    assert [general_binomial(-2, k) for k in range(5)] == [1, -2, 3, -4, 5]
    assert general_binomial(3, 2) == 3
    assert general_binomial(3, 5) == 0


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800
    with pytest.raises(ValueError):
        factorial(-1)


def test_rational_strings_round_trip():
    for text in ("3/4", "-3/4", "7", "-123456789123456789", "0"):
        value = parse_rational(text)
        assert str(value) == text
    assert parse_rational(" 6/8 ") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    for text in ("x", "1e5", "2E-3"):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_sign():
    assert sign(Fraction(-3, 7)) == -1
    assert sign(0) == 0
    assert sign(Fraction(1, 10**9)) == 1


def test_field_axioms_on_random_triples():
    rng = random.Random(1234)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1
