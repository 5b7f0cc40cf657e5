"""Exact scalar arithmetic: binomials, factorials, rational strings.

Everything in this package computes with arbitrary-precision integers and
exact rationals (``fractions.Fraction``).  No floating point enters any
computation; floats appear only in optional display fields of the CLI.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


class InvariantViolation(RuntimeError):
    """A proven identity failed: an implementation bug, never bad input."""


def binomial(n: int, k: int) -> int:
    """C(n, k), with value 0 whenever k < 0, n < 0 or k > n.

    The out-of-range convention lets double sums over (s, q) drop their
    vanishing terms without explicit range bookkeeping.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def general_binomial(e: int, k: int) -> int:
    """C(e, k) for any integer e: the coefficient of u^k in (1 + u)^e."""
    if k < 0:
        return 0
    if e >= 0:
        return binomial(e, k)
    return (-1) ** k * math.comb(-e + k - 1, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def to_integers(values: Iterable) -> tuple[int, list[int]]:
    """(L, L * values) for the least L > 0 that makes every value an integer.

    ``int`` and ``Fraction`` values are read as they stand; any other value
    goes through ``Fraction`` first.
    """
    vs = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in vs))
    return scale, [v.numerator * (scale // v.denominator) for v in vs]


def parse_rational(text: str) -> Fraction:
    """Parse "P/Q", an integer or a decimal.

    Exponent notation is refused: ``Fraction("1e1000000000")`` would build a
    billion-digit integer before any size check could run.
    """
    if "e" in text.lower():
        raise ValueError(f"not a rational (write P/Q, not exponent notation): {text!r}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    return value


def sign(value: Fraction | int) -> int:
    """-1, 0 or +1."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0
