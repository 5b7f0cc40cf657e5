"""Independent verification routes for the localized sums.

Two re-derivations live here, deliberately sharing no code with the closed
forms in :mod:`csck.character`:

* the *series route*: each fixed component's contribution is recovered as an
  x^m y^n coefficient of (1+x)^m (1+y)^n Phi^(m+n-s) Psi^s in exact truncated
  series arithmetic, where Phi and Psi are the binomial series attached to
  the component's weights;
* the *cyclotomic route*: the weighted sums Lambda_j evaluated at all p-th
  roots of unity are computed exactly in Q(alpha_p) = Q[t]/(1 + t + ... +
  t^(p-1)), and the mod-p congruence that collapses them to the limit value
  Lambda_j(1) is checked literally, prime by prime.

Both routes are slower than the closed forms and run behind the CLI's deep
verification flag; they are the executable witnesses of the reduction steps
the closed forms rely on.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .character import (
    Dims,
    FixedComponent,
    InvariantViolation,
    KahlerClass,
    _check_component,
    _check_eps,
    localized_component_poly,
)
from .exact import binomial, general_binomial
from .polynomials import TruncSeries2


class CheckResult(namedtuple("CheckResult", ("name", "passed", "detail", "elapsed", "params"))):
    """Outcome of one verification check, serializable as a report row."""

    __slots__ = ()

    def __new__(cls, name: str, passed: bool, detail: str, elapsed: float = 0.0, params: dict | None = None):
        # a fresh dict per result: a default would be one dict shared by all
        return super().__new__(cls, name, passed, detail, elapsed, {} if params is None else params)

    def to_json(self) -> dict:
        return {"check": self.name, "params": self.params, "pass": self.passed, "witness": self.detail}


# -- series route -------------------------------------------------------------


class SeriesContext(NamedTuple):
    """Truncated-series data for one fixed component at one evaluation point.

    Phi = (1+x)^(-delta) (1+y)^delta - 1 and Psi = (1+x)^beta (1+y)^gamma - 1
    with beta = zeta*rho - eps*a, gamma = zeta*tau - eps*b; both are truncated
    at total degree m + n and have no constant term, so only their lowest
    homogeneous parts can reach the extracted x^m y^n coefficient.
    """

    dims: Dims
    fc: FixedComponent
    eps: int
    zeta: int
    cls: KahlerClass
    beta: int
    gamma: int
    truncation: int
    phi: TruncSeries2
    psi: TruncSeries2


def _shifted_binomial(e_x: int, e_y: int, cap: int) -> TruncSeries2:
    """(1 + x)^e_x (1 + y)^e_y - 1, truncated past total degree cap."""
    return TruncSeries2.binomial_series(e_x, e_y, cap) - TruncSeries2.constant(1, cap)


def build_series_context(d: Dims, fc: FixedComponent, eps: int, zeta: int, cls: KahlerClass) -> SeriesContext:
    _check_eps(eps)
    _check_component(d, fc, cls)
    cap = d.m + d.n
    beta = zeta * fc.rho - eps * fc.a
    gamma = zeta * fc.tau - eps * fc.b
    phi = _shifted_binomial(-fc.delta, fc.delta, cap)
    psi = _shifted_binomial(beta, gamma, cap)
    return SeriesContext(d, fc, eps, int(zeta), cls, beta, gamma, cap, phi, psi)


@lru_cache(maxsize=None)
def _fixed_powers(m: int, n: int, delta: int) -> tuple[TruncSeries2, ...]:
    """(1+x)^m (1+y)^n Phi^j for j = 0..m+n: neither factor depends on the
    class, eps or the evaluation point, only on (m, n, delta)."""
    cap = m + n
    phi = _shifted_binomial(-delta, delta, cap)
    powers = [TruncSeries2.binomial_series(m, n, cap)]
    for _ in range(cap):
        powers.append(powers[-1] * phi)
    return tuple(powers)


def _psi_powers(ctx: SeriesContext) -> list[TruncSeries2]:
    """The powers 0..m+n of the context's Psi."""
    powers = [TruncSeries2.constant(1, ctx.truncation)]
    for _ in range(ctx.truncation):
        powers.append(powers[-1] * ctx.psi)
    return powers


def series_component_value(ctx: SeriesContext) -> Fraction:
    """The component's localized contribution at the context's evaluation
    point, via coefficient extraction; must equal the closed-form polynomial
    of :func:`csck.character.localized_component_poly` evaluated there."""
    d, fc = ctx.dims, ctx.fc
    m, n = d.m, d.n
    fixed = _fixed_powers(m, n, fc.delta)
    psi_pows = _psi_powers(ctx)
    c0 = ctx.zeta * fc.kappa - ctx.eps * fc.r
    total = Fraction(0)
    for s in range(m + n + 1):
        coeff = binomial(m + n + 2, s) * fc.delta ** (m + n - s + 1) * c0 ** (m + n + 2 - s)
        if coeff == 0:
            continue
        total += coeff * fixed[m + n - s].product_coefficient(psi_pows[s], (m, n))
    return total


# -- cyclotomic route ----------------------------------------------------------


def _require_odd_prime(p: int) -> None:
    if p < 3 or p > 97 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime <= 97, got {p}")
    f = 3
    while f * f <= p:
        if p % f == 0:
            raise ValueError(f"p must be an odd prime <= 97, got {p}")
        f += 2


def _fold(p: int, raw: Sequence[int]) -> list[int]:
    """Reduce coefficients of 1, t, t^2, ... to the basis 1, ..., t^(p-2):
    fold with t^p = 1, then eliminate t^(p-1) = -(1 + t + ... + t^(p-2))."""
    folded = [0] * p
    for e, c in enumerate(raw):
        folded[e % p] += c
    top = folded[p - 1]
    return [c - top for c in folded[: p - 1]]


class CycloElement:
    """Element of Q(alpha_p), represented in the basis 1, t, ..., t^(p-2) of
    Q[t]/(1 + t + ... + t^(p-1)) as integer numerators over one positive
    denominator in lowest terms, so equal elements have equal fields.
    Nonzero elements are invertible."""

    __slots__ = ("p", "nums", "den")

    def __init__(self, p: int, coeffs: Sequence[Fraction | int] = ()):
        _require_odd_prime(p)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > p - 1:
            raise ValueError("coefficient vector longer than p - 1")
        # over the lcm of lowest-terms denominators the vector is in lowest terms
        den = lcm(*(c.denominator for c in cs))
        self.p, self.den = p, den
        self.nums = tuple(c.numerator * (den // c.denominator) for c in cs) + (0,) * (p - 1 - len(cs))

    @classmethod
    def _make(cls, p: int, nums: Sequence[int], den: int) -> "CycloElement":
        """The element nums / den for a positive den, brought to lowest terms."""
        out = cls.__new__(cls)
        g = gcd(den, *nums)
        out.p, out.nums, out.den = p, tuple(c // g for c in nums), den // g
        return out

    @classmethod
    def rational(cls, p: int, value: Fraction | int) -> "CycloElement":
        return cls(p, (Fraction(value),))

    @classmethod
    def root_power(cls, p: int, e: int) -> "CycloElement":
        """alpha_p^e for any integer e (exponents live mod p)."""
        _require_odd_prime(p)
        return cls._make(p, _fold(p, [0] * (e % p) + [1]), 1)

    def _check(self, other: "CycloElement") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic fields p={self.p} and p={other.p}")

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        nums = [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)]
        return CycloElement._make(self.p, nums, self.den * other.den)

    def __neg__(self) -> "CycloElement":
        return CycloElement._make(self.p, [-a for a in self.nums], self.den)

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        return self + -other

    def __mul__(self, other: "CycloElement | Fraction | int") -> "CycloElement":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElement._make(self.p, [a * q.numerator for a in self.nums], self.den * q.denominator)
        self._check(other)
        raw = [0] * (2 * self.p - 3)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    raw[i + j] += a * b
        return CycloElement._make(self.p, _fold(self.p, raw), self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self, k: int) -> "CycloElement":
        """The Galois automorphism sigma_k: alpha_p -> alpha_p^k, for k prime to p."""
        if k % self.p == 0:
            raise ValueError(f"sigma_k needs k prime to p={self.p}, got k={k}")
        raw = [0] * self.p
        for e, c in enumerate(self.nums):
            raw[k * e % self.p] += c
        return CycloElement._make(self.p, _fold(self.p, raw), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InvariantViolation(f"cyclotomic element is not rational: {self!r}")
        return Fraction(self.nums[0], self.den)

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse prod_{k=2}^{p-1} sigma_k(a) / N(a), where the
        Galois norm N(a) = a * prod_{k=2}^{p-1} sigma_k(a) must be rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        cofactor = CycloElement.rational(self.p, 1)
        for k in range(2, self.p):
            cofactor = cofactor * self.conjugate(k)
        return cofactor * (1 / (self * cofactor).rational_value())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycloElement) and (self.p, self.nums, self.den) == (other.p, other.nums, other.den)

    def __repr__(self) -> str:
        return f"CycloElement(p={self.p}, {list(self.nums)!r} / {self.den})"


def _check_lambda_indices(d: Dims, s: int, j: int, delta: int) -> None:
    if not 0 <= s <= d.m + d.n:
        raise ValueError(f"s must satisfy 0 <= s <= m + n, got s={s}")
    if not 0 <= j <= d.m + d.n - s:
        raise ValueError(f"j must satisfy 0 <= j <= m + n - s, got j={j}, s={s}")
    if delta not in (-1, 1):
        raise ValueError(f"delta must be +-1, got {delta}")


def _lambda_row(p: int, k: int, d: Dims, c0: int, delta: int) -> list[list[CycloElement]]:
    """Lambda_j at alpha_p^k for every s = 0..m+n (outer) and j = 0..m+n-s
    (inner): alpha^(k(s c0 + delta)) (alpha^(k c0) - 1)^(m+n+2-s) over
    (alpha^k - 1) (alpha^(k delta) - 1)^(j+1).

    The powers of alpha^(k c0) - 1 are formed once, and the inverses of all
    m + n + 1 denominators come from two inversions, so each numerator costs
    one product and each (s, j) one more.  All powers of the root are cyclic,
    so negative exponents need no special casing."""
    one = CycloElement.rational(p, 1)
    top = d.m + d.n
    base = CycloElement.root_power(p, k * c0) - one
    base_pows = [one]
    for _ in range(top + 2):
        base_pows.append(base_pows[-1] * base)
    step = (CycloElement.root_power(p, k * delta) - one).inverse()
    den_invs = [(CycloElement.root_power(p, k) - one).inverse() * step]
    for _ in range(top):
        den_invs.append(den_invs[-1] * step)
    row = []
    for s in range(top + 1):
        num = CycloElement.root_power(p, k * (s * c0 + delta)) * base_pows[top + 2 - s]
        row.append([num * den_invs[j] for j in range(top - s + 1)])
    return row


@lru_cache(maxsize=None)
def _root_sums(p: int, d: Dims, c0: int, delta: int) -> tuple[tuple[int, ...], ...]:
    """-sum_{k=1}^{p-1} Lambda_j(alpha_p^k) at [s][j] for every s = 0..m+n and
    j = 0..m+n-s, summed literally in Q(alpha_p); every sum must come out
    rational and integral.  Only these integers outlive the call."""
    totals = _lambda_row(p, 1, d, c0, delta)
    for k in range(2, p):
        totals = [[a + b for a, b in zip(acc, row)] for acc, row in zip(totals, _lambda_row(p, k, d, c0, delta))]
    sums = []
    for acc in totals:
        values = tuple(t.rational_value() for t in acc)
        for value in values:
            if value.denominator != 1:
                raise InvariantViolation(f"summed Lambda value is not an integer: {value}")
        sums.append(tuple(-v.numerator for v in values))
    return tuple(sums)


def lambda_at_one(d: Dims, s: int, j: int, c0: int, delta: int) -> Fraction:
    """The limit of Lambda_j at t = 1, by series expansion around t = 1 + u.

    Returns 0 for j < m + n - s and delta^(m+n-s+1) c0^(m+n+2-s) at
    j = m + n - s; a genuine pole (denominator vanishing to higher order than
    the numerator) is an invariant violation, impossible within the
    precondition 0 <= j <= m + n - s, 0 <= s <= m + n.
    """
    m, n = d.m, d.n
    _check_lambda_indices(d, s, j, delta)
    den_order = j + 2
    cap = den_order

    # integer u-series truncated past u^cap; the only division is the last line
    def one_plus_u_pow(e: int) -> list[int]:
        return [general_binomial(e, i) for i in range(cap + 1)]

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (cap + 1)
        for i, ai in enumerate(a):
            if ai:
                for jj, bj in enumerate(b):
                    if i + jj > cap:
                        break
                    if bj:
                        out[i + jj] += ai * bj
        return out

    def powered(a: list[int], e: int) -> list[int]:
        out = [1] + [0] * cap
        for _ in range(e):
            out = mul(out, a)
        return out

    cm1 = one_plus_u_pow(c0)
    cm1[0] -= 1  # (1+u)^c0 - 1
    num = mul(one_plus_u_pow(s * c0 + delta), powered(cm1, m + n + 2 - s))
    dm1 = one_plus_u_pow(delta)
    dm1[0] -= 1  # (1+u)^delta - 1
    den = mul([0, 1] + [0] * (cap - 1), powered(dm1, j + 1))
    num_order = next((i for i, v in enumerate(num) if v), None)
    if num_order is None:
        return Fraction(0)
    if num_order < den_order:
        raise InvariantViolation(
            f"pole in the limit at 1: numerator order {num_order} < denominator order {den_order}"
        )
    if num_order > den_order:
        return Fraction(0)
    return Fraction(num[den_order], den[den_order])


def lambda_sum_check(p: int, d: Dims, s: int, j: int, c0: int, delta: int) -> CheckResult:
    """Check that -sum_k Lambda_j(alpha_p^k) is an integer congruent mod p to
    the limit value Lambda_j(1).  The indices are checked before any field
    element is built."""
    _require_odd_prime(p)
    _check_lambda_indices(d, s, j, delta)
    value = _root_sums(p, d, c0, delta)[s][j]
    reference = lambda_at_one(d, s, j, c0, delta)
    passed = (value - int(reference)) % p == 0
    return CheckResult(
        "lambda_sum_congruence",
        passed,
        str(-value),
        params={"p": p, "m": d.m, "n": d.n, "s": s, "j": j, "c": c0, "delta": delta},
    )


def t_sum_congruence_check(
    p: int, d: Dims, fc: FixedComponent, eps: int, zeta: int, cls: KahlerClass
) -> CheckResult:
    """Recompute one component's root-of-unity sum from the pre-reduction
    display and check it against the reduced closed form modulo p.

    The sum over k of the exact cyclotomic values must collapse to an
    integer; that integer, minus the closed-form value at the evaluation
    point, must be divisible by p.
    """
    _require_odd_prime(p)
    m, n = d.m, d.n
    c0 = zeta * fc.kappa - eps * fc.r
    fixed = _fixed_powers(m, n, fc.delta)
    psi_pows = _psi_powers(build_series_context(d, fc, eps, zeta, cls))
    sums = _root_sums(p, d, c0, fc.delta)
    total = Fraction(0)
    for s in range(m + n + 1):
        for j in range(m + n - s + 1):
            extracted = fixed[j].product_coefficient(psi_pows[s], (m, n))
            if extracted:
                total += binomial(m + n + 2, s) * sums[s][j] * extracted
    if total.denominator != 1:
        raise InvariantViolation(f"root-of-unity T-sum is not an integer: {total}")
    reference = localized_component_poly(d, fc, eps, cls).evaluate(zeta)
    passed = (int(total) - int(reference)) % p == 0
    return CheckResult(
        "t_sum_congruence",
        passed,
        str(int(total)),
        params={
            "p": p,
            "m": m,
            "n": n,
            "component": fc.index,
            "eps": eps,
            "zeta": zeta,
            "cls": [str(v) for v in cls],
        },
    )
