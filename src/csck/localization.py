"""Independent verification routes for the localized sums.

Two re-derivations live here, deliberately sharing no code with the closed
forms in :mod:`csck.character`:

* the *series route*: each fixed component's contribution is recovered as an
  x^m y^n coefficient of (1+x)^m (1+y)^n Phi^(m+n-s) Psi^s in exact truncated
  series arithmetic, where Phi and Psi are the binomial series attached to
  the component's weights.  The powers of Phi are kept per (m, n, delta) and
  those of Psi per (beta, gamma, m + n), so evaluation points that share
  weights share them;
* the *cyclotomic route*: the weighted sums Lambda_j evaluated at all p-th
  roots of unity are computed exactly in Q(alpha_p) = Q[t]/(1 + t + ... +
  t^(p-1)), and the mod-p congruence that collapses them to the limit value
  Lambda_j(1), a proven closed form, is checked literally, prime by prime.
  Each Lambda_j is evaluated once, at alpha_p; its value at alpha_p^k is the
  Galois conjugate sigma_k of that, a permutation of its coefficients.  The
  T-sum is the series route's extraction sum with these root sums as the
  weights, where the series value takes the limits Lambda_j(1).

Both routes are slower than the closed forms and run behind the CLI's deep
verification flag; they are the executable witnesses of the reduction steps
the closed forms rely on.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .character import (
    Dims,
    FixedComponent,
    InvariantViolation,
    KahlerClass,
    _check_component,
    _check_eps,
    localized_component_poly,
)
from .exact import binomial
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


@lru_cache(maxsize=64)
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


@lru_cache(maxsize=64)
def _psi_powers(beta: int, gamma: int, cap: int) -> tuple[TruncSeries2, ...]:
    """The powers 0..cap of Psi = (1+x)^beta (1+y)^gamma - 1, shared by every
    context with these weights."""
    psi = _shifted_binomial(beta, gamma, cap)
    powers = [TruncSeries2.constant(1, cap)]
    for _ in range(cap):
        powers.append(powers[-1] * psi)
    return tuple(powers)


def _extraction_sum(ctx: SeriesContext, weights: Iterable[tuple[int, int, int]]) -> int:
    """The sum over (s, j, w) in weights of C(m+n+2, s) w [x^m y^n] of
    (1+x)^m (1+y)^n Phi^j Psi^s, for integer w.  Both series are integral,
    so the sum stays in integers."""
    m, n = ctx.dims.m, ctx.dims.n
    fixed = _fixed_powers(m, n, ctx.fc.delta)
    psi_pows = _psi_powers(ctx.beta, ctx.gamma, ctx.truncation)
    total = 0
    for s, j, w in weights:
        if w:
            total += binomial(m + n + 2, s) * w * fixed[j]._product_coefficient(psi_pows[s], (m, n))
    return total


def series_component_value(ctx: SeriesContext) -> Fraction:
    """The component's localized contribution at the context's evaluation
    point, via coefficient extraction; must equal the closed-form polynomial
    of :func:`csck.character.localized_component_poly` evaluated there.

    It is the extraction sum at the limit weights Lambda_j(1) of
    :func:`lambda_at_one`, which vanish except at j = m + n - s."""
    top = ctx.dims.m + ctx.dims.n
    c0 = ctx.zeta * ctx.fc.kappa - ctx.eps * ctx.fc.r
    limits = ((s, top - s, _limit_weight(top, s, c0, ctx.fc.delta)) for s in range(top + 1))
    return Fraction(_extraction_sum(ctx, limits))


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
    (alpha^k - 1) (alpha^(k delta) - 1)^(j+1).  Every entry is a rational
    function of alpha^k, so the row at k is sigma_k of the row at 1;
    :func:`_root_sums` builds only that one.

    The powers of alpha^(k c0) - 1 are formed once, and the inverses of all
    m + n + 1 denominators come from the one inversion of alpha^k - 1, since
    alpha^(-k) - 1 = -alpha^(-k) (alpha^k - 1) for delta = -1; so each
    numerator costs one product and each (s, j) one more.  All powers of the
    root are cyclic, so negative exponents need no special casing."""
    one = CycloElement.rational(p, 1)
    top = d.m + d.n
    base = CycloElement.root_power(p, k * c0) - one
    base_pows = [one]
    for _ in range(top + 2):
        base_pows.append(base_pows[-1] * base)
    root = CycloElement.root_power(p, k)
    inv = (root - one).inverse()
    step = inv if delta == 1 else -(root * inv)  # 1 / (alpha^(k delta) - 1)
    den_invs = [inv * step]
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
    rational and integral.  Only these integers outlive the call.

    Lambda_j is evaluated once, at alpha_p, by :func:`_lambda_row`; the term
    at alpha_p^k is its conjugate sigma_k, a permutation of its
    coefficients, so no other root costs an inversion or a product."""
    sums = []
    for row in _lambda_row(p, 1, d, c0, delta):
        totals = []
        for value in row:
            total = value
            for k in range(2, p):
                total = total + value.conjugate(k)
            totals.append(total)
        values = tuple(t.rational_value() for t in totals)
        for value in values:
            if value.denominator != 1:
                raise InvariantViolation(f"summed Lambda value is not an integer: {value}")
        sums.append(tuple(-v.numerator for v in values))
    return tuple(sums)


def _limit_weight(top: int, s: int, c0: int, delta: int) -> int:
    """Lambda_j(1) at j = m + n - s, for m + n = top: delta^(j+1) c0^(top+2-s)."""
    return delta ** (top - s + 1) * c0 ** (top + 2 - s)


def lambda_at_one(d: Dims, s: int, j: int, c0: int, delta: int) -> Fraction:
    """The limit of Lambda_j at t = 1: 0 for j < m + n - s, and
    delta^(j+1) c0^(m+n+2-s) at j = m + n - s.

    Proof.  At t = 1 + u, t^e - 1 = e u + O(u^2) for every integer e.  So
    the numerator t^(s c0 + delta) (t^c0 - 1)^(m+n+2-s) is
    c0^(m+n+2-s) u^(m+n+2-s) + O(u^(m+n+3-s)), and the denominator
    (t - 1) (t^delta - 1)^(j+1) is delta^(j+1) u^(j+2) (1 + O(u)), with
    delta^(j+1) = +-1.  The precondition j <= m + n - s gives
    j + 2 <= m + n + 2 - s, so there is no pole: the quotient is
    delta^(j+1) c0^(m+n+2-s) u^(m+n-s-j) + O(u^(m+n-s-j+1)).  The case
    c0 = 0 needs no branch: the exponent m + n + 2 - s is at least 2, so
    the formula gives 0, the limit of the zero numerator.
    """
    _check_lambda_indices(d, s, j, delta)
    top = d.m + d.n
    return Fraction(_limit_weight(top, s, c0, delta) if j == top - s else 0)


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
    ctx = build_series_context(d, fc, eps, zeta, cls)
    sums = _root_sums(p, d, zeta * fc.kappa - eps * fc.r, fc.delta)
    total = _extraction_sum(ctx, ((s, j, w) for s, row in enumerate(sums) for j, w in enumerate(row)))
    reference = localized_component_poly(d, fc, eps, cls).evaluate(zeta)
    passed = (total - int(reference)) % p == 0
    return CheckResult(
        "t_sum_congruence",
        passed,
        str(total),
        params={
            "p": p,
            "m": d.m,
            "n": d.n,
            "component": fc.index,
            "eps": eps,
            "zeta": zeta,
            "cls": [str(v) for v in cls],
        },
    )
