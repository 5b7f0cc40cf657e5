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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check, serializable as a report row."""

    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"check": self.name, "params": self.params, "pass": self.passed, "witness": self.detail}


# -- series route -------------------------------------------------------------


@dataclass(frozen=True)
class SeriesContext:
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


def build_series_context(d: Dims, fc: FixedComponent, eps: int, zeta: int, cls: KahlerClass) -> SeriesContext:
    _check_eps(eps)
    _check_component(d, fc, cls)
    cap = d.m + d.n
    beta = zeta * fc.rho - eps * fc.a
    gamma = zeta * fc.tau - eps * fc.b
    one = TruncSeries2.constant(1, cap)
    phi = TruncSeries2.binomial_series(-fc.delta, fc.delta, cap) - one
    psi = TruncSeries2.binomial_series(beta, gamma, cap) - one
    return SeriesContext(d, fc, eps, int(zeta), cls, beta, gamma, cap, phi, psi)


def series_component_value(ctx: SeriesContext) -> Fraction:
    """The component's localized contribution at the context's evaluation
    point, via coefficient extraction; must equal the closed-form polynomial
    of :func:`csck.character.localized_component_poly` evaluated there."""
    d, fc = ctx.dims, ctx.fc
    m, n = d.m, d.n
    cap = ctx.truncation
    base = TruncSeries2.binomial_series(m, n, cap)
    phi_pows = [TruncSeries2.constant(1, cap)]
    psi_pows = [TruncSeries2.constant(1, cap)]
    for _ in range(m + n):
        phi_pows.append(phi_pows[-1] * ctx.phi)
        psi_pows.append(psi_pows[-1] * ctx.psi)
    c0 = ctx.zeta * fc.kappa - ctx.eps * fc.r
    total = Fraction(0)
    for s in range(m + n + 1):
        coeff = binomial(m + n + 2, s) * fc.delta ** (m + n - s + 1) * c0 ** (m + n + 2 - s)
        if coeff == 0:
            continue
        series = base * phi_pows[m + n - s] * psi_pows[s]
        total += coeff * series.coefficient((m, n))
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


class CycloElement:
    """Element of Q(alpha_p), represented in the basis 1, t, ..., t^(p-2) of
    Q[t]/(1 + t + ... + t^(p-1)).  Nonzero elements are invertible."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[Fraction | int] = ()):
        _require_odd_prime(p)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > p - 1:
            raise ValueError("coefficient vector longer than p - 1")
        cs.extend([Fraction(0)] * (p - 1 - len(cs)))
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def rational(cls, p: int, value: Fraction | int) -> "CycloElement":
        return cls(p, (Fraction(value),))

    @classmethod
    def root_power(cls, p: int, e: int) -> "CycloElement":
        """alpha_p^e for any integer e (exponents live mod p)."""
        e %= p
        if e < p - 1:
            coeffs = [Fraction(0)] * (p - 1)
            coeffs[e] = Fraction(1)
            return cls(p, coeffs)
        # t^(p-1) = -(1 + t + ... + t^(p-2))
        return cls(p, [Fraction(-1)] * (p - 1))

    def _check(self, other: "CycloElement") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic fields p={self.p} and p={other.p}")

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.p, [-a for a in self.coeffs])

    def __mul__(self, other: "CycloElement | Fraction | int") -> "CycloElement":
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.p, [a * other for a in self.coeffs])
        self._check(other)
        p = self.p
        raw = [Fraction(0)] * (2 * p - 3)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[i + j] += a * b
        # fold with t^p = 1, then eliminate t^(p-1)
        folded = [Fraction(0)] * p
        for e, c in enumerate(raw):
            folded[e % p] += c
        top = folded[p - 1]
        out = [c - top for c in folded[: p - 1]]
        return CycloElement(p, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycloElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = CycloElement.rational(self.p, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InvariantViolation(f"cyclotomic element is not rational: {self.coeffs}")
        return self.coeffs[0]

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse via the extended Euclidean algorithm against
        the cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        p = self.p
        modulus = [Fraction(1)] * p  # 1 + t + ... + t^(p-1)
        r0, r1 = modulus, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def trim(v: list[Fraction]) -> list[Fraction]:
            while v and v[-1] == 0:
                v.pop()
            return v

        r1 = trim(r1)
        while True:
            r0, r1 = trim(list(r0)), trim(list(r1))
            if len(r1) == 0:
                raise ZeroDivisionError("element shares a factor with the modulus")
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return CycloElement(p, self._reduce_mod(inv))
            quot = [Fraction(0)] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
            rem = list(r0)
            for i in range(len(rem) - 1, len(r1) - 2, -1):
                if i - (len(r1) - 1) < 0:
                    break
                c = rem[i]
                if c:
                    q = c / r1[-1]
                    quot[i - (len(r1) - 1)] = q
                    for j, rv in enumerate(r1):
                        rem[i - (len(r1) - 1) + j] -= q * rv
            new_s = list(s0) + [Fraction(0)] * max(0, len(quot) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(quot):
                if qi:
                    for j, sj in enumerate(s1):
                        new_s[i + j] -= qi * sj
            r0, r1 = r1, rem
            s0, s1 = s1, new_s

    def _reduce_mod(self, coeffs: list[Fraction]) -> list[Fraction]:
        p = self.p
        folded = [Fraction(0)] * p
        for e, c in enumerate(coeffs):
            folded[e % p] += c
        top = folded[p - 1]
        return [c - top for c in folded[: p - 1]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycloElement) and self.p == other.p and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"CycloElement(p={self.p}, {list(self.coeffs)!r})"


def _lambda_at_root(p: int, k: int, d: Dims, s: int, c0: int, delta: int, j: int) -> CycloElement:
    # Lambda_j at alpha_p^k: all powers of the root are cyclic, so negative
    # exponents need no special casing.
    num = CycloElement.root_power(p, k * (s * c0 + delta)) * (
        (CycloElement.root_power(p, k * c0) - CycloElement.rational(p, 1)) ** (d.m + d.n + 2 - s)
    )
    den = (CycloElement.root_power(p, k) - CycloElement.rational(p, 1)) * (
        (CycloElement.root_power(p, k * delta) - CycloElement.rational(p, 1)) ** (j + 1)
    )
    return num * den.inverse()


def lambda_at_one(d: Dims, s: int, j: int, c0: int, delta: int) -> Fraction:
    """The limit of Lambda_j at t = 1, by series expansion around t = 1 + u.

    Returns 0 for j < m + n - s and delta^(m+n-s+1) c0^(m+n+2-s) at
    j = m + n - s; a genuine pole (denominator vanishing to higher order than
    the numerator) is an invariant violation, impossible within the
    precondition j <= m + n - s.
    """
    m, n = d.m, d.n
    if not 0 <= j <= m + n - s:
        raise ValueError(f"j must satisfy 0 <= j <= m + n - s, got j={j}, s={s}")
    if delta not in (-1, 1):
        raise ValueError(f"delta must be +-1, got {delta}")
    den_order = j + 2
    cap = den_order

    def one_plus_u_pow(e: int) -> list[Fraction]:
        return [Fraction(general_binomial(e, i)) for i in range(cap + 1)]

    def mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (cap + 1)
        for i, ai in enumerate(a):
            if ai:
                for jj, bj in enumerate(b):
                    if i + jj > cap:
                        break
                    if bj:
                        out[i + jj] += ai * bj
        return out

    def powered(a: list[Fraction], e: int) -> list[Fraction]:
        out = [Fraction(1)] + [Fraction(0)] * cap
        for _ in range(e):
            out = mul(out, a)
        return out

    cm1 = one_plus_u_pow(c0)
    cm1[0] -= 1  # (1+u)^c0 - 1
    num = mul(one_plus_u_pow(s * c0 + delta), powered(cm1, m + n + 2 - s))
    dm1 = one_plus_u_pow(delta)
    dm1[0] -= 1  # (1+u)^delta - 1
    den = mul([Fraction(0), Fraction(1)] + [Fraction(0)] * (cap - 1), powered(dm1, j + 1))
    num_order = next((i for i, v in enumerate(num) if v), None)
    if num_order is None:
        return Fraction(0)
    if num_order < den_order:
        raise InvariantViolation(
            f"pole in the limit at 1: numerator order {num_order} < denominator order {den_order}"
        )
    if num_order > den_order:
        return Fraction(0)
    return num[den_order] / den[den_order]


def lambda_sum_check(p: int, d: Dims, s: int, j: int, c0: int, delta: int) -> CheckResult:
    """Check that -sum_k Lambda_j(alpha_p^k) is an integer congruent mod p to
    the limit value Lambda_j(1)."""
    _require_odd_prime(p)
    total = CycloElement.rational(p, 0)
    for k in range(1, p):
        total = total + _lambda_at_root(p, k, d, s, c0, delta, j)
    value = total.rational_value()
    if value.denominator != 1:
        raise InvariantViolation(f"summed Lambda value is not an integer: {value}")
    reference = lambda_at_one(d, s, j, c0, delta)
    passed = (-int(value) - int(reference)) % p == 0
    return CheckResult(
        "lambda_sum_congruence",
        passed,
        str(int(value)),
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
    _check_eps(eps)
    _check_component(d, fc, cls)
    m, n = d.m, d.n
    cap = m + n
    c0 = zeta * fc.kappa - eps * fc.r
    ctx = build_series_context(d, fc, eps, zeta, cls)
    base = TruncSeries2.binomial_series(m, n, cap)
    phi_pows = [TruncSeries2.constant(1, cap)]
    psi_pows = [TruncSeries2.constant(1, cap)]
    for _ in range(cap):
        phi_pows.append(phi_pows[-1] * ctx.phi)
        psi_pows.append(psi_pows[-1] * ctx.psi)

    total = Fraction(0)
    for s in range(m + n + 1):
        psi_part = base * psi_pows[s]
        for j in range(m + n - s + 1):
            extracted = (psi_part * phi_pows[j]).coefficient((m, n))
            if extracted == 0:
                continue
            root_sum = CycloElement.rational(p, 0)
            for k in range(1, p):
                root_sum = root_sum + _lambda_at_root(p, k, d, s, c0, fc.delta, j)
            total += binomial(m + n + 2, s) * Fraction(-1) * root_sum.rational_value() * extracted
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
