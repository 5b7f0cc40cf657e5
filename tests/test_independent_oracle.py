"""Cross-checks against an independent symbolic engine.

These recompute the double sums with sympy, term by term, and compare whole
coefficient tables; they guard against any systematic convention slip shared
by the package's own code paths.  Skipped when sympy is unavailable.
"""
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from csck.character import Dims, FixedComponent, KahlerClass, _component_value, compute_obstruction
from csck.localization import lambda_at_one

X, Y, Z = sympy.symbols("x y z")


def _sympy_g(m, n):
    total = 0
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = (
                sympy.binomial(m + n + 2, s)
                * sympy.binomial(s, m - q)
                * sympy.binomial(m + n - s, q)
                * (-1) ** (m + n + s + q + 1)
            )
            total += c * ((X - Z) ** (m - q) * Y ** (n + q + 2) - X ** (m - q) * (Y - Z) ** (n + q + 2))
    return sympy.expand(total)


def _sympy_h(m, n):
    total = 0
    for s in range(m + n + 1):
        for q in range(m + 1):
            c = (
                sympy.binomial(m + n + 2, s)
                * sympy.binomial(s, m - q)
                * sympy.binomial(m + n - s, q)
                * (-1) ** (m + n + s + q + 1)
            )
            term = ((m + n + 2 - s) + (n + 2) * (s - m + q)) * (X - Z) ** (m - q) * Y ** (n + q + 1)
            if m - q >= 1:
                term += m * (m - q) * (X - Z) ** (m - q - 1) * Y ** (n + q + 2)
            term += ((m + n + 2 - s) - n * (s - m + q)) * X ** (m - q) * (Y - Z) ** (n + q + 1)
            if m - q >= 1:
                term += -(m + 2) * (m - q) * X ** (m - q - 1) * (Y - Z) ** (n + q + 2)
            total += c * term
    return sympy.expand(total)


def _as_table(expr):
    poly = sympy.Poly(expr, X, Y, Z)
    return {e: Fraction(int(c)) for e, c in poly.as_dict().items()}


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (1, 3)])
def test_full_coefficient_tables_match(m, n):
    d = Dims(m, n)
    polys = compute_obstruction(d)
    assert dict(polys.g.terms()) == _as_table(_sympy_g(m, n))
    assert dict(polys.h.terms()) == _as_table(_sympy_h(m, n))
    F_sym = sympy.expand(
        -(m * (m + 2) * Y * Z + n * (n + 2) * X * Z + 2 * X * Y) * _sympy_g(m, n) + X * Y * Z * _sympy_h(m, n)
    )
    assert dict(polys.F.terms()) == _as_table(F_sym)


def test_line_restriction_matches_substitution():
    d = Dims(1, 2)
    F = compute_obstruction(d).F
    start = (Fraction(1), Fraction(0), Fraction(0))
    end = (Fraction(1, 3), Fraction(4, 9), Fraction(2, 9))
    restricted = F.restrict_to_line(start, end)
    t = sympy.symbols("t")
    subs = {
        X: sympy.Rational(1) + t * (sympy.Rational(1, 3) - 1),
        Y: t * sympy.Rational(4, 9),
        Z: t * sympy.Rational(2, 9),
    }
    F_sym = sum(int(c) * X ** e[0] * Y ** e[1] * Z ** e[2] for e, c in F.terms())
    expected = sympy.Poly(sympy.expand(F_sym.subs(subs)), t)
    for k in range(restricted.degree + 1):
        assert restricted.coefficient(k) == Fraction(
            int(expected.coeff_monomial(t**k).p), int(expected.coeff_monomial(t**k).q)
        )


def test_limit_l2_proof_steps():
    # the two symbolic steps of the limit_l2 derivation in _shape_weights'
    # docstring, from the bracket and the closed moments S0_q, S1_q
    m, n, k = sympy.symbols("m n k", integer=True, positive=True)
    big_n = m + n + 2
    q = m - k
    k1 = m**2 - 4 * m * n - n**2 - 7 * m - 3 * n - 2
    k2 = n**2 - m * n - m + 2 * n + 1
    k3 = 3 * m**2 + m**2 * n - n**3 - m * n - 4 * n**2 - 2 * m - 4 * n
    s0 = -(n + 1)
    s1 = -((n + 1) * (m + n) + n - q)
    # per q: [(2(n-m)q^2 + k1 q + k3) S0_q + (2(n+1)q + k2) S1_q] / C(N, k)
    per_q = sympy.Poly((2 * (n - m) * q**2 + k1 * q + k3) * s0 + (2 * (n + 1) * q + k2) * s1, k)
    assert per_q.degree() == 2
    a2 = per_q.coeff_monomial(k**2)
    a1 = per_q.coeff_monomial(k) + a2
    a0 = per_q.coeff_monomial(1)
    assert sympy.expand(a0 - (n + 1) * big_n * (m**2 - m * n + 2 * m + n)) == 0
    assert sympy.expand(a1 + (n + 1) * (3 * m**2 - 2 * m * n + 6 * m - n**2 + 2 * n + 1)) == 0
    assert sympy.expand(a2 - 2 * (n + 1) * (m - n + 1)) == 0
    assert sympy.expand(4 * a0 + 2 * big_n * a1 + big_n * (big_n - 1) * a2) == 0
    C = sympy.binomial
    boundary = a0 * (2 * C(big_n - 2, m - 1) + C(big_n - 1, m)) + a1 * big_n * C(big_n - 2, m - 1)
    target = (m + n) * sympy.factorial(big_n) / (sympy.factorial(m) * sympy.factorial(n))
    assert sympy.simplify(sympy.combsimp(boundary / target)) == 1


@pytest.mark.parametrize("m", range(1, 5))
def test_component_closed_form_identity(m):
    # the closed form of _component_coeffs against the (s, q) double sum, in
    # symbols k, r, t: a component with kappa = k, rho = r, tau = t and
    # delta = 1 at eps = 0 and t = 1 makes the forms k, r and t themselves
    k, r, t = sympy.symbols("k r t")
    for n in range(1, 5):
        d = Dims(m, n)
        top = m + n + 2
        fc = FixedComponent(1, 1, k, 1, 1, r, t, 1, d, KahlerClass(0, 0, 0))
        double_sum = sum(
            sympy.binomial(top, s) * sympy.binomial(s, m - q) * sympy.binomial(m + n - s, q) * (-1) ** q
            * k ** (top - s) * r ** (m - q) * t ** (s - m + q)
            for s in range(m + n + 1)
            for q in range(max(0, m - s), min(m, m + n - s) + 1)
        )
        assert sympy.expand(_component_value(fc, 0, 1) - double_sum) == 0, (m, n)


def test_lambda_limit_matches_sympy():
    # Lambda_j as a rational function of t, cancelled and taken at t = 1,
    # against the closed form of lambda_at_one
    t = sympy.symbols("t")
    for m, n in ((1, 1), (1, 2), (2, 1)):
        d = Dims(m, n)
        for s in range(m + n + 1):
            for j in range(m + n - s + 1):
                for c0 in (-2, 0, 1, 3):
                    for delta in (-1, 1):
                        expr = t ** (s * c0 + delta) * (t**c0 - 1) ** (m + n + 2 - s)
                        expr /= (t - 1) * (t**delta - 1) ** (j + 1)
                        limit = sympy.cancel(expr).subs(t, 1)
                        assert limit == lambda_at_one(d, s, j, c0, delta), (m, n, s, j, c0, delta)


def _as_sympy(poly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X**a * Y**b * Z**e for (a, b, e), c in poly.terms())


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
def test_g_and_h_give_the_momentum_construction(m, n):
    # The momentum construction (Hwang and Singer, Trans. AMS 2002) with
    # momentum u in [0, z] over the section with class (U, Y) = (x - z, y):
    # Q is the volume density, QR is Q times the base's scalar curvature,
    # V the volume, S the total scalar curvature with its two boundary
    # terms, and P(z) the Futaki invariant, the profile at u = z.
    u = sympy.symbols("u")
    base_u, base_y = X - Z + u, Y - u
    q = base_u**m * base_y**n
    qr = m * (m + 1) * base_u ** (m - 1) * base_y**n + n * (n + 1) * base_u**m * base_y ** (n - 1)
    volume = sympy.integrate(q, (u, 0, Z))
    total = sympy.integrate(qr, (u, 0, Z)) + q.subs(u, 0) + q.subs(u, Z)
    # V P(z), with P(z) = z Q(0) + int_0^z (z - u) (QR - (S/V) Q) du cleared of 1/V
    futaki = volume * (Z * q.subs(u, 0) + sympy.integrate((Z - u) * qr, (u, 0, Z)))
    futaki -= total * sympy.integrate((Z - u) * q, (u, 0, Z))
    polys = compute_obstruction(Dims(m, n))
    g, h = _as_sympy(polys.g), _as_sympy(polys.h)
    scale = sympy.Rational(sympy.factorial(m) * sympy.factorial(n), sympy.factorial(m + n + 2))
    assert sympy.expand(futaki + scale * (volume * h - total * g)) == 0
