"""Difference-quotient calculus on homogeneous polynomials.

Two derivative operators at ratio q^2: one acting on X, one acting on Y
with the inverse ratio.  Both are implemented through their exact closed
forms on coefficients; the raw difference-quotient definitions live in the
test suite as an independent oracle.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .homopoly import HPoly, evaluate, nu_power
from .lambda_ring import LambdaScalar
from .qcombinat import beta, sigma


def _zero_flagged(q: int, phi: int, degree: int) -> HPoly:
    warnings.warn(
        f"derivative order {phi} exceeds degree {degree}; returning zero",
        RuntimeWarning,
        stacklevel=3,
    )
    return HPoly(q, [LambdaScalar.zero(q)])


def q_derivative(p: HPoly, phi: int) -> HPoly:
    """phi-th X-derivative: coefficient i becomes c_i * beta(r-i, phi)."""
    if phi < 0:
        raise ValueError(f"phi={phi} must be >= 0")
    if phi == 0:
        return p
    r = p.degree
    if phi > r:
        return _zero_flagged(p.q, phi, r)
    coeffs = [p.coeffs[i] * beta(p.q, r - i, phi) for i in range(r - phi + 1)]
    return HPoly(p.q, coeffs)


def q_inv_derivative(p: HPoly, phi: int) -> HPoly:
    """phi-th Y-derivative at ratio q^{-2}.

    Coefficient u of the result is
    c_{u+phi} * q^{2(phi(1-u-phi) + sigma(phi))} * beta(u+phi, phi);
    the powers of q may be negative, so coefficients can be rational.
    """
    if phi < 0:
        raise ValueError(f"phi={phi} must be >= 0")
    if phi == 0:
        return p
    s = p.degree
    if phi > s:
        return _zero_flagged(p.q, phi, s)
    q = p.q
    coeffs = []
    for u in range(s - phi + 1):
        i = u + phi
        factor = Fraction(q) ** (2 * (phi * (1 - i) + sigma(phi))) * beta(q, i, phi)
        coeffs.append(p.coeffs[i] * factor)
    return HPoly(q, coeffs)


def eval_nu_derivative_at_ones(q: int, j: int, l: int) -> Fraction:
    """Value of the l-th X-derivative of nu^[j] at X = Y = 1.

    Computes the value through the derivative pipeline and raises
    ArithmeticError unless it equals beta(j,j) * delta_{jl}.
    """
    if not (0 <= l <= j):
        raise ValueError(f"need 0 <= l={l} <= j={j}")
    deriv = q_derivative(nu_power(q, j), l)
    value = evaluate(deriv, 1, 1, 0)
    expected = beta(q, j, j) if j == l else Fraction(0)
    if value != expected:
        raise ArithmeticError(
            f"nu-derivative delta fails at q={q} j={j} l={l}: "
            f"got {value}, expected {expected}"
        )
    return value
