import random
from fractions import Fraction

import pytest

from conftest import (
    leibniz_y_rhs,
    mu_inv_derivative_closed,
    random_hpoly,
    random_hpoly_pairs,
)
from skewrank.homopoly import (
    HPoly,
    evaluate,
    mu_power,
    nu_power,
    skew_q_product,
)
from skewrank.qcalculus import (
    eval_nu_derivative_at_ones,
    q_derivative,
    q_inv_derivative,
)
from skewrank.qcombinat import beta
from skewrank.selftest import leibniz_x_rule, nu_delta_eval


def quotient_derivative_x(p, phi, x0, y0, lam):
    """Difference-quotient oracle in X, iterated phi times at a sample point."""
    q2 = Fraction(p.q) ** 2

    def level0(x):
        return evaluate(p, x, y0, lam)

    fn = level0
    for _ in range(phi):
        prev = fn

        def fn(x, prev=prev):
            return (prev(q2 * x) - prev(x)) / ((q2 - 1) * x)

    return fn(Fraction(x0))


def quotient_derivative_y(p, phi, x0, y0, lam):
    """Difference-quotient oracle in Y at ratio q^{-2}."""
    qi2 = Fraction(1, p.q**2)

    def level0(y):
        return evaluate(p, x0, y, lam)

    fn = level0
    for _ in range(phi):
        prev = fn

        def fn(y, prev=prev):
            return (prev(qi2 * y) - prev(y)) / ((qi2 - 1) * y)

    return fn(Fraction(y0))


class TestClosedFormsAgainstQuotients:
    def test_x_derivative_matches_quotient(self):
        rng = random.Random(41)
        for _ in range(25):
            q = rng.choice((2, 3))
            p = random_hpoly(rng, q, 4)
            for phi in range(min(3, p.degree) + 1):
                d = q_derivative(p, phi)
                for x0, y0 in ((1, 1), (2, -1), (Fraction(3, 2), Fraction(2, 3))):
                    for lam in (0, 1, 5):
                        assert evaluate(d, x0, y0, lam) == quotient_derivative_x(
                            p, phi, x0, y0, lam
                        )

    def test_y_derivative_matches_quotient(self):
        rng = random.Random(42)
        for _ in range(25):
            q = rng.choice((2, 3))
            p = random_hpoly(rng, q, 4)
            for phi in range(min(3, p.degree) + 1):
                d = q_inv_derivative(p, phi)
                for x0, y0 in ((1, 1), (-1, 2), (Fraction(2, 3), Fraction(3, 2))):
                    for lam in (0, 1, 5):
                        assert evaluate(d, x0, y0, lam) == quotient_derivative_y(
                            p, phi, x0, y0, lam
                        )


class TestSpecExamples:
    def test_x_squared(self):
        d = q_derivative(HPoly(3, [1, 0, 0]), 1)
        assert d.degree == 1
        assert d.coefficient(0) == 10
        assert d.coefficient(1).is_zero()

    def test_phi_zero_is_identity(self):
        rng = random.Random(1)
        p = random_hpoly(rng, 2, 4)
        assert q_derivative(p, 0) == p
        assert q_inv_derivative(p, 0) == p

    def test_mu_power_rule(self):
        for q in (2, 3):
            for k in range(1, 5):
                for phi in range(k + 1):
                    assert q_derivative(mu_power(q, k), phi) == mu_power(
                        q, k - phi
                    ).scale(beta(q, k, phi))

    def test_y_squared_inverse(self):
        d = q_inv_derivative(HPoly(3, [0, 0, 1]), 1)
        assert d.degree == 1
        assert d.coefficient(1) == Fraction(10, 9)
        assert d.coefficient(0).is_zero()

    def test_nu_power_inverse_rule(self):
        for q in (2, 3):
            for k in range(1, 5):
                for phi in range(k + 1):
                    want = nu_power(q, k - phi).scale(
                        (-1) ** phi * beta(q, k, phi)
                    )
                    assert q_inv_derivative(nu_power(q, k), phi) == want

    def test_mu_inverse_rule_with_shift(self):
        for q in (2, 3):
            for k in range(5):
                for phi in range(k + 1):
                    assert q_inv_derivative(
                        mu_power(q, k), phi
                    ) == mu_inv_derivative_closed(q, k, phi)

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError):
            q_derivative(HPoly(2, [1]), -1)
        with pytest.raises(ValueError):
            q_inv_derivative(HPoly(2, [1]), -1)

    def test_over_degree_flagged_zero(self):
        p = HPoly(3, [1, 2])
        with pytest.warns(RuntimeWarning):
            d = q_derivative(p, 5)
        assert d.is_zero() and d.degree == 0
        with pytest.warns(RuntimeWarning):
            d = q_inv_derivative(p, 5)
        assert d.is_zero() and d.degree == 0


class TestEvalNuDelta:
    def test_values(self):
        assert eval_nu_derivative_at_ones(3, 2, 2) == 10
        assert eval_nu_derivative_at_ones(3, 2, 1) == 0
        assert eval_nu_derivative_at_ones(2, 0, 0) == 1

    def test_delta_grid(self):
        assert nu_delta_eval((2, 3), range(5)) == 30

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_nu_derivative_at_ones(2, 1, 2)


class TestLeibniz:
    def test_leibniz_x(self):
        pairs = random_hpoly_pairs(random.Random(77), 60)
        assert leibniz_x_rule(pairs, 6) == 276

    def test_leibniz_y(self):
        for f, g in random_hpoly_pairs(random.Random(78), 60):
            q = f.q
            prod = skew_q_product(f, g)
            for phi in range(7):
                lhs = (
                    q_inv_derivative(prod, phi)
                    if phi <= prod.degree
                    else HPoly(q, [0])
                )
                rhs = leibniz_y_rhs(f, g, phi)
                if rhs is None or rhs.is_zero():
                    assert lhs.is_zero()
                else:
                    assert lhs == rhs


def subst_y_scaled(p, factor):
    """p(X, factor Y): coefficient i scaled by factor**i."""
    f = Fraction(factor)
    return HPoly(p.q, [c * f**i for i, c in enumerate(p.coeffs)])


class TestDivisionIdentities:
    def _div_x(self, p):
        # valid only when the Y^r X^0 coefficient vanishes
        assert p.coefficient(p.degree).is_zero()
        return HPoly(p.q, list(p.coeffs[:-1]))

    def test_top_coeff_zero_left(self):
        # (1/X)(u * v) = (u/X) * v when u has no pure-Y term
        rng = random.Random(13)
        for _ in range(30):
            q = rng.choice((2, 3))
            u = random_hpoly(rng, q, 4, min_deg=1)
            u = HPoly(q, list(u.coeffs[:-1]) + [0])
            v = random_hpoly(rng, q, 4)
            prod = skew_q_product(u, v)
            assert self._div_x(prod) == skew_q_product(self._div_x(u), v)

    def test_top_coeff_zero_right(self):
        # (1/X)(u * v) = u(X, q^2 Y) * (v/X) when v has no pure-Y term
        rng = random.Random(14)
        for _ in range(30):
            q = rng.choice((2, 3))
            u = random_hpoly(rng, q, 4)
            v = random_hpoly(rng, q, 4, min_deg=1)
            v = HPoly(q, list(v.coeffs[:-1]) + [0])
            prod = skew_q_product(u, v)
            assert self._div_x(prod) == skew_q_product(
                subst_y_scaled(u, q**2), self._div_x(v)
            )
