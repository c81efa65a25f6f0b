import random
from fractions import Fraction

import pytest

from conftest import SUPPORTED_Q, assert_canonical, random_hpoly
from skewrank.homopoly import (
    HPoly,
    evaluate,
    mu_poly,
    mu_power,
    nu_poly,
    nu_power,
    omega,
    one_poly,
    skew_q_power,
    skew_q_product,
    skew_q_transform,
    x_poly,
    y_poly,
)
from skewrank.lambda_ring import LambdaScalar
from skewrank.qcombinat import SchemeParams, gauss
from skewrank.selftest import omega_values, power_closed_forms


class TestProduct:
    def test_x_times_y(self):
        p = skew_q_product(x_poly(3), y_poly(3))
        assert p.degree == 2
        assert [p.coefficient(i) for i in range(3)] == [
            LambdaScalar.zero(3),
            LambdaScalar.one(3),
            LambdaScalar.zero(3),
        ]

    def test_y_times_x_picks_up_weight(self):
        p = skew_q_product(y_poly(3), x_poly(3))
        assert p.coefficient(1) == 9
        assert p.coefficient(0).is_zero() and p.coefficient(2).is_zero()

    def test_mu_squared_coefficients(self):
        q = 3
        p = skew_q_product(mu_poly(q), mu_poly(q))
        Q = LambdaScalar.q_lambda(q)
        assert p.coefficient(0) == 1
        assert p.coefficient(1) == (Q - 1) * (q**2 + 1)
        assert p.coefficient(2) == (Q - 1) * (Q - q**2)
        assert p == mu_power(q, 2)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            skew_q_product(x_poly(2), x_poly(3))

    def test_associativity_random(self):
        # needed for well-defined powers; falls back to right-nesting if broken
        rng = random.Random(99)
        for _ in range(40):
            q = rng.choice((2, 3))
            a = random_hpoly(rng, q, 4)
            b = random_hpoly(rng, q, 4)
            c = random_hpoly(rng, q, 4)
            left = skew_q_product(skew_q_product(a, b), c)
            right = skew_q_product(a, skew_q_product(b, c))
            assert left == right

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_pointwise_oracle(self, q):
        # c_u(lam) = sum_i q^{2is} a_i(lam) b_{u-i}(lam - 2i), summed in
        # Fractions from eval_lambda values, and each c_u in reduced form
        rng = random.Random(1000 + q)
        for _ in range(6):
            a = random_hpoly(rng, q, 4)
            b = random_hpoly(rng, q, 4)
            r, s = a.degree, b.degree
            prod = skew_q_product(a, b)
            assert prod.degree == r + s
            for u, c in enumerate(prod.coeffs):
                assert_canonical(c)
                for lam in range(-4, 7):
                    want = sum(
                        (Fraction(q) ** (2 * i * s)
                         * a.coeffs[i].eval_lambda(lam)
                         * b.coeffs[u - i].eval_lambda(lam - 2 * i)
                         for i in range(max(0, u - s), min(u, r) + 1)),
                        Fraction(0),
                    )
                    assert c.eval_lambda(lam) == want, (u, lam)

    def test_units_two_sided(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice((2, 3))
            a = random_hpoly(rng, q, 4)
            e = one_poly(q)
            assert skew_q_product(e, a) == a
            assert skew_q_product(a, e) == a


class TestPower:
    def test_power_zero_is_unit(self):
        assert skew_q_power(mu_poly(3), 0) == one_poly(3)

    def test_y_squared(self):
        p = skew_q_power(y_poly(3), 2)
        assert p.degree == 2
        assert p.coefficient(2) == 9

    def test_x_cubed(self):
        assert skew_q_power(x_poly(3), 3) == HPoly(3, [1, 0, 0, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            skew_q_power(x_poly(2), -1)

    def test_mu_nu_closed_forms(self):
        assert power_closed_forms((2, 3, 4), range(7)) == 21

    def test_mu_power_values(self):
        got = [c.eval_lambda(3) for c in mu_power(3, 2).coeffs]
        assert got == [1, 260, 468]
        assert mu_power(3, 1) == mu_poly(3)
        assert mu_power(2, 0) == one_poly(2)

    def test_nu_power_values(self):
        assert [c.eval_lambda(0) for c in nu_power(3, 2).coeffs] == [1, -10, 9]
        assert nu_power(3, 1) == nu_poly(3)
        coeffs = nu_power(2, 4).coeffs
        for u, c in enumerate(coeffs):
            assert c == (-1) ** u * Fraction(2) ** (u * (u - 1)) * gauss(2, 4, u)


class TestTransform:
    def test_x_power_fixed(self):
        p = HPoly(3, [1, 0, 0, 0])
        assert skew_q_transform(p) == p

    def test_xy_scales(self):
        p = skew_q_transform(HPoly(3, [0, 1, 0]))
        assert p.coefficient(1) == 9
        assert p.coefficient(0).is_zero() and p.coefficient(2).is_zero()

    def test_degree_preserved(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_hpoly(rng, 2, 4)
            assert skew_q_transform(a).degree == a.degree


class TestOmegaEvaluate:
    def test_omega_3_4(self):
        assert omega_values({(3, 4): (1, 260, 468)}) == 1

    def test_omega_2_2(self):
        assert omega_values({(2, 2): (1, 1)}) == 1

    def test_omega_equals_mu_power_at_m(self):
        for q, t in ((2, 4), (2, 5), (3, 4), (3, 5), (2, 6)):
            p = SchemeParams(q, t)
            om = omega(p)
            mp = mu_power(q, p.n)
            for i in range(p.n + 1):
                assert om.coefficient(i).eval_lambda(0) == mp.coefficient(
                    i
                ).eval_lambda(p.m)
            assert om.coefficient(0) == 1

    def test_evaluate_examples(self):
        p34 = SchemeParams(3, 4)
        assert evaluate(omega(p34), 1, 1, 5) == 729
        assert evaluate(mu_power(3, 2), 1, 0, 3) == 1
        assert evaluate(nu_power(3, 2), 1, 1, 0) == 0

    def test_total_count_general(self):
        for q, t in ((2, 4), (2, 5), (3, 4), (3, 5)):
            p = SchemeParams(q, t)
            assert evaluate(omega(p), 1, 1, p.m) == q ** (p.m * p.n)

    def test_out_of_range_coefficient_is_zero(self):
        p = mu_power(3, 2)
        assert p.coefficient(5).is_zero()
        assert p.coefficient(-1).is_zero()

    def test_rho_mu_evaluation_identity(self):
        # (rho * mu^[s])(1,1;lam) = q^{lam s} rho(1,1;lam)
        rng = random.Random(11)
        for _ in range(25):
            q = rng.choice((2, 3))
            rho = random_hpoly(rng, q, 4)
            for s in range(5):
                prod = skew_q_product(rho, mu_power(q, s))
                for lam in (0, 1, 3, 8):
                    assert evaluate(prod, 1, 1, lam) == Fraction(q) ** (
                        lam * s
                    ) * evaluate(rho, 1, 1, lam)
