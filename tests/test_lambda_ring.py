import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_fraction_sum, random_lambda_scalar
from skewrank.lambda_ring import LambdaScalar, eval_lambda, gamma_lambda, shift
from skewrank.qcombinat import gamma

scalars = st.builds(
    lambda q, pairs: LambdaScalar(q, dict(pairs)),
    st.sampled_from((2, 3)),
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.fractions(
                min_value=-5, max_value=5, max_denominator=6
            ),
        ),
        max_size=4,
    ),
)


def scalars_over(q):
    return st.builds(
        lambda pairs: LambdaScalar(q, dict(pairs)),
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
            ),
            max_size=4,
        ),
    )


class TestBasics:
    def test_shift_example(self):
        s = LambdaScalar.q_lambda(3) - 1
        assert shift(s, 1).terms() == {1: Fraction(1, 9), 0: Fraction(-1)}

    def test_constants_are_shift_invariant(self):
        c = LambdaScalar.constant(2, 5)
        assert shift(c, 7) == c

    def test_gamma_shift_example(self):
        # (Q-1)(Q-q^2) under lambda -> lambda-2 at q=2: (Q/4-1)(Q/4-4)
        g = gamma_lambda(2, 2)
        shifted = shift(g, 1)
        lhs = (LambdaScalar.q_lambda(2) * Fraction(1, 4) - 1) * (
            LambdaScalar.q_lambda(2) * Fraction(1, 4) - 4
        )
        assert shifted == lhs

    def test_eval_examples(self):
        assert eval_lambda(LambdaScalar.q_lambda(3) - 1, 3) == 26
        assert eval_lambda(LambdaScalar.zero(5), 9) == 0
        assert eval_lambda(gamma_lambda(3, 2), 3) == 468

    def test_gamma_lambda_forms(self):
        assert gamma_lambda(3, 0) == LambdaScalar.one(3)
        assert gamma_lambda(3, 1) == LambdaScalar.q_lambda(3) - 1
        assert eval_lambda(gamma_lambda(2, 2), 4) == 180
        with pytest.raises(ValueError):
            gamma_lambda(3, -1)

    def test_no_zero_terms_stored(self):
        s = LambdaScalar(2, {3: Fraction(0), 1: Fraction(2)})
        assert s.terms() == {1: Fraction(2)}
        assert (s - s).is_zero()

    def test_mixed_base_rejected(self):
        with pytest.raises(ValueError):
            LambdaScalar.one(2) + LambdaScalar.one(3)


class TestShiftEval:
    def test_shift_eval_compatibility_grid(self):
        rng = random.Random(7)
        for _ in range(200):
            q = rng.choice((2, 3, 4))
            s = random_lambda_scalar(rng, q)
            for j in range(-4, 5):
                for lam in (-10, -3, 0, 1, 7, 10):
                    assert shift(s, j).eval_lambda(lam) == s.eval_lambda(
                        lam - 2 * j
                    )

    def test_shift_composition_and_zero(self):
        rng = random.Random(8)
        for _ in range(100):
            s = random_lambda_scalar(rng, 3)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            assert shift(s, 0) == s
            assert shift(shift(s, a), b) == shift(s, a + b)

    def test_gamma_lambda_matches_gamma(self):
        for q in (2, 3):
            for k in range(7):
                g = gamma_lambda(q, k)
                for x in range(13):
                    assert eval_lambda(g, x) == gamma(q, x, k)


class TestEvalCommonDenominator:
    CASES = [
        LambdaScalar.zero(3),
        LambdaScalar.constant(5, 7),
        LambdaScalar.constant(2, Fraction(-3, 8)),
        # Laurent terms: negative exponents of Q
        LambdaScalar(2, {-2: 3, -1: Fraction(-5, 2), 1: 1}),
        LambdaScalar(4, {-3: 1, 2: -7}),
        # denominators that are not powers of q; (1 + 2*5^lam)/3 is an
        # integer exactly at even lam >= 0
        LambdaScalar(5, {0: Fraction(1, 3), 1: Fraction(2, 3)}),
        LambdaScalar(3, {-1: Fraction(1, 6), 2: Fraction(5, 7), 0: Fraction(1, 3)}),
    ]

    @pytest.mark.parametrize("s", CASES, ids=repr)
    def test_matches_fraction_sum(self, s):
        for lam in range(-6, 7):
            want = eval_fraction_sum(s, lam)
            got = s.eval_lambda(lam)
            assert got == want, lam
            assert (type(got) is int) == (want.denominator == 1), lam

    def test_random_scalars_match_fraction_sum(self):
        rng = random.Random(12)
        for _ in range(300):
            s = random_lambda_scalar(rng, rng.choice((2, 3, 4, 5, 7, 8, 9)), 5)
            lam = rng.randint(-8, 8)
            want = eval_fraction_sum(s, lam)
            got = eval_lambda(s, lam)
            assert got == want
            assert (type(got) is int) == (want.denominator == 1)

    def test_integral_values_are_ints(self):
        s = LambdaScalar(5, {0: Fraction(1, 3), 1: Fraction(2, 3)})
        assert s.eval_lambda(2) == 17 and type(s.eval_lambda(2)) is int
        assert s.eval_lambda(1) == Fraction(11, 3)
        assert type(eval_lambda(LambdaScalar.zero(2), 5)) is int


class TestRingAxioms:
    @settings(max_examples=60)
    @given(a=scalars_over(3), b=scalars_over(3), c=scalars_over(3))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LambdaScalar.zero(3) == a
        assert a * LambdaScalar.one(3) == a

    @settings(max_examples=60)
    @given(a=scalars_over(2), b=scalars_over(2), j=st.integers(-4, 4))
    def test_shift_is_ring_homomorphism(self, a, b, j):
        assert shift(a * b, j) == shift(a, j) * shift(b, j)
        assert shift(a + b, j) == shift(a, j) + shift(b, j)
