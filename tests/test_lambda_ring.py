import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_canonical, eval_fraction_sum, random_lambda_scalar
from skewrank.homopoly import HPoly, evaluate
from skewrank.lambda_ring import LambdaScalar, eval_lambda, gamma_lambda, shift
from skewrank.selftest import gamma_lambda_values, shift_eval

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
        scalars = [random_lambda_scalar(rng, rng.choice((2, 3, 4)))
                   for _ in range(200)]
        cases = [(s, j, lam) for s in scalars for j in range(-4, 5)
                 for lam in (-10, -3, 0, 1, 7, 10)]
        assert shift_eval(cases) == 200 * 9 * 6

    def test_shift_composition_and_zero(self):
        rng = random.Random(8)
        for _ in range(100):
            s = random_lambda_scalar(rng, 3)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            assert shift(s, 0) == s
            assert shift(shift(s, a), b) == shift(s, a + b)

    def test_gamma_lambda_matches_gamma(self):
        assert gamma_lambda_values((2, 3), range(7), range(13)) == 182


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


FIELDS = (2, 3, 4, 5, 7, 8, 9)


class TestRingAxioms:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_ring_axioms(self, data):
        for q in FIELDS:
            a, b, c = (data.draw(scalars_over(q)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + LambdaScalar.zero(q) == a
            assert a * LambdaScalar.one(q) == a

    @settings(max_examples=60)
    @given(data=st.data(), j=st.integers(-4, 4))
    def test_shift_is_ring_homomorphism(self, data, j):
        for q in FIELDS:
            a, b = data.draw(scalars_over(q)), data.draw(scalars_over(q))
            assert shift(a * b, j) == shift(a, j) * shift(b, j)
            assert shift(a + b, j) == shift(a, j) + shift(b, j)


# -- the ring against Fraction arithmetic on terms() -------------------------

term_dicts = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.one_of(
        st.integers(min_value=-40, max_value=40),
        st.fractions(min_value=-9, max_value=9, max_denominator=50),
    ),
    max_size=5,
)


def nonzero(terms):
    return {e: Fraction(c) for e, c in terms.items() if c != 0}


class TestAgainstFractionTerms:
    @pytest.mark.parametrize("q", FIELDS)
    @settings(max_examples=40)
    @given(ta=term_dicts, tb=term_dicts, j=st.integers(-3, 3),
           lam=st.integers(-6, 6))
    def test_operations_match_fraction_terms(self, q, ta, tb, j, lam):
        a, b = LambdaScalar(q, ta), LambdaScalar(q, tb)
        fa, fb = nonzero(ta), nonzero(tb)
        assert a.terms() == fa and b.terms() == fb

        total = dict(fa)
        for e, c in fb.items():
            total[e] = total.get(e, Fraction(0)) + c
        product = {}
        for e1, c1 in fa.items():
            for e2, c2 in fb.items():
                product[e1 + e2] = product.get(e1 + e2, Fraction(0)) + c1 * c2
        difference = {e: fa.get(e, 0) - fb.get(e, 0) for e in fa.keys() | fb.keys()}
        shifted = {e: c * Fraction(q) ** (-2 * j * e) for e, c in fa.items()}
        value = sum(
            (c * Fraction(q) ** (lam * e) for e, c in fa.items()), Fraction(0)
        )

        for got, want in (
            (a, fa),
            (a + b, nonzero(total)),
            (a - b, nonzero(difference)),
            (a * b, nonzero(product)),
            (a * 6, nonzero({e: 6 * c for e, c in fa.items()})),
            (a * Fraction(-3, 4),
             nonzero({e: c * Fraction(-3, 4) for e, c in fa.items()})),
            (a.shift(j), nonzero(shifted)),
        ):
            assert_canonical(got)
            assert got.terms() == want
        assert_canonical(-a)
        assert a.eval_lambda(lam) == value
        assert (type(a.eval_lambda(lam)) is int) == (value.denominator == 1)

    def test_constructors_are_canonical(self):
        for s in (
            LambdaScalar.zero(3),
            LambdaScalar.one(5),
            LambdaScalar.q_lambda(2, -3),
            LambdaScalar.constant(7, Fraction(6, 4)),
            LambdaScalar(4, {1: Fraction(2, 6), -1: Fraction(4, 6), 0: 0}),
            gamma_lambda(9, 4),
        ):
            assert_canonical(s)


class TestHashMatchesEquality:
    def test_constants_hash_as_their_value(self):
        for q in FIELDS:
            for v in (0, 3, -7, Fraction(5, 9), Fraction(-1, 2)):
                s = LambdaScalar.constant(q, v)
                assert s == v and hash(s) == hash(v)
                assert s in {v} and v in {s}
            assert LambdaScalar.zero(q) in {0}
            assert LambdaScalar(q, {2: 0, 0: Fraction(4, 2)}) in {2}

    def test_equal_scalars_hash_equal(self):
        pairs = [
            (LambdaScalar(3, {1: Fraction(2, 4)}),
             LambdaScalar.q_lambda(3) * Fraction(1, 2)),
            (LambdaScalar.q_lambda(2) - LambdaScalar.q_lambda(2), LambdaScalar.zero(2)),
            (shift(LambdaScalar.q_lambda(2), 1), LambdaScalar(2, {1: Fraction(1, 4)})),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

    def test_hpolys_built_from_constants(self):
        a = HPoly(3, [3, 0, Fraction(1, 2)])
        b = HPoly(3, [LambdaScalar.constant(3, 3), LambdaScalar.zero(3),
                      LambdaScalar.one(3) * Fraction(1, 2)])
        assert a == b and hash(a) == hash(b)
        assert HPoly(2, [0]) == HPoly(2, [LambdaScalar.zero(2)])
        assert hash(HPoly(2, [0])) == hash(HPoly(2, [LambdaScalar.zero(2)]))


class TestOnlyExactRationals:
    BAD = (0.1, 1.0, "1/3", None, complex(1, 0))

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_coefficients_and_operands_refused(self, bad):
        name = type(bad).__name__
        s = LambdaScalar(2, {0: 1, 1: Fraction(1, 3)})
        for build in (
            lambda: LambdaScalar(2, {0: bad}),
            lambda: LambdaScalar(2, {0: 1, 1: bad}),
            lambda: LambdaScalar.constant(2, bad),
            lambda: s + bad,
            lambda: bad + s,
            lambda: s - bad,
            lambda: bad - s,
            lambda: s * bad,
            lambda: bad * s,
            lambda: HPoly(2, [1, bad]),
            lambda: HPoly(2, [1]).scale(bad),
        ):
            with pytest.raises(TypeError, match=name):
                build()

    @pytest.mark.parametrize("bad", (0.5, 2.0, "3"), ids=repr)
    def test_exponents_must_be_ints(self, bad):
        with pytest.raises(TypeError, match=type(bad).__name__):
            LambdaScalar(2, {bad: 1})
        with pytest.raises(TypeError, match=type(bad).__name__):
            LambdaScalar.q_lambda(2, bad)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_evaluate_refuses_inexact_points(self, bad):
        p = HPoly(2, [1, 1])
        with pytest.raises(TypeError, match=type(bad).__name__):
            evaluate(p, bad, 1, 0)
        with pytest.raises(TypeError, match=type(bad).__name__):
            evaluate(p, 1, bad, 0)
        assert evaluate(p, Fraction(1, 2), 3, 0) == Fraction(7, 2)

    @pytest.mark.parametrize("bad", (0.5, 2.0, "1", Fraction(1), None), ids=repr)
    def test_lambda_and_shift_must_be_ints(self, bad):
        name = type(bad).__name__
        s = LambdaScalar(2, {1: 1})
        for call in (
            lambda: s.eval_lambda(bad),
            lambda: eval_lambda(s, bad),
            lambda: LambdaScalar.zero(2).eval_lambda(bad),
            lambda: evaluate(HPoly(2, [1, 1]), 1, 1, bad),
            lambda: s.shift(bad),
            lambda: shift(s, bad),
            lambda: LambdaScalar.zero(2).shift(bad),
        ):
            with pytest.raises(TypeError, match=name):
                call()
        assert eval_lambda(s, 3) == 8 and shift(s, 1).eval_lambda(3) == 2

    def test_float_equality_is_not_an_error(self):
        s = LambdaScalar.constant(2, 1)
        assert s.__eq__(1.0) is NotImplemented
        assert s.__eq__("1") is NotImplemented
        assert not (s == 0.5) and s != 0.5
