from fractions import Fraction
from math import comb

import pytest

from skewrank import krawtchouk
from skewrank.krawtchouk import (
    gauss_base,
    generalized_p,
    matched_bc,
    p_matrix,
    skew_c,
    skew_p,
)
from skewrank.qcombinat import SchemeParams, gamma, gauss, xi
from skewrank.selftest import krawtchouk_equivalences

EQUIVALENCE_PAIRS = ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (5, 4))
FIELDS = (2, 3, 4, 5, 7, 8, 9)
BASES = (Fraction(3, 2), Fraction(5, 3), Fraction(9, 4), Fraction(4), Fraction(9))


def gauss_base_oracle(b, x, k):
    """prod_{i<k} (b^x - b^i)/(b^k - b^i), one Fraction step at a time."""
    b = Fraction(b)
    if 0 <= x < k:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= (b**x - b**i) / (b**k - b**i)
    return out


def generalized_p_oracle(b, c, k, x, y):
    """P_k(x,y) as a Fraction sum of Fraction terms."""
    b, c = Fraction(b), Fraction(c)
    cby = c * b**y
    out = Fraction(0)
    for j in range(k + 1):
        out += (
            (-1) ** (k - j)
            * cby**j
            * b ** comb(k - j, 2)
            * gauss_base_oracle(b, y - j, y - k)
            * gauss_base_oracle(b, y - x, j)
        )
    return out


class TestMatrix:
    def test_matrix_3_4(self):
        mat = p_matrix(SchemeParams(3, 4))
        assert mat.entries == ((1, 260, 468), (1, 17, -18), (1, -10, 9))

    def test_matrix_n_one(self):
        # t = 2 gives n = 1: P comes from P_0 and P_1 alone
        assert p_matrix(SchemeParams(3, 2)).entries == ((1, 2), (1, -1))
        assert p_matrix(SchemeParams(2, 3)).entries == ((1, 7), (1, -1))

    @pytest.mark.parametrize("q", FIELDS)
    def test_recurrence_matches_closed_forms(self, q):
        # 229 entries and 11 column relations
        assert krawtchouk_equivalences([(q, t) for t in range(2, 13)]) == 240

    @pytest.mark.parametrize("q", FIELDS)
    def test_square_is_scaled_identity(self, q):
        for t in range(2, 40):
            p = SchemeParams(q, t)
            rows = p_matrix(p).entries
            cols = list(zip(*rows))
            scale = q ** (p.m * p.n)
            for i, row in enumerate(rows):
                for j, col in enumerate(cols):
                    want = scale if i == j else 0
                    assert sum(a * b for a, b in zip(row, col)) == want

    def test_row_zero_is_xi(self):
        for q, t in EQUIVALENCE_PAIRS:
            p = SchemeParams(q, t)
            row0 = p_matrix(p).row(0)
            assert row0 == tuple(xi(p, k) for k in range(p.n + 1))
            # and the closed initial-value form
            for k in range(p.n + 1):
                assert row0[k] == gauss(q, p.n, k) * gamma(q, p.m, k)

    def test_column_zero_all_ones(self):
        for q, t in EQUIVALENCE_PAIRS:
            p = SchemeParams(q, t)
            for x in range(p.n + 1):
                assert p_matrix(p).entries[x][0] == 1


class TestMatrixCache:
    @pytest.mark.parametrize("q", FIELDS)
    def test_cached_matrix_is_the_recurrence(self, q):
        # the cached matrix equals one the recurrence builds afresh
        for t in range(2, 13):
            p = SchemeParams(q, t)
            mat = p_matrix(p)
            assert p_matrix(p) is mat
            assert mat == p_matrix.__wrapped__(p)

    def test_cache_holds_at_most_its_bound(self):
        bound = krawtchouk._P_MATRIX_SCHEMES
        schemes = [SchemeParams(q, t) for t in range(2, 40) for q in (2, 3)]
        assert len(schemes) > bound
        for p in schemes:
            p_matrix(p)
        assert p_matrix.cache_info().currsize == bound

    def test_callers_cannot_change_a_cached_matrix(self):
        p = SchemeParams(3, 4)
        mat = p_matrix(p)
        assert type(mat.entries) is tuple
        assert all(type(row) is tuple for row in mat.entries)
        with pytest.raises(AttributeError):
            mat.entries = ((0,),)
        with pytest.raises(AttributeError):
            del mat.entries
        assert mat.entries == p_matrix(p).entries
        out = mat.transform([1, 44, 36])
        assert out == [81, 648, 0]
        out[0] = 0
        assert mat.transform([1, 44, 36]) == [81, 648, 0]
        assert p_matrix(p).entries == (
            (1, 260, 468), (1, 17, -18), (1, -10, 9))


class TestEquivalence:
    @pytest.mark.parametrize("q,t", EQUIVALENCE_PAIRS)
    def test_three_forms_agree(self, q, t):
        # every entry, and the column relation: the dual of the whole space
        # is the zero code
        n = SchemeParams(q, t).n
        assert krawtchouk_equivalences([(q, t)]) == (n + 1) ** 2 + 1

    def test_matched_bc_by_parity(self):
        p_even = SchemeParams(3, 4)
        assert matched_bc(p_even) == (9, Fraction(1, 3))
        p_odd = SchemeParams(3, 5)
        assert matched_bc(p_odd) == (9, Fraction(3))

    def test_spec_point_values(self):
        p34 = SchemeParams(3, 4)
        assert skew_p(p34, 1, 0) == 260
        assert skew_p(p34, 0, 2) == 1
        assert skew_p(p34, 1, 1) == 17
        assert skew_c(p34, 2, 1) == -18
        assert skew_c(p34, 2, 2) == 9
        assert skew_c(p34, 0, 1) == 1
        # the generalized form at (b, c) = (4, 1/2) is the q=2 specialization
        p24 = SchemeParams(2, 4)
        got = generalized_p(4, Fraction(1, 2), 1, 1, 2)
        assert got == skew_p(p24, 1, 1) == 3


class TestGeneralizedForm:
    def test_k_zero_is_one(self):
        for b, c in ((Fraction(4), Fraction(1, 2)), (Fraction(9), Fraction(3))):
            for y in range(1, 5):
                for x in range(y + 1):
                    assert generalized_p(b, c, 0, x, y) == 1

    def test_initial_value_form(self):
        # P_k(0,y) = [y,k]_b prod_{i<k}(c b^y - b^i)
        for b, c in ((Fraction(4), Fraction(1, 2)), (Fraction(9), Fraction(3))):
            for y in range(1, 5):
                for k in range(y + 1):
                    prod = Fraction(1)
                    for i in range(k):
                        prod *= c * b**y - b**i
                    assert generalized_p(b, c, k, 0, y) == gauss_base(
                        b, y, k
                    ) * prod

    def test_gauss_base_is_exact_at_an_int_base(self):
        # an int base must not turn the quotients into floats: 4.2e135
        # has lost digits
        for x, k in ((3, 1), (30, 15)):
            got = gauss_base(4, x, k)
            assert type(got) is Fraction
            assert got == gauss(2, x, k)  # 21 at (3, 1)

    @pytest.mark.parametrize("b", BASES, ids=str)
    def test_int_form_matches_fraction_oracle(self, b):
        # the int numerator over an int denominator, at integral and
        # non-integral bases, against the Fraction-by-Fraction products
        for x in range(-5, 8):
            for k in range(6):
                got = gauss_base(b, x, k)
                assert type(got) is Fraction
                assert got == gauss_base_oracle(b, x, k), (x, k)
        cs = [c for c in (Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(7, 3))
              if c * b > 1]
        assert len(cs) >= 2
        for c in cs:
            for y in range(6):
                for x in range(y + 1):
                    for k in range(y + 1):
                        got = generalized_p(b, c, k, x, y)
                        assert type(got) is Fraction
                        assert got == generalized_p_oracle(b, c, k, x, y), (
                            c, k, x, y)

    def test_recurrence_fixed_bc(self):
        # P_{k+1}(x+1, y+1) = b^{k+1} P_{k+1}(x,y) - b^k P_k(x,y)
        for b, c in (
            (Fraction(4), Fraction(1, 2)),
            (Fraction(4), Fraction(2)),
            (Fraction(9), Fraction(1, 3)),
            (Fraction(9), Fraction(3)),
        ):
            for y in range(1, 5):
                for x in range(y):
                    for k in range(y):
                        lhs = generalized_p(b, c, k + 1, x + 1, y + 1)
                        rhs = b ** (k + 1) * generalized_p(
                            b, c, k + 1, x, y
                        ) - b**k * generalized_p(b, c, k, x, y)
                        assert lhs == rhs

    def test_recurrence_parity_matched_params(self):
        # stepping t -> t+2 keeps parity, increments n, keeps c
        for q, t in ((2, 4), (2, 5), (3, 4), (3, 5)):
            p_small = SchemeParams(q, t)
            p_big = SchemeParams(q, t + 2)
            assert p_big.n == p_small.n + 1
            assert matched_bc(p_big)[1] == matched_bc(p_small)[1]
            n = p_small.n
            for x in range(n + 1):
                for k in range(n):
                    lhs = skew_c(p_big, k + 1, x + 1)
                    rhs = q ** (2 * (k + 1)) * skew_c(
                        p_small, k + 1, x
                    ) - q ** (2 * k) * skew_c(p_small, k, x)
                    assert lhs == rhs

    def test_domain_errors(self):
        p = SchemeParams(3, 4)
        with pytest.raises(ValueError, match="must have length 3"):
            p_matrix(p).transform([1, 0])
        with pytest.raises(ValueError):
            skew_p(p, 3, 0)
        with pytest.raises(ValueError):
            skew_c(p, 0, -1)
        with pytest.raises(ValueError):
            generalized_p(Fraction(1, 2), 1, 0, 0, 1)  # b < 1
        with pytest.raises(ValueError):
            generalized_p(4, Fraction(1, 5), 0, 0, 1)  # c <= 1/b
