import copy
import pickle
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewrank.gfcodes import WeightDist
from skewrank.krawtchouk import KrawtchoukMatrix, gauss_base
from skewrank.macwilliams import VerifyReport
from skewrank.moments import MomentCheck
from skewrank.qcombinat import (
    SchemeParams,
    beta,
    factor_prime_power,
    gamma,
    gauss,
    sigma,
    xi,
)
from skewrank.selftest import gauss_identities, xi_sums

QS = (2, 3, 4, 5)
FIELDS = (2, 3, 4, 5, 7, 8, 9)

P34 = SchemeParams(3, 4)
# one record of each immutable type: its fields and its pinned repr
RECORDS = [
    (SchemeParams, {"q": 3, "t": 4}, "SchemeParams(q=3, t=4)"),
    (WeightDist, {"params": P34, "counts": (1, 0, 2)},
     "WeightDist(params=SchemeParams(q=3, t=4), counts=(1, 0, 2))"),
    (KrawtchoukMatrix,
     {"params": P34, "entries": ((1, 260, 468), (1, 17, -18), (1, -10, 9))},
     "KrawtchoukMatrix(params=SchemeParams(q=3, t=4), "
     "entries=((1, 260, 468), (1, 17, -18), (1, -10, 9)))"),
    (VerifyReport,
     {"params": P34, "k": 4, "dual_k": 2,
      "dist": WeightDist(P34, (1, 44, 36)),
      "dual_dist_enum": WeightDist(P34, (1, 8, 0)),
      "dual_dist_matrix": WeightDist(P34, (1, 8, 0)),
      "dual_dist_functional": WeightDist(P34, (1, 8, 0)),
      "size_product_ok": True},
     "VerifyReport(params=SchemeParams(q=3, t=4), k=4, dual_k=2, "
     "dist=WeightDist(params=SchemeParams(q=3, t=4), counts=(1, 44, 36)), "
     "dual_dist_enum=WeightDist(params=SchemeParams(q=3, t=4), "
     "counts=(1, 8, 0)), "
     "dual_dist_matrix=WeightDist(params=SchemeParams(q=3, t=4), "
     "counts=(1, 8, 0)), "
     "dual_dist_functional=WeightDist(params=SchemeParams(q=3, t=4), "
     "counts=(1, 8, 0)), size_product_ok=True)"),
    (MomentCheck,
     {"name": "first_moment", "phi": 1, "lhs": Fraction(3),
      "rhs": Fraction(3, 2)},
     "MomentCheck(name='first_moment', phi=1, lhs=Fraction(3, 1), "
     "rhs=Fraction(3, 2))"),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


class TestSchemeParams:
    def test_derived_values(self):
        p = SchemeParams(3, 4)
        assert (p.n, p.m, p.num_coords) == (2, 3, 6)
        p = SchemeParams(2, 5)
        assert (p.n, p.m, p.num_coords) == (2, 5, 10)

    @pytest.mark.parametrize("t", range(2, 12))
    def test_m_by_parity_and_product(self, t):
        p = SchemeParams(2, t)
        assert p.m == (t - 1 if t % 2 == 0 else t)
        assert p.n * p.m == t * (t - 1) // 2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SchemeParams(6, 4)
        with pytest.raises(ValueError):
            SchemeParams(2, 1)

    def test_prime_power_factoring(self):
        assert factor_prime_power(8) == (2, 3)
        assert factor_prime_power(9) == (3, 2)
        assert factor_prime_power(97) == (97, 1)
        with pytest.raises(ValueError):
            factor_prime_power(12)


class TestRecords:
    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_record_contract(self, cls, fields, text):
        rec = cls(*fields.values())
        same = cls(**fields)
        assert rec is not same
        assert rec == same and hash(rec) == hash(same)
        assert repr(rec) == text
        assert rec != tuple(fields.values())
        sub = type("Sub", (cls,), {})
        assert rec != sub(**fields)
        first = next(iter(fields))
        for name in (first, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert {name: getattr(rec, name) for name in fields} == fields

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
    def test_pickle_and_copy_rebuild_an_equal_record(self, cls, fields, text):
        rec = cls(**fields)
        copies = [pickle.loads(pickle.dumps(rec, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.copy(rec), copy.deepcopy(rec)]:
            assert type(back) is cls
            assert back == rec and repr(back) == text

    @pytest.mark.parametrize("build", [
        lambda: SchemeParams(q=2, t=1),
        lambda: SchemeParams(q=6, t=4),
        lambda: WeightDist(params=P34, counts=(1, 0)),
        lambda: WeightDist(params=P34, counts=(1, -1, 0)),
    ])
    def test_keyword_construction_runs_the_checks(self, build):
        with pytest.raises(ValueError):
            build()


class TestGauss:
    def test_spec_values(self):
        assert gauss(3, 2, 1) == 10
        assert gauss(5, 7, 0) == 1
        assert gauss(2, 1, 2) == 0
        assert gauss(2, 3, 1) == 21

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            gauss(2, 3, -1)

    def test_negative_x_is_rational(self):
        assert gauss(2, -1, 1) == Fraction(-3, 4) / 3
        assert gauss(3, -2, 1) != 0

    @pytest.mark.parametrize("q", FIELDS)
    def test_int_and_matches_rational_base_oracle(self, q):
        # at x >= 0 the value is an int, equal to the Fraction product of
        # the Gaussian coefficient at the rational base q^2
        base = Fraction(q * q)
        for x in range(13):
            for k in range(x + 1):
                g = gauss(q, x, k)
                assert type(g) is int, (x, k)
                assert g == gauss_base(base, x, k), (x, k)

    def test_symmetry(self):
        # with the first Pascal step
        assert gauss_identities(QS, range(13)) == 364

    def test_swap_identity(self):
        for q in (2, 3):
            for x in range(11):
                for i in range(x + 1):
                    for k in range(x - i + 1):
                        assert gauss(q, x, i) * gauss(q, x - i, k) == gauss(
                            q, x, k
                        ) * gauss(q, x - k, i)

    def test_product_form(self):
        # prod_{i<x}(y - q^{2i}) expanded in Gaussian coefficients
        for q in (2, 3):
            for x in range(7):
                for lam in range(7):
                    y = Fraction(q) ** lam
                    lhs = Fraction(1)
                    for i in range(x):
                        lhs *= y - q ** (2 * i)
                    rhs = sum(
                        (-1) ** (x - k)
                        * q ** (2 * comb(x - k, 2))
                        * gauss(q, x, k)
                        * y**k
                        for k in range(x + 1)
                    )
                    assert lhs == rhs

    def test_product_to_sum(self):
        for q in (2, 3):
            for x in range(8):
                for lam in range(7):
                    y = Fraction(q) ** lam
                    total = Fraction(0)
                    for k in range(x + 1):
                        prod = Fraction(1)
                        for i in range(k):
                            prod *= y - q ** (2 * i)
                        total += gauss(q, x, k) * prod
                    assert total == y**x

    def test_delta_identity(self):
        for q in (2, 3):
            for j in range(9):
                for i in range(j + 1):
                    total = sum(
                        (-1) ** (k - i)
                        * q ** (2 * sigma(k - i))
                        * gauss(q, k, i)
                        * gauss(q, j, k)
                        for k in range(i, j + 1)
                    )
                    assert total == (1 if i == j else 0)

    def test_pascal_identities(self):
        # the first step is checked in gauss_identities (test_symmetry)
        for q in QS:
            for x in range(1, 13):
                for k in range(1, x + 1):
                    g = gauss(q, x, k)
                    assert g == gauss(q, x - 1, k - 1) + q ** (2 * k) * gauss(
                        q, x - 1, k
                    )
                    assert g == Fraction(
                        q ** (2 * (x - k + 1)) - 1, q ** (2 * k) - 1
                    ) * gauss(q, x, k - 1)
                    if x > k:
                        assert g == Fraction(
                            q ** (2 * x) - 1, q ** (2 * (x - k)) - 1
                        ) * gauss(q, x - 1, k)
                    # the derived down-step
                    assert gauss(q, x - 1, k - 1) == Fraction(
                        q ** (2 * k) - 1, q ** (2 * x) - 1
                    ) * g

    @given(
        q=st.sampled_from(QS),
        x=st.integers(min_value=-6, max_value=14),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_one_step_recurrence_generic_x(self, q, x, k):
        # [x,k] = [x-1,k-1] + q^{2k} [x-1,k] holds for negative x too
        assert gauss(q, x, k) == gauss(q, x - 1, k - 1) + q ** (2 * k) * gauss(
            q, x - 1, k
        )


class TestGammaBeta:
    def test_spec_values(self):
        assert gamma(3, 3, 1) == 26
        assert gamma(3, 3, 2) == 468
        assert gamma(7, 0, 0) == 1
        assert beta(3, 2, 2) == 10
        assert beta(2, 5, 0) == 1
        assert beta(3, 2, 1) == gauss(3, 2, 1)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            gamma(2, 3, -1)
        with pytest.raises(ValueError):
            beta(2, 3, -2)

    def test_gamma_is_int_for_nonnegative_x(self):
        for q in FIELDS:
            for x in range(13):
                for k in range(8):
                    assert type(gamma(q, x, k)) is int, (q, x, k)
        assert type(gamma(2, -1, 1)) is Fraction

    def test_gamma_identities(self):
        for q in (2, 3):
            for x in range(-4, 13):
                for k in range(7):
                    g = gamma(q, x, k)
                    # factored form
                    prod = Fraction(1)
                    for i in range(k):
                        prod *= Fraction(q) ** (x - 2 * i) - 1
                    assert g == q ** (k * (k - 1)) * prod
                    # two-step and one-step recurrences
                    assert gamma(q, x + 2, k + 1) == (
                        Fraction(q) ** (x + 2) - 1
                    ) * q ** (2 * k) * g
                    assert gamma(q, x, k + 1) == (
                        Fraction(q) ** x - q ** (2 * k)
                    ) * g

    def test_gamma_gauss_quotient(self):
        for q in (2, 3):
            for x in range(11):
                for k in range(x + 1):
                    assert Fraction(gamma(q, 2 * x, k), gamma(q, 2 * k, k)) == gauss(
                        q, x, k
                    )

    def test_beta_factorizations(self):
        for q in (2, 3):
            for x in range(11):
                for k in range(x + 1):
                    assert beta(q, x, k) == gauss(q, x, k) * beta(q, k, k)
                    assert beta(q, x, x) == gauss(q, x, k) * beta(
                        q, k, k
                    ) * beta(q, x - k, x - k)


class TestSigmaXi:
    def test_sigma(self):
        assert [sigma(i) for i in range(5)] == [0, 0, 1, 3, 6]
        with pytest.raises(ValueError):
            sigma(-1)

    def test_xi_values(self):
        p = SchemeParams(3, 4)
        assert xi(p, 0) == 1
        assert xi(p, 1) == 260
        assert xi(p, 2) == 468
        assert xi(p, 3) == 0
        assert xi(p, -1) == 0

    def test_xi_equals_gauss_gamma(self):
        for q in (2, 3):
            for t in range(2, 8):
                p = SchemeParams(q, t)
                for s in range(p.n + 1):
                    assert xi(p, s) == gauss(q, p.n, s) * gamma(q, p.m, s)

    def test_xi_sums_to_space_size(self):
        assert xi_sums((2, 3), range(2, 7)) == 10
