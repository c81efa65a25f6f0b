"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All equalities are exact; nothing here uses floating point.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from conftest import (
    ACCEPTANCE_PAIRS,
    leibniz_x_rhs,
    leibniz_y_rhs,
    mu_inv_derivative_closed,
    random_hpoly,
)
from skewrank.gfcodes import (
    _build_rank_table,
    _RANK_TABLES,
    _rank_table_key,
    dual,
    make_field,
    min_distance,
    parse_code,
    random_code,
    weight_distribution,
)
from skewrank.homopoly import (
    evaluate,
    mu_power,
    nu_power,
    omega,
    skew_q_product,
)
from skewrank.krawtchouk import generalized_p, matched_bc, p_matrix, skew_c, skew_p
from skewrank.macwilliams import transform_functional, transform_matrix
from skewrank.moments import (
    check_first_moment,
    check_second_moment,
    delta_closed,
    epsilon_closed,
    find_msrd,
    forward_sequence,
    invert_sequence,
    msrd_distribution,
)
from skewrank.qcalculus import (
    eval_nu_derivative_at_ones,
    q_derivative,
    q_inv_derivative,
)
from skewrank.qcombinat import SchemeParams, beta, gamma, gauss, sigma, xi

EXAMPLE_PATH = Path(__file__).resolve().parents[1] / "data" / "example_q3_t4.skc"


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


_CORPUS: dict = {}


def corpus():
    """100 seeded random codes per (q, t), with all three dual routes."""
    if _CORPUS:
        return _CORPUS
    for idx, (q, t) in enumerate(ACCEPTANCE_PAIRS):
        params = SchemeParams(q, t)
        field = make_field(q)
        rng = random.Random(1000 + idx)
        entries = []
        for _ in range(100):
            k = rng.randint(1, params.num_coords - 1)
            code = random_code(params, field, k, rng)
            w = weight_distribution(code)
            w_enum = weight_distribution(dual(code))
            w_mat = transform_matrix(w, code.size, params)
            w_fun = transform_functional(w, code.size, params)
            entries.append((code, w, w_enum, w_mat, w_fun))
        _CORPUS[(q, t)] = entries
    return _CORPUS


def test_criterion_1_example_reproduction():
    with criterion(1, "example reproduction"):
        text = EXAMPLE_PATH.read_text(encoding="utf-8")
        params = SchemeParams(3, 4)
        _RANK_TABLES.pop(_rank_table_key(params, make_field(3)), None)
        start = time.perf_counter()
        code = parse_code(text)
        dist = weight_distribution(code)
        elapsed = time.perf_counter() - start
        assert dist.counts == (1, 44, 36)
        assert elapsed < 0.1, f"wdist took {elapsed:.3f}s"


def test_criterion_2_count_reproduction():
    with criterion(2, "count reproduction"):
        for q, t in ACCEPTANCE_PAIRS:
            params = SchemeParams(q, t)
            field = make_field(q)
            key = _rank_table_key(params, field)
            if (q, t) == (3, 5):
                start = time.perf_counter()
                table = _build_rank_table(params, field)
                elapsed = time.perf_counter() - start
                assert elapsed < 10.0, f"(3,5) census took {elapsed:.2f}s"
                _RANK_TABLES[key] = table
            else:
                table = _RANK_TABLES.get(key)
                if table is None:
                    table = _build_rank_table(params, field)
                    _RANK_TABLES[key] = table
            counts = [0] * (params.n + 1)
            for r in table:
                counts[r] += 1
            assert counts == [xi(params, s) for s in range(params.n + 1)], (q, t)
        om = omega(SchemeParams(3, 4))
        assert [c.eval_lambda(0) for c in om.coeffs] == [1, 260, 468]


def test_criterion_3_three_way_agreement():
    with criterion(3, "MacWilliams three-way agreement"):
        start = time.perf_counter()
        code = parse_code(EXAMPLE_PATH.read_text(encoding="utf-8"))
        params = code.params
        w = weight_distribution(code)
        w_enum = weight_distribution(dual(code))
        w_mat = transform_matrix(w, code.size, params)
        w_fun = transform_functional(w, code.size, params)
        assert (
            w_enum.counts == w_mat.counts == w_fun.counts == (1, 8, 0)
        )
        for (q, t), entries in corpus().items():
            assert len(entries) >= 100
            for code, w, w_enum, w_mat, w_fun in entries:
                assert w_enum.counts == w_mat.counts == w_fun.counts, (
                    q, t, code.basis_rows()
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"three-way suite took {elapsed:.1f}s"


def test_criterion_4_krawtchouk_equivalences():
    with criterion(4, "Krawtchouk equivalences"):
        for q, t in ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (5, 4)):
            params = SchemeParams(q, t)
            b, c = matched_bc(params)
            n = params.n
            mat = p_matrix(params)
            for x in range(n + 1):
                for k in range(n + 1):
                    val = skew_p(params, k, x)
                    assert mat.entries[x][k] == val
                    assert skew_c(params, k, x) == val
                    assert generalized_p(b, c, k, x, n) == val
            # column relation: the dual of the whole space is zero
            out = mat.transform([xi(params, x) for x in range(n + 1)])
            assert out == [q ** (params.m * n)] + [0] * n
        # recurrence across parity-matched parameter steps
        for q, t in ((2, 4), (2, 5), (3, 4), (3, 5)):
            small = SchemeParams(q, t)
            big = SchemeParams(q, t + 2)
            for x in range(small.n + 1):
                for k in range(small.n):
                    assert skew_c(big, k + 1, x + 1) == q ** (
                        2 * (k + 1)
                    ) * skew_c(small, k + 1, x) - q ** (2 * k) * skew_c(
                        small, k, x
                    )
        # and directly on the generalized form with (b, c) held fixed
        for b, c in ((Fraction(4), Fraction(1, 2)), (Fraction(9), Fraction(3))):
            for y in range(1, 5):
                for x in range(y):
                    for k in range(y):
                        assert generalized_p(b, c, k + 1, x + 1, y + 1) == b ** (
                            k + 1
                        ) * generalized_p(b, c, k + 1, x, y) - b**k * generalized_p(
                            b, c, k, x, y
                        )


def test_criterion_5_identity_suite():
    with criterion(5, "identity suite"):
        start = time.perf_counter()
        for q in (2, 3, 4, 5):
            for x in range(13):
                for k in range(x + 1):
                    assert gauss(q, x, k) == gauss(q, x, x - k)
            for x in range(1, 13):
                for k in range(1, x + 1):
                    g = gauss(q, x, k)
                    assert g == gauss(q, x - 1, k) + q ** (
                        2 * (x - k)
                    ) * gauss(q, x - 1, k - 1)
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
                    assert gauss(q, x - 1, k - 1) == Fraction(
                        q ** (2 * k) - 1, q ** (2 * x) - 1
                    ) * g
        for q in (2, 3):
            # swap, product form, product-to-sum, delta
            for x in range(9):
                for i in range(x + 1):
                    for k in range(x - i + 1):
                        assert gauss(q, x, i) * gauss(q, x - i, k) == gauss(
                            q, x, k
                        ) * gauss(q, x - k, i)
            for x in range(7):
                for lam in range(7):
                    y = Fraction(q) ** lam
                    prod = Fraction(1)
                    for i in range(x):
                        prod *= y - q ** (2 * i)
                    assert prod == sum(
                        (-1) ** (x - k)
                        * q ** (2 * comb(x - k, 2))
                        * gauss(q, x, k)
                        * y**k
                        for k in range(x + 1)
                    )
                    total = Fraction(0)
                    for k in range(x + 1):
                        pk = Fraction(1)
                        for i in range(k):
                            pk *= y - q ** (2 * i)
                        total += gauss(q, x, k) * pk
                    assert total == y**x
            for j in range(9):
                for i in range(j + 1):
                    assert sum(
                        (-1) ** (k - i)
                        * q ** (2 * sigma(k - i))
                        * gauss(q, k, i)
                        * gauss(q, j, k)
                        for k in range(i, j + 1)
                    ) == (1 if i == j else 0)
            # gamma lemma (all four identities)
            for x in range(-4, 13):
                for k in range(7):
                    g = gamma(q, x, k)
                    prod = Fraction(1)
                    for i in range(k):
                        prod *= Fraction(q) ** (x - 2 * i) - 1
                    assert g == q ** (k * (k - 1)) * prod
                    assert gamma(q, x + 2, k + 1) == (
                        Fraction(q) ** (x + 2) - 1
                    ) * q ** (2 * k) * g
                    assert gamma(q, x, k + 1) == (
                        Fraction(q) ** x - q ** (2 * k)
                    ) * g
            for x in range(11):
                for k in range(x + 1):
                    assert Fraction(gamma(q, 2 * x, k), gamma(q, 2 * k, k)) == gauss(
                        q, x, k
                    )
                    # beta lemma
                    assert beta(q, x, k) == gauss(q, x, k) * beta(q, k, k)
                    assert beta(q, x, x) == gauss(q, x, k) * beta(
                        q, k, k
                    ) * beta(q, x - k, x - k)
            # delta / epsilon closed forms
            for phi in range(7):
                for j in range(phi + 1):
                    for lam in range(-2, 13):
                        delta_closed(q, lam, phi, j)
                for i in range(phi + 1):
                    for lam_big in range(phi, 13):
                        epsilon_closed(q, lam_big, phi, i)
        # sequence inversion round-trips
        rng = random.Random(51)
        for _ in range(30):
            q = rng.choice((2, 3))
            l = rng.randint(0, 6)
            b = [Fraction(rng.randint(-30, 30)) for _ in range(l + 1)]
            assert invert_sequence(forward_sequence(b, l, q), l, q) == b
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_6_calculus_suite():
    with criterion(6, "calculus suite"):
        rng = random.Random(61)

        pairs = 0
        while pairs < 200:
            q = rng.choice((2, 3))
            f = random_hpoly(rng, q, 4)
            g = random_hpoly(rng, q, 4)
            prod = skew_q_product(f, g)
            for phi in range(7):
                lhs = (
                    q_derivative(prod, phi)
                    if phi <= prod.degree
                    else None
                )
                rhs = leibniz_x_rhs(f, g, phi)
                if lhs is None or lhs.is_zero():
                    assert rhs is None or rhs.is_zero()
                else:
                    assert rhs is not None and lhs == rhs
                lhs_y = (
                    q_inv_derivative(prod, phi)
                    if phi <= prod.degree
                    else None
                )
                rhs_y = leibniz_y_rhs(f, g, phi)
                if lhs_y is None or lhs_y.is_zero():
                    assert rhs_y is None or rhs_y.is_zero()
                else:
                    assert rhs_y is not None and lhs_y == rhs_y
            pairs += 1
        # closed-form derivatives of the two power families
        for q in (2, 3):
            for k in range(6):
                for phi in range(k + 1):
                    assert q_derivative(mu_power(q, k), phi) == mu_power(
                        q, k - phi
                    ).scale(beta(q, k, phi))
                    assert q_derivative(nu_power(q, k), phi) == nu_power(
                        q, k - phi
                    ).scale(beta(q, k, phi))
                    assert q_inv_derivative(nu_power(q, k), phi) == nu_power(
                        q, k - phi
                    ).scale((-1) ** phi * beta(q, k, phi))
                    assert q_inv_derivative(
                        mu_power(q, k), phi
                    ) == mu_inv_derivative_closed(q, k, phi)
        # the nu-derivative delta evaluation
        for q in (2, 3):
            for j in range(5):
                for l in range(j + 1):
                    want = beta(q, j, j) if j == l else 0
                    assert eval_nu_derivative_at_ones(q, j, l) == want
        # evaluation identity against mu powers
        for _ in range(40):
            q = rng.choice((2, 3))
            rho = random_hpoly(rng, q, 4)
            for s in range(5):
                prod = skew_q_product(rho, mu_power(q, s))
                for lam in range(0, 9, 2):
                    assert evaluate(prod, 1, 1, lam) == Fraction(q) ** (
                        lam * s
                    ) * evaluate(rho, 1, 1, lam)


def test_criterion_7_moments():
    with criterion(7, "moment identities"):
        code = parse_code(EXAMPLE_PATH.read_text(encoding="utf-8"))
        params = code.params
        w = weight_distribution(code)
        w_dual = weight_distribution(dual(code))
        l, r = check_first_moment(w, w_dual, 1, params)
        assert l == r == 54
        l, r = check_second_moment(w, w_dual, 1, 4, params)
        assert l == r == 756
        for (q, t), entries in corpus().items():
            p = SchemeParams(q, t)
            for code, w, w_enum, _, _ in entries:
                for phi in range(p.n + 1):
                    l1, r1 = check_first_moment(w, w_enum, phi, p)
                    assert l1 == r1, (q, t, phi)
                    l2, r2 = check_second_moment(w, w_enum, phi, code.k, p)
                    assert l2 == r2, (q, t, phi)


def test_criterion_8_msrd_formula_values():
    with criterion(8, "MSRD formulas and found codes"):
        # the forced distributions
        assert msrd_distribution(SchemeParams(2, 4), 2).counts == (1, 0, 7)
        assert msrd_distribution(SchemeParams(3, 4), 1).counts == (1, 260, 468)
        # searched codes: (2,5,2) attains the bound; duals are MSRD with
        # d' = n - d + 2
        p25 = SchemeParams(2, 5)
        code = find_msrd(p25, 2, seed=0)
        assert code is not None
        assert weight_distribution(code).counts == msrd_distribution(
            p25, 2
        ).counts
        dcode = dual(code)
        assert min_distance(dcode) == p25.n - 2 + 2
        assert weight_distribution(dcode).counts == msrd_distribution(
            p25, p25.n - 2 + 2
        ).counts
        full = find_msrd(SchemeParams(3, 4), 1)
        assert full is not None and dual(full).k == 0
        # Singleton bound for every code the suite touches
        for (q, t), entries in corpus().items():
            p = SchemeParams(q, t)
            for code, w, _, _, _ in entries:
                d = next(i for i in range(1, p.n + 1) if w.counts[i])
                assert code.size <= q ** (p.m * (p.n - d + 1))


def test_criterion_8_msrd_242_search():
    # Known red: no 3-dimensional binary code at t=4 has all 7 nonzero
    # words of skew rank 2 (a quadratic form in >= 3 variables over a
    # finite field always has a nontrivial zero), so the bound
    # q^{m(n-d+1)} is unattainable at (q,t,d) = (2,4,2).  The exhaustive
    # check over all 1395 subspaces is in test_moments.py; the search is
    # still run faithfully here and reports its honest outcome.
    with criterion(8, "MSRD search at (2,4,2)"):
        code = find_msrd(SchemeParams(2, 4), 2, seed=0)
        assert code is not None, (
            "find_msrd(2,4,2) exhausted its budget: no such code exists "
            "(see TestMsrd242Nonexistence)"
        )
        assert weight_distribution(code).counts == (1, 0, 7)


def test_criterion_9_scope():
    """Full-scale parameters are out of scope; acceptance rests on the exact
    finite identities and oracle equivalences established above."""
    with criterion(9, "scope statement"):
        assert True
