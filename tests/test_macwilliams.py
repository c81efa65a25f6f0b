import cProfile
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_fraction_sum
from skewrank import macwilliams
from skewrank.gfcodes import (
    LinearCode,
    WeightDist,
    dual,
    make_field,
    random_code,
    weight_distribution,
    zero_code,
)
from skewrank.macwilliams import (
    _functional_row,
    _transform_basis,
    transform_functional,
    transform_matrix,
    verify_code,
)
from skewrank.homopoly import HPoly, nu_power
from skewrank.lambda_ring import LambdaScalar
from skewrank.moments import check_second_moment, msrd_distribution
from skewrank.qcombinat import SchemeParams, beta, gamma, gauss, xi

P34 = SchemeParams(3, 4)
FIELDS = (2, 3, 4, 5, 7, 8, 9)


class TestTransforms:
    def test_example_distribution(self):
        assert transform_matrix([1, 44, 36], 81, P34).counts == (1, 8, 0)
        assert transform_functional([1, 44, 36], 81, P34).counts == (1, 8, 0)

    def test_zero_code_maps_to_xi_row(self):
        for q, t in ((3, 4), (2, 5)):
            p = SchemeParams(q, t)
            e0 = [1] + [0] * p.n
            want = tuple(xi(p, s) for s in range(p.n + 1))
            assert transform_matrix(e0, 1, p).counts == want
            assert transform_functional(e0, 1, p).counts == want

    def test_full_space_maps_to_zero_code(self):
        for q, t in ((3, 4), (2, 5)):
            p = SchemeParams(q, t)
            row = [xi(p, s) for s in range(p.n + 1)]
            size = q ** (p.m * p.n)
            want = (1,) + (0,) * p.n
            assert transform_matrix(row, size, p).counts == want
            assert transform_functional(row, size, p).counts == want

    def test_involution(self):
        assert transform_functional([1, 8, 0], 9, P34).counts == (1, 44, 36)
        assert transform_matrix([1, 8, 0], 9, P34).counts == (1, 44, 36)

    @pytest.mark.parametrize("q", FIELDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_transform_twice_is_identity(self, q, data):
        # |C| then q^N / |C|: an MSRD distribution, or the distribution of
        # a random code of at most 1000 words, which builds no large table
        if data.draw(st.booleans(), label="msrd"):
            p = SchemeParams(q, data.draw(st.integers(2, 11), label="t"))
            w = msrd_distribution(p, data.draw(st.integers(1, p.n + 1),
                                               label="d"))
        else:
            p = SchemeParams(q, data.draw(st.integers(2, 5), label="t"))
            k = data.draw(st.integers(0, p.num_coords)
                          .filter(lambda k: q**k <= 1000), label="k")
            rng = data.draw(st.randoms(use_true_random=False))
            w = weight_distribution(random_code(p, make_field(q), k, rng))
        whole = q**p.num_coords
        for transform in (transform_matrix, transform_functional):
            back = transform(transform(w, w.size, p), whole // w.size, p)
            assert back.counts == w.counts

    def test_routes_agree_on_arbitrary_distributions(self):
        # the identity is linear, realizable or not
        rng = random.Random(32)
        for q, t in ((2, 4), (3, 4), (2, 5), (2, 6), (3, 5)):
            p = SchemeParams(q, t)
            for _ in range(10):
                counts = [rng.randint(0, 50) for _ in range(p.n + 1)]
                size = sum(counts)
                if size == 0:
                    continue
                a = [x for x in p_transform_pair(counts, size, p)]
                assert a[0] == a[1]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            transform_matrix([1, 44, 36], 82, P34)
        with pytest.raises(ValueError, match="sums to"):
            transform_functional([1, 0, 0], 3, P34)

    def test_non_integral_output_rejected(self):
        # (1,1,0) with |C| = 2 cannot be a code distribution over (3,4)
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            transform_matrix([1, 1, 0], 2, P34)

    @pytest.mark.parametrize("transform", [transform_matrix, transform_functional])
    def test_distribution_of_other_params_rejected(self, transform):
        w = WeightDist(SchemeParams(2, 4), (1, 0, 0))
        with pytest.raises(ValueError, match="distribution and params disagree"):
            transform(w, 1, P34)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="need 3 counts, got 2"):
            transform_matrix([1, 0], 1, P34)

    @pytest.mark.parametrize("transform", [transform_matrix, transform_functional])
    @pytest.mark.parametrize("counts, size, message", [
        ([-81, 0, 0], -81, "code size -81 is not positive"),
        ([2, -1, 0], 1, "negative count"),
        ([0, 0, 0], 0, "code size 0 is not positive"),
    ])
    def test_impossible_input_rejected(self, transform, counts, size, message):
        with pytest.raises(ValueError, match=message):
            transform(counts, size, P34)


P24 = SchemeParams(2, 4)
P25 = SchemeParams(2, 5)


# a non-int is refused where it enters, never coerced or carried into an
# exact result
@pytest.mark.parametrize("build, message", [
    (lambda: SchemeParams(2.0, 5), "q=2.0 is not an int"),
    (lambda: SchemeParams(2, 5.0), "t=5.0 is not an int"),
    (lambda: SchemeParams("3", 4), "q='3' is not an int"),
    (lambda: WeightDist(P24, (1, 2.5, 0.5)), "count 2.5 is not an int"),
    (lambda: WeightDist(P24, (1, True, 6)), "count True is not an int"),
    (lambda: transform_matrix([1.9, 1.1, 0], 2, P24), "count 1.9"),
    (lambda: transform_functional([1.9, 1.1, 0], 2, P24), "count 1.9"),
    (lambda: transform_matrix(WeightDist(P24, (1, 0, 7)), 8.0, P24),
     "code_size=8.0 is not an int"),
    (lambda: transform_matrix([1, 0, 0], True, P24),
     "code_size=True is not an int"),
    (lambda: check_second_moment(msrd_distribution(P25, 1),
                                 msrd_distribution(P25, 3), 1, 10.0, P25),
     "k_dim=10.0 is not an int"),
    (lambda: check_second_moment(msrd_distribution(P25, 1),
                                 msrd_distribution(P25, 3), 1, True, P25),
     "k_dim=True is not an int"),
    (lambda: LinearCode.from_rows(P24, make_field(2), [(True, 0, 0, 0, 0, 1)]),
     "entries must be ints"),
    (lambda: gauss(2.0, 3, 1), "q=2.0 is not an int"),
    (lambda: gamma(2.0, 3, 1), "q=2.0 is not an int"),
    (lambda: beta(2.0, 3, 1), "q=2.0 is not an int"),
    (lambda: gauss(2, 3.0, 1), "x=3.0 is not an int"),
    (lambda: gauss(2, 3, 1.0), "k=1.0 is not an int"),
    (lambda: gamma(2, 3.0, 1), "x=3.0 is not an int"),
    (lambda: gamma(2, 3, True), "k=True is not an int"),
    (lambda: beta(2, True, 1), "x=True is not an int"),
    (lambda: beta(2, 3, 2.0), "k=2.0 is not an int"),
    (lambda: LambdaScalar(2.0, {1: 1}), "q=2.0 is not an int"),
    (lambda: LambdaScalar.constant(2.0, 1), "q=2.0 is not an int"),
    (lambda: LambdaScalar.zero(2.0), "q=2.0 is not an int"),
    (lambda: LambdaScalar.one(True), "q=True is not an int"),
    (lambda: LambdaScalar.q_lambda(2.0), "q=2.0 is not an int"),
    (lambda: HPoly(2.0, [1, 1]), "q=2.0 is not an int"),
    (lambda: nu_power(2.0, 2), "q=2.0 is not an int"),
], ids=["float-q", "float-t", "str-q", "float-count", "bool-count",
        "float-list-matrix", "float-list-functional", "float-code-size",
        "bool-code-size", "float-k-dim", "bool-k-dim", "bool-entry",
        "float-q-gauss", "float-q-gamma", "float-q-beta",
        "float-x-gauss", "float-k-gauss", "float-x-gamma", "bool-k-gamma",
        "bool-x-beta", "float-k-beta",
        "float-q-lambda-scalar", "float-q-constant", "float-q-zero",
        "bool-q-one", "float-q-q-lambda", "float-q-hpoly",
        "float-q-nu-power"])
def test_non_integers_refused(build, message):
    with pytest.raises(TypeError, match=message):
        build()


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_three_way_agreement_on_larger_fields(q):
    # k = 3 at t = 4 leaves a 3-dimensional dual: q^3 words a side
    p = SchemeParams(q, 4)
    rng = random.Random(q)
    for _ in range(3):
        rep = verify_code(random_code(p, make_field(q), 3, rng))
        assert rep.dual_k == 3
        assert rep.verdict, rep.mismatches
        assert rep.dual_dist_enum.counts == rep.dual_dist_matrix.counts
        assert rep.dual_dist_enum.counts == rep.dual_dist_functional.counts


@pytest.mark.parametrize("q", FIELDS)
def test_routes_agree_on_msrd_past_the_sweep(q):
    # past the benchmark's t <= 15, both routes in ints on every MSRD
    # distribution, and the raw vectors agree with the Fraction oracle
    for t in range(16, 25):
        p = SchemeParams(q, t)
        for d in range(1, p.n + 2):
            w = msrd_distribution(p, d)
            fun = transform_functional(w, w.size, p)
            assert fun == transform_matrix(w, w.size, p), (t, d)
            assert fun == msrd_distribution(p, p.n - d + 2), (t, d)
            if t == 24:
                raw_matrix, raw_fun = p_transform_pair(w.counts, w.size, p)
                assert raw_matrix == raw_fun, d


def fractions_made(run):
    """How many Fraction objects run() creates, counted by cProfile."""
    prof = cProfile.Profile()
    prof.runcall(run)
    return sum(
        calls
        for (path, _, name), (_, calls, *_) in pstats.Stats(prof).stats.items()
        if name == "__new__" and path.endswith("fractions.py")
    )


def test_transform_basis_is_built_in_ints():
    # the functional route's basis is built without a single Fraction; the
    # counter itself is checked on a region that makes exactly one
    assert fractions_made(lambda: Fraction(1, 3)) == 1

    def build():
        for q in (2, 3):
            for i in range(13):
                _transform_basis(q, 12, i)

    assert fractions_made(build) == 0


def test_cold_functional_route_at_t40():
    # a cold basis build at (2,40) gives the eigenmatrix route's answer
    # and the MSRD dual of a d = 5 MSRD code, the (n - d + 2)-MSRD one
    p, d = SchemeParams(2, 40), 5
    w = msrd_distribution(p, d)
    _functional_row.cache_clear()
    fun = transform_functional(w, w.size, p)
    assert fun == transform_matrix(w, w.size, p)
    assert fun == msrd_distribution(p, p.n - d + 2)


@pytest.mark.parametrize("q", FIELDS)
def test_cached_rows_are_the_ring_products_at_m(q):
    # a row is built only for an index the distribution uses, and each
    # kept row is its lambda-ring product, built afresh here, read at m
    for t in range(2, 13):
        p = SchemeParams(q, t)
        _functional_row.cache_clear()
        transform_functional([1] + [0] * p.n, 1, p)
        assert _functional_row.cache_info().currsize == 1
        whole = q**p.num_coords
        transform_functional([xi(p, s) for s in range(p.n + 1)], whole, p)
        assert _functional_row.cache_info().currsize == p.n + 1
        for i in range(p.n + 1):
            row = _functional_row(q, p.n, p.m, i)
            basis = _transform_basis(q, p.n, i)
            assert type(row) is tuple
            assert row == tuple(c.eval_lambda(p.m) for c in basis.coeffs)
        # every row read back was a cached one
        assert _functional_row.cache_info().currsize == p.n + 1


def test_row_cache_holds_at_most_its_bound():
    # the full-space distribution uses every row of its scheme
    bound = macwilliams._FUNCTIONAL_ROWS
    primes = [q for q in range(2, 98) if all(q % d for d in range(2, q))]
    schemes = [SchemeParams(q, t) for t in range(2, 14) for q in primes]
    assert sum(p.n + 1 for p in schemes) > bound
    for p in schemes:
        transform_functional([xi(p, s) for s in range(p.n + 1)],
                             p.q**p.num_coords, p)
    assert _functional_row.cache_info().currsize == bound


def p_transform_pair(counts, size, p):
    # the raw vectors before integrality checks must agree, so compare
    # entrywise after scaling by the size; the functional side is summed
    # term by term in Fractions, as an oracle of eval_lambda's int sums
    from skewrank.krawtchouk import p_matrix

    raw_matrix = p_matrix(p).transform(list(counts))
    bases = [_transform_basis(p.q, p.n, i) for i in range(p.n + 1)]
    raw_fun = []
    for k in range(p.n + 1):
        acc = Fraction(0)
        for c, basis in zip(counts, bases):
            acc += c * eval_fraction_sum(basis.coefficient(k), p.m)
        raw_fun.append(acc)
    return raw_matrix, raw_fun


class TestVerify:
    def test_example_report(self, example_code):
        rep = verify_code(example_code)
        assert rep.verdict
        assert rep.dist.counts == (1, 44, 36)
        assert rep.dual_dist_enum.counts == (1, 8, 0)
        assert rep.dual_dist_matrix.counts == (1, 8, 0)
        assert rep.dual_dist_functional.counts == (1, 8, 0)
        assert rep.size_product_ok
        assert rep.mismatches == []
        d = rep.to_dict()
        assert d["verdict"] is True
        assert d["dist"] == ["1", "44", "36"]

    def test_zero_code_trivial(self):
        rep = verify_code(zero_code(P34, make_field(3)))
        assert rep.verdict
        assert rep.dual_dist_enum.counts == tuple(
            xi(P34, s) for s in range(3)
        )

    def test_small_corpus_all_verify(self, small_corpus):
        for entries in small_corpus.values():
            for _, rep in entries:
                assert rep.verdict
                assert rep.size_product_ok

    def test_dual_route_is_dual_weights(self, small_corpus):
        for (q, t), entries in small_corpus.items():
            for code, rep in entries:
                assert rep.dual_dist_enum.counts == weight_distribution(
                    dual(code)
                ).counts
