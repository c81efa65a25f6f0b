import hashlib
import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from conftest import SUPPORTED_Q
from skewrank import gfcodes
from skewrank.gfcodes import (
    WeightDist,
    dual,
    full_space_code,
    make_field,
    min_distance,
    rank_table,
    weight_distribution,
)
from skewrank.macwilliams import verify_code
from skewrank.moments import (
    _sampler,
    check_first_moment,
    check_second_moment,
    corollary_bounds,
    delta_closed,
    epsilon_closed,
    find_msrd,
    forward_sequence,
    invert_sequence,
    is_msrd,
    moment_checks,
    msrd_distribution,
)
from skewrank.qcombinat import SchemeParams, _qpow, gamma, gauss, sigma
from skewrank.selftest import inversion_roundtrip, msrd_formulas, msrd_search

P34 = SchemeParams(3, 4)
P24 = SchemeParams(2, 4)
P25 = SchemeParams(2, 5)

# find_msrd(P25, 2, seed=0)
SEED_0_BASIS = [
    (1, 0, 0, 0, 0, 0, 1, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 1, 0, 0, 0, 1, 0, 1, 1),
    (0, 0, 0, 1, 0, 1, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 1, 0, 1, 1, 0),
]


class TestMomentIdentities:
    def test_example_first_moment(self, example_code):
        rep = verify_code(example_code)
        l, r = check_first_moment(rep.dist, rep.dual_dist_enum, 1, P34)
        assert l == r == 54
        l, r = check_first_moment(rep.dist, rep.dual_dist_enum, 2, P34)
        assert l == r == 1
        l, r = check_first_moment(rep.dist, rep.dual_dist_enum, 0, P34)
        assert l == r == Fraction(3**6, 9)

    def test_example_second_moment(self, example_code):
        rep = verify_code(example_code)
        l, r = check_second_moment(rep.dist, rep.dual_dist_enum, 1, 4, P34)
        assert l == r == 756
        l, r = check_second_moment(rep.dist, rep.dual_dist_enum, 0, 4, P34)
        assert l == r == 81

    def test_moments_on_corpus(self, small_corpus):
        for (q, t), entries in small_corpus.items():
            p = SchemeParams(q, t)
            for code, rep in entries:
                for phi in range(p.n + 1):
                    l1, r1 = check_first_moment(
                        rep.dist, rep.dual_dist_enum, phi, p
                    )
                    assert l1 == r1, (q, t, phi)
                    l2, r2 = check_second_moment(
                        rep.dist, rep.dual_dist_enum, phi, code.k, p
                    )
                    assert l2 == r2, (q, t, phi)

    def test_symmetric_in_dualization(self, small_corpus):
        # the identity applied to the dual pair must hold as well
        for (q, t), entries in small_corpus.items():
            p = SchemeParams(q, t)
            for code, rep in entries:
                for phi in range(p.n + 1):
                    l, r = check_first_moment(
                        rep.dual_dist_enum, rep.dist, phi, p
                    )
                    assert l == r

    def test_domain_errors(self, example_code):
        rep = verify_code(example_code)
        with pytest.raises(ValueError):
            check_first_moment(rep.dist, rep.dual_dist_enum, 3, P34)
        with pytest.raises(ValueError):
            check_second_moment(rep.dist, rep.dual_dist_enum, 1, 3, P34)

    def test_first_moment_refuses_another_scheme(self):
        # 8 * 128 words fill the (2,5) space, so only the params check can
        # refuse these
        w = msrd_distribution(P24, 2)
        other = WeightDist(P25, (1, 0, 127))
        with pytest.raises(ValueError, match="params disagree"):
            check_first_moment(w, other, 1, P25)
        with pytest.raises(ValueError, match="params disagree"):
            check_first_moment(other, w, 1, P25)

    def test_second_moment_refuses_another_scheme(self):
        # the sizes agree here, so only the params check can refuse it
        w = msrd_distribution(P24, 2)
        with pytest.raises(ValueError, match="params disagree"):
            check_second_moment(w, w, 1, 3, P25)
        with pytest.raises(ValueError, match="params disagree"):
            check_second_moment(msrd_distribution(P25, 2), w, 1, 5, P25)

    def test_second_moment_refuses_a_pair_overfilling_the_space(self):
        # 32 * 128 words are four times the (2,5) space; |C| = 2^5 holds
        w, w_dual = msrd_distribution(P25, 2), WeightDist(P25, (1, 0, 127))
        with pytest.raises(ValueError, match="sizes do not multiply"):
            check_second_moment(w, w_dual, 1, 5, P25)
        with pytest.raises(ValueError, match="sizes do not multiply"):
            moment_checks(w, w_dual, 5, range(P25.n + 1), P25)


class TestMomentChecks:
    def test_identities_then_corollaries_at_the_given_phis(self, example_code):
        rep = verify_code(example_code)
        # the dual (1, 8, 0) has d' = diam' = 1: no corollary at phi = 1
        checks = moment_checks(rep.dist, rep.dual_dist_enum, 4, [2, 0], P34)
        assert [(c.name, c.phi) for c in checks] == [
            ("first_moment", 2), ("second_moment", 2),
            ("first_moment", 0), ("second_moment", 0),
            ("first_moment_low_phi", 0), ("second_moment_low_phi", 0),
            ("second_moment_high_phi", 2),
        ]
        assert all(c.ok for c in checks)

    def test_phis_are_read_once(self, example_code):
        rep = verify_code(example_code)
        args = rep.dist, rep.dual_dist_enum, 4
        assert moment_checks(*args, iter(range(3)), P34) == moment_checks(
            *args, range(3), P34
        )

    # a field of every kind the enumerators treat apart: q = 4 with a rank
    # table up to (4,5), byte lanes at (5,5), and odd and even q up to 9
    @pytest.mark.parametrize(
        "q, t", [(4, 4), (5, 4), (7, 4), (8, 4), (9, 4), (4, 5), (5, 5)]
    )
    def test_every_supported_field(self, q, t):
        p = SchemeParams(q, t)
        field = make_field(q)
        rng = random.Random(100 * q + t)
        nc = p.num_coords
        # both sides of a few thousand words at most
        dims = [k for k in range(nc + 1) if max(q**k, q ** (nc - k)) <= 5000]
        for _ in range(3):
            code = gfcodes.random_code(p, field, rng.choice(dims), rng)
            w, w_dual = weight_distribution(code), weight_distribution(dual(code))
            checks = moment_checks(w, w_dual, code.k, range(p.n + 1), p)
            assert len(checks) > 2 * (p.n + 1)
            for chk in checks:
                assert chk.ok, (q, t, code.k, chk)


class TestCorollaries:
    def test_full_space_vacuous_dual(self):
        f = make_field(3)
        w = weight_distribution(full_space_code(P34, f))
        checks = corollary_bounds(w, P34, None, 0)
        assert checks and all(c.ok for c in checks)

    def test_refuses_another_scheme(self):
        w = msrd_distribution(P24, 2)
        with pytest.raises(ValueError, match="params disagree"):
            corollary_bounds(w, P25, 2, 2)

    @pytest.mark.parametrize("counts", [(1, 0, 2), (1, 0, 127)])
    def test_refuses_a_size_not_a_subspace(self, counts):
        # 3 words are no power of 2; 2^7 words overfill the 2^6 space
        with pytest.raises(ValueError, match="is not q\\^k for any k <= 6"):
            corollary_bounds(WeightDist(P24, counts), P24, None, 0)

    def test_msrd_code_corollaries(self):
        code = find_msrd(P25, 2, seed=3)
        assert code is not None
        w = weight_distribution(code)
        d_dual = min_distance(dual(code))
        diam = max(
            i for i, c in enumerate(weight_distribution(dual(code)).counts) if c
        )
        checks = corollary_bounds(w, P25, d_dual, diam)
        assert checks and all(c.ok for c in checks)

    def test_random_codes_corollaries(self, small_corpus):
        for (q, t), entries in small_corpus.items():
            p = SchemeParams(q, t)
            for code, rep in entries:
                ddist = rep.dual_dist_enum.counts
                d_dual = next(
                    (i for i in range(1, p.n + 1) if ddist[i]), None
                )
                diam = max(i for i, c in enumerate(ddist) if c)
                checks = corollary_bounds(rep.dist, p, d_dual, diam)
                for chk in checks:
                    assert chk.ok, (q, t, chk)


def fraction_gamma(q, x, k):
    """prod_{l<k} (q^x - q^{2l}) as a Fraction product."""
    out = Fraction(1)
    for l in range(k):
        out *= Fraction(q) ** x - q ** (2 * l)
    return out


class TestClosedFormLemmas:
    # the grids, phi <= 6 and lambda <= 12, run in acceptance criterion 5

    def test_delta_examples(self):
        assert delta_closed(3, 5, 2, 0) == gamma(3, 5, 2)
        delta_closed(2, 6, 2, 1)
        delta_closed(3, 3, 1, 1)

    def test_delta_above_phi_vanishes(self):
        # gamma(2 phi, j) = 0 for j > phi kills the closed form
        for q in (2, 3):
            for phi in range(3):
                for j in range(phi + 1, phi + 3):
                    assert delta_closed(q, 8, phi, j) == 0

    def test_epsilon_initial(self):
        assert epsilon_closed(2, 4, 2, 0) == gauss(2, 4, 2)
        assert epsilon_closed(3, 3, 3, 2) == (-1) ** 2 * 3 ** (2 * 1) * gauss(
            3, 1, 0
        )

    @pytest.mark.parametrize("q", (2, 3, 4, 5))
    def test_delta_where_exponents_go_negative(self, q):
        # below lam = 2j, gamma(lam - 2i, phi) is a Fraction: the int sum
        # over q^{e phi} must give the Fraction sum of the same terms
        fractional = 0
        for phi in range(5):
            for j in range(phi + 1):
                for lam in range(-3, 2 * j):
                    want = sum(
                        (gauss(q, j, i) * (-1) ** i * q ** (2 * sigma(i))
                         * fraction_gamma(q, lam - 2 * i, phi)
                         for i in range(j + 1)),
                        Fraction(0),
                    )
                    got = delta_closed(q, lam, phi, j)
                    assert got == want, (phi, j, lam)
                    assert (type(got) is int) == (want.denominator == 1)
                    fractional += want.denominator != 1
        assert fractional

    @pytest.mark.parametrize("q", (2, 3, 4, 5))
    def test_epsilon_where_exponents_go_negative(self, q):
        # below lam_big = phi, the weight q^{2l(lam_big - phi)} is a Fraction
        for phi in range(6):
            for i in range(phi + 1):
                for lam_big in range(i, phi + 2):
                    want = sum(
                        (gauss(q, i, l) * gauss(q, lam_big - i, phi - l)
                         * Fraction(q) ** (2 * l * (lam_big - phi))
                         * (-1) ** l * q ** (2 * sigma(l))
                         * gamma(q, 2 * (phi - l), i - l)
                         for l in range(i + 1) if l <= phi),
                        Fraction(0),
                    )
                    got = epsilon_closed(q, lam_big, phi, i)
                    assert got == want, (phi, i, lam_big)
                    assert type(got) is int

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_closed(2, 4, -1, 0)
        with pytest.raises(ValueError):
            epsilon_closed(2, 4, 1, -2)

    @pytest.mark.parametrize("lam_big, phi, i", [(1, 1, 2), (0, 2, 1)])
    def test_epsilon_below_its_lemma(self, lam_big, phi, i):
        # the closed form needs lam_big >= i; below it the sum and the
        # closed form differ, which is bad input, not a failed identity
        with pytest.raises(ValueError, match=f"lam_big={lam_big} must be >= i={i}"):
            epsilon_closed(2, lam_big, phi, i)


class TestInversion:
    def test_round_trip_random(self):
        rng = random.Random(17)
        cases = []
        for _ in range(25):
            q = rng.choice((2, 3))
            l = rng.randint(0, 6)
            b = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                for _ in range(l + 1)
            ]
            cases.append((q, b))
        assert inversion_roundtrip(cases) == 25

    def test_unit_vector(self):
        e0 = [Fraction(1), Fraction(0), Fraction(0)]
        a = forward_sequence(e0, 2, 3)
        assert invert_sequence(a, 2, 3) == e0

    def test_msrd_derivation_3_4_1(self):
        # inverting the simplified first moments recovers the forced counts
        l = P34.n - 1
        a = [
            gauss(3, P34.n, P34.n - 1 - j)
            * (Fraction(3) ** (P34.m * (1 + j)) - 1)
            for j in range(l + 1)
        ]
        b = invert_sequence(a, l, 3)
        assert b == [260, 468]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            invert_sequence([Fraction(1)], 3, 2)

    def test_round_trip_in_ints(self):
        rng = random.Random(19)
        for q in (2, 3, 4, 5, 7, 8, 9):
            for l in range(9):
                a = [rng.randint(-10**6, 10**6) for _ in range(l + 1)]
                b = invert_sequence(a, l, q)
                assert all(type(v) is int for v in b)
                back = forward_sequence(b, l, q)
                assert all(type(v) is int for v in back)
                assert back == a


def _msrd_double_sum(params, d):
    """The forced counts as the explicit double sum
    c_{d+r} = sum_{i<=r} (-1)^{r-i} q^{2 sigma_{r-i}} [d+r, d+i] [n, d+r]
              (|C| q^{m(d+i-n)} - 1),
    the triangular inversion written out by hand."""
    q, n, m = params.q, params.n, params.m
    size = q ** (m * (n - d + 1))
    counts = [1] + [0] * n
    for r in range(n - d + 1):
        counts[d + r] = sum(
            (
                (-1) ** (r - i)
                * q ** (2 * sigma(r - i))
                * gauss(q, d + r, d + i)
                * gauss(q, n, d + r)
                * (size * _qpow(q, m * (d + i - n)) - 1)
                for i in range(r + 1)
            ),
            Fraction(0),
        )
    return tuple(counts)


class TestMsrdDistribution:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_matches_double_sum(self, q):
        for t in range(2, 17):
            p = SchemeParams(q, t)
            for d in range(1, p.n + 2):
                assert msrd_distribution(p, d).counts == _msrd_double_sum(p, d), (
                    q, t, d
                )

    def test_d1_is_omega(self):
        assert msrd_formulas({(3, 4, 1): (1, 260, 468)}) == 1

    def test_2_4_2(self):
        assert msrd_formulas({(2, 4, 2): (1, 0, 7)}) == 1

    def test_2_5_2(self):
        assert msrd_formulas({(2, 5, 2): (1, 0, 31)}) == 1

    def test_sum_is_singleton_size(self):
        for q, t in ((2, 4), (2, 5), (3, 4), (3, 5), (2, 6)):
            p = SchemeParams(q, t)
            for d in range(1, p.n + 2):
                dist = msrd_distribution(p, d)
                assert dist.size == q ** (p.m * (p.n - d + 1))
                assert dist.counts[0] == 1
                assert all(dist.counts[i] == 0 for i in range(1, min(d, p.n + 1)))

    def test_zero_dual_edge(self):
        dist = msrd_distribution(P34, P34.n + 1)
        assert dist.counts == (1, 0, 0)

    # sha256 of the lines "q t d counts" over q in FIELDS, t = 2..20 and
    # d = 1..n+1, as the Fraction inversion computed them
    PINNED_DIGEST = (
        "c12fba9150efc2dec85f751131b1fecaaf199a39155724ce64559c12d60b2646"
    )

    def test_pinned_digest(self):
        h = hashlib.sha256()
        for q in (2, 3, 4, 5, 7, 8, 9):
            for t in range(2, 21):
                p = SchemeParams(q, t)
                for d in range(1, p.n + 2):
                    counts = msrd_distribution(p, d).counts
                    assert all(type(c) is int for c in counts)
                    h.update(f"{q} {t} {d} {counts}\n".encode())
        assert h.hexdigest() == self.PINNED_DIGEST

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            msrd_distribution(P34, 0)
        with pytest.raises(ValueError):
            msrd_distribution(P34, 4)

    def test_pair_satisfies_moments(self):
        # the forced distribution and its dual's forced distribution are
        # consistent with both moment identities
        for q, t, d in ((2, 5, 2), (3, 4, 1), (2, 4, 1), (3, 5, 2)):
            p = SchemeParams(q, t)
            w = msrd_distribution(p, d)
            w_dual = msrd_distribution(p, p.n - d + 2)
            k_dim = p.m * (p.n - d + 1)
            for phi in range(p.n + 1):
                l1, r1 = check_first_moment(w, w_dual, phi, p)
                assert l1 == r1
                l2, r2 = check_second_moment(w, w_dual, phi, k_dim, p)
                assert l2 == r2


class TestFindMsrd:
    def test_d1_returns_full_space(self):
        code = find_msrd(P34, 1)
        assert code is not None
        assert code.k == P34.num_coords

    def test_2_5_2_found_and_matches_formula(self):
        assert msrd_search(P25, (2,), seed=0) == 1
        code = find_msrd(P25, 2, seed=0)
        assert code.k == 5
        assert min_distance(code) == 2
        assert is_msrd(code)

    def test_dual_msrd_theorem_on_found_code(self):
        code = find_msrd(P25, 2, seed=1)
        assert code is not None
        d = dual(code)
        assert min_distance(d) == P25.n - 2 + 2
        assert is_msrd(d)
        assert weight_distribution(d).counts == msrd_distribution(
            P25, P25.n - 2 + 2
        ).counts

    def test_determinism(self):
        a = find_msrd(P25, 2, seed=7)
        b = find_msrd(P25, 2, seed=7)
        assert a is not None and b is not None
        assert a.basis_rows() == b.basis_rows()

    def test_seed_0_basis_is_pinned(self):
        # any change to the search's RNG draws or word order shows here
        assert find_msrd(P25, 2, seed=0).basis_rows() == SEED_0_BASIS

    # and 16, 25, 27 and 32, which need an explicit modulus; the sampler
    # reads q alone
    @pytest.mark.parametrize("q", SUPPORTED_Q + [16, 25, 27, 32])
    def test_sampler_draws_what_randrange_draws(self, q):
        # the search's entries follow randrange's rejection rule, so a seed
        # gives the same candidates as rng.randrange(q) entry by entry: in
        # one long run, in the candidate-sized pieces the search asks for,
        # and on past at least three refills of the sampler's bulk draws,
        # with pieces that straddle the refills
        sizes = (1, 3, 6, 10, 15, 21, 28)
        for seed in (0, 1, 7):
            refills = []

            class Counted(random.Random):
                def getrandbits(self, k):
                    refills.append(k)
                    return super().getrandbits(k)

            sample, rng = _sampler(Counted(seed), q), random.Random(seed)
            got = sample(1000) + b"".join(sample(k) for k in sizes[:5])
            assert got == bytes(rng.randrange(q) for _ in range(1035)), seed
            # edges[j], the entries the first j + 1 refills hold, counted
            # from the raw 32-bit outputs: a piece across one straddles a refill
            words, bits, raw = refills[0] // 32, q.bit_length(), random.Random(seed)
            edges = list(accumulate(
                sum(raw.getrandbits(32) >> 32 - bits < q for _ in range(words))
                for _ in range(8)))
            straddled = 0
            while straddled < 3 and len(got) < edges[-1]:
                start = len(got)
                got += sample(sizes[start % len(sizes)])
                straddled += sum(start < e < len(got) for e in edges)
            assert straddled == 3 and len(refills) >= 4, seed
            got += sample(10**4)
            assert got == got[:1035] + bytes(
                rng.randrange(q) for _ in range(len(got) - 1035)), seed

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            find_msrd(P24, 3)

    def test_target_above_the_enumeration_budget(self):
        # (2,8), d = 1 targets the whole space, 2^28 words
        with pytest.raises(gfcodes.EnumerationBudgetError, match="q\\^28"):
            find_msrd(SchemeParams(2, 8), 1)

    def test_zero_code_is_msrd(self):
        assert is_msrd(gfcodes.zero_code(P34, make_field(3))) is True

    # (q, t, d, seed, budget) -> digest of basis_rows(), or None when the
    # budget runs out; recorded from the search that kept the whole span as
    # a list of tuples, so these fix its RNG draws and accept decisions.
    PINNED_TABLED = {
        (2, 4, 2, 0, 300): None,
        (2, 4, 2, 0, 2000): None,
        (3, 4, 2, 0, 300): None,
        (3, 4, 2, 0, 2000): None,
        (3, 5, 2, 0, 300): None,
        (3, 5, 2, 0, 2000): None,
        (3, 5, 2, 0, 20000): "f087a4079badaff2",
        (3, 5, 2, 1, 2000): "e16cd6490ff5636f",
        (3, 5, 2, 2, 2000): "b8b2e5b27c519d39",
        (4, 4, 2, 0, 300): None,
        (4, 4, 2, 0, 2000): None,
        (5, 4, 2, 0, 300): None,
        (2, 6, 2, 0, 300): None,
        (2, 6, 2, 0, 2000): None,
        # recorded later, from the tabled search; the lane search agrees
        (2, 6, 3, 0, 300): None,
        (2, 6, 3, 0, 2000): None,
        (2, 5, 2, 0, 20000): "bfb706ac907b6ef3",
        (2, 5, 2, 1, 20000): "0d425264aa4dc3b9",
        (2, 5, 2, 2, 20000): "3c835afa3a19119b",
        (2, 5, 2, 3, 20000): "ee6b5dcb8c8681d4",
        (2, 5, 2, 4, 20000): "8c94a3fa8a8d2556",
        (2, 5, 2, 5, 20000): "65550327e611178b",
        (2, 5, 2, 6, 20000): "1767b6bc31a8f0b0",
        (2, 5, 2, 7, 20000): "cc81c8ddac998029",
    }
    PINNED_UNTABLED = {
        (2, 5, 2, 0, 20000): "bfb706ac907b6ef3",
        (2, 5, 2, 1, 20000): "0d425264aa4dc3b9",
        (2, 5, 2, 2, 20000): "3c835afa3a19119b",
        (2, 5, 2, 3, 20000): "ee6b5dcb8c8681d4",
        (2, 5, 2, 4, 20000): "8c94a3fa8a8d2556",
        (2, 5, 2, 5, 20000): "65550327e611178b",
        (2, 5, 2, 6, 20000): "1767b6bc31a8f0b0",
        (2, 5, 2, 7, 20000): "cc81c8ddac998029",
        (2, 7, 3, 0, 300): None,
        (2, 7, 3, 0, 2000): None,
        (2, 8, 3, 0, 300): None,
        (3, 5, 2, 2, 2000): "b8b2e5b27c519d39",
        (4, 5, 2, 1, 2000): "954270220345f4c6",
        (8, 4, 2, 0, 300): None,
        (9, 4, 2, 0, 300): None,
        # no (17,4,2) code exists, by Chevalley-Warning as at (2,4,2)
        (17, 4, 2, 0, 300): None,
    }

    @staticmethod
    def _digest(code):
        if code is None:
            return None
        return hashlib.sha256(repr(code.basis_rows()).encode()).hexdigest()[:16]

    @pytest.mark.parametrize("case", sorted(PINNED_TABLED))
    def test_pinned_results(self, case):
        q, t, d, seed, budget = case
        code = find_msrd(SchemeParams(q, t), d, budget=budget, seed=seed)
        assert self._digest(code) == self.PINNED_TABLED[case]

    @pytest.mark.parametrize("case", sorted(PINNED_UNTABLED))
    def test_pinned_results_without_table(self, monkeypatch, case):
        monkeypatch.setattr(gfcodes, "_RANK_TABLE_CAP", 0)
        monkeypatch.setattr(gfcodes, "_RANK_TABLES", {})
        q, t, d, seed, budget = case
        code = find_msrd(SchemeParams(q, t), d, budget=budget, seed=seed)
        assert self._digest(code) == self.PINNED_UNTABLED[case]

    def test_seed_0_basis_without_table(self, no_tables):
        # the search ranks in lanes and keeps the tabled search's basis
        assert rank_table(P25, make_field(2)) is None
        assert find_msrd(P25, 2, seed=0).basis_rows() == SEED_0_BASIS

    def test_q2_with_table_tests_one_bit_per_candidate(self, monkeypatch):
        # at q = 2 with a table a candidate is one bit of the forbidden set:
        # no coset is walked and no lane block ranked.  The one _RowWalk is
        # the closing min_distance check's, over the found code.  The table
        # is built first, since its build ranks the space in bit lanes.
        assert rank_table(P25, make_field(2)) is not None
        walks, pivots = [], []
        real_init, real_pivots = gfcodes._RowWalk.__init__, gfcodes._lane_pivots

        def counted_init(walk, params, field, tbl, rows):
            walks.append(list(rows))
            real_init(walk, params, field, tbl, rows)

        def counted_pivots(*args):
            pivots.append(args)
            return real_pivots(*args)

        monkeypatch.setattr(gfcodes._RowWalk, "__init__", counted_init)
        monkeypatch.setattr(gfcodes._RowWalk, "coset",
                            lambda *args: pytest.fail("_RowWalk.coset"))
        monkeypatch.setattr(gfcodes, "_lane_pivots", counted_pivots)
        code = find_msrd(P25, 2, seed=0)
        assert code.basis_rows() == SEED_0_BASIS
        assert walks == [code.basis_rows()]
        assert pivots == []

    @pytest.mark.parametrize("case", [(2, 5, 2, 0, 20000), (2, 8, 3, 0, 300)])
    def test_q2_without_table_ranks_no_word_alone(self, monkeypatch, case):
        # above the cap every q = 2 coset is ranked in lane blocks
        monkeypatch.setattr(gfcodes, "_RANK_TABLE_CAP", 0)
        monkeypatch.setattr(gfcodes, "_RANK_TABLES", {})
        monkeypatch.setattr(gfcodes, "_alt_rank",
                            lambda *args: pytest.fail("_alt_rank"))
        monkeypatch.setattr(gfcodes, "_word_blocks",
                            lambda *args: pytest.fail("_word_blocks"))
        q, t, d, seed, budget = case
        code = find_msrd(SchemeParams(q, t), d, budget=budget, seed=seed)
        assert self._digest(code) == self.PINNED_UNTABLED[case]

    @pytest.mark.parametrize("case", [(3, 5, 2, 2, 2000), (4, 5, 2, 1, 2000),
                                      (8, 4, 2, 0, 300), (9, 4, 2, 0, 300)])
    def test_byte_lanes_without_table_rank_no_word_alone(self, monkeypatch,
                                                         case):
        # above the cap every 2 < q <= 16 coset is ranked in byte-lane blocks
        monkeypatch.setattr(gfcodes, "_RANK_TABLE_CAP", 0)
        monkeypatch.setattr(gfcodes, "_RANK_TABLES", {})
        monkeypatch.setattr(gfcodes, "_alt_rank",
                            lambda *args: pytest.fail("_alt_rank"))
        monkeypatch.setattr(gfcodes, "_word_blocks",
                            lambda *args: pytest.fail("_word_blocks"))
        q, t, d, seed, budget = case
        code = find_msrd(SchemeParams(q, t), d, budget=budget, seed=seed)
        assert self._digest(code) == self.PINNED_UNTABLED[case]

    def test_q17_without_table_ranks_word_by_word(self, monkeypatch):
        # above the cap every q >= 17 coset is ranked a word at a time by
        # _alt_rank, none in lanes
        monkeypatch.setattr(gfcodes, "_RANK_TABLE_CAP", 0)
        monkeypatch.setattr(gfcodes, "_RANK_TABLES", {})
        for lanes in ("_bit_blocks", "_byte_blocks"):
            monkeypatch.setattr(gfcodes, lanes,
                                lambda *args, name=lanes: pytest.fail(name))
        calls, real = 0, gfcodes._alt_rank

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(gfcodes, "_alt_rank", counted)
        case = (17, 4, 2, 0, 300)
        q, t, d, seed, budget = case
        code = find_msrd(SchemeParams(q, t), d, budget=budget, seed=seed)
        assert self._digest(code) == self.PINNED_UNTABLED[case]
        assert calls > 0

    def test_budget_exhaustion_returns_none(self):
        assert find_msrd(P24, 2, budget=400, seed=0) is None

    @pytest.mark.parametrize("mode", ["table", "no-table"])
    def test_each_walk_ranks_one_coset(self, monkeypatch, mode):
        # cand + span(basis): at most q^|basis| words, not the grown span;
        # without a table every q here counts the words of its lane blocks,
        # and with one (2,5) walks none, its test being one bit per word
        walks = []
        monkeypatch.setattr(gfcodes, "_word_blocks",
                            lambda *args: pytest.fail("_word_blocks"))
        if mode == "no-table":
            monkeypatch.setattr(gfcodes, "_RANK_TABLE_CAP", 0)
            monkeypatch.setattr(gfcodes, "_RANK_TABLES", {})
            real_lanes = gfcodes._lane_blocks

            def counted_lanes(params, field, rows, start):
                walks.append([field.q ** len(rows), 0])
                for block in real_lanes(params, field, rows, start):
                    walks[-1][1] += sum(block)
                    yield block

            monkeypatch.setattr(gfcodes, "_lane_blocks", counted_lanes)
        else:
            real = gfcodes._RowWalk.coset

            def counted(walk, cand):
                # q^dim(outer) = p^len(vectors) and q^dim(C_in) = len(x)
                walks.append([walk.p ** len(walk.vectors) * len(walk.x), 0])
                for batch in real(walk, cand):
                    walks[-1][1] += len(batch)
                    yield batch

            monkeypatch.setattr(gfcodes._RowWalk, "coset", counted)
        for q, t in ((2, 5), (3, 4), (4, 4)):
            find_msrd(SchemeParams(q, t), 2, budget=300, seed=3)
        assert len(walks) > 100
        assert all(0 < ranked <= bound for bound, ranked in walks)
        assert any(ranked == bound > 1 for bound, ranked in walks)


class TestMsrd242Nonexistence:
    def test_exhaustive_proof(self):
        """No 3-dim binary code at t=4 has all nonzero words of skew rank 2.

        Every nonzero word must avoid the quadric of singular matrices, but a
        quadratic form in three or more variables over a finite field always
        has a nontrivial zero, so some word drops rank.  Checked here by
        exhausting all 1395 three-dimensional subspaces.
        """
        f = make_field(2)
        tbl = rank_table(P24, f)
        assert tbl is not None
        nonzero = list(range(1, 64))
        seen = set()
        all_rank2 = 0
        for a, b in combinations(nonzero, 2):
            ab = a ^ b
            for c in nonzero:
                if c in (a, b, ab):
                    continue
                words = (a, b, c, ab, a ^ c, b ^ c, ab ^ c)
                key = frozenset(words)
                if key in seen:
                    continue
                seen.add(key)
                if all(tbl[w] == 2 for w in words):
                    all_rank2 += 1
        assert len(seen) == 1395
        assert all_rank2 == 0
