import hashlib
import itertools
import random
import tracemalloc
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE_PAIRS, EXAMPLE_CODE_ROWS, SUPPORTED_Q
from skewrank.gfcodes import (
    CodeFormatError,
    EnumerationBudgetError,
    FieldSpec,
    LinearCode,
    SkewMat,
    WeightDist,
    canonical_decompose,
    diameter,
    dual,
    full_space_code,
    make_field,
    min_distance,
    parse_code,
    random_code,
    rank_census,
    rank_table,
    serialize_code,
    skew_rank,
    upper_positions,
    weight_distribution,
    zero_code,
)
from skewrank.gfcodes import _alt_rank, _build_rank_table, _rank_below, _rref
from skewrank.qcombinat import SchemeParams, factor_prime_power, xi


def column_rank_oracle(mat_rows, field):
    """Independent rank: eliminate on the transpose, count pivots."""
    t = len(mat_rows)
    cols = [[mat_rows[r][c] for r in range(t)] for c in range(t)]
    rank = 0
    for pos in range(t):
        piv = None
        for r in range(rank, t):
            if cols[r][pos]:
                piv = r
                break
        if piv is None:
            continue
        cols[rank], cols[piv] = cols[piv], cols[rank]
        inv = field.inv(cols[rank][pos])
        cols[rank] = [field.mul(inv, v) for v in cols[rank]]
        for r in range(t):
            if r != rank and cols[r][pos]:
                c = cols[r][pos]
                cols[r] = [
                    field.sub(a, field.mul(c, b))
                    for a, b in zip(cols[r], cols[rank])
                ]
        rank += 1
    return rank


def monic_moduli(q):
    """Every monic polynomial of degree e over F_p, q = p^e, low degree first."""
    p, e = factor_prime_power(q)
    return [low + (1,) for low in itertools.product(range(p), repeat=e)]


def irreducible(modulus, p):
    """Brute-force factor search: no monic divisor of degree 1..e//2."""
    e = len(modulus) - 1
    for deg in range(1, e // 2 + 1):
        for low in itertools.product(range(p), repeat=deg):
            div = low + (1,)
            rem = list(modulus)
            for d in range(e, deg - 1, -1):
                c = rem[d]
                for i in range(deg + 1):
                    rem[d - deg + i] = (rem[d - deg + i] - c * div[i]) % p
            if not any(rem[:deg]):
                return False
    return True


def tables(field):
    return repr((field.modulus, field._add, field._mul, field._neg,
                 field._inv))


def outcome(q, modulus):
    """FieldSpec's tables for the modulus, or its error's type and text."""
    try:
        return tables(FieldSpec(q, modulus))
    except ValueError as exc:
        return repr((type(exc).__name__, str(exc)))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# recorded from the construction that built prime and prime-power tables by
# separate branches and checked each modulus by a brute-force factor search
SUPPORTED_DIGESTS = {
    2: "68627bc737e467d8efa13d483093acce9b3f76b21f1d34ac573d833dfbf9dcd0",
    3: "02c6f21b866298ee586fed840820275d1796b62012228e6334b0a49cee8eded0",
    4: "694b96b33000769c2ecf1058600cb7c31f773e13f53dfdf3750d72ca80d599e5",
    5: "166bf5c41917430206d49681ba830d6cffbeb8629ca58ed25911e1988e8f7d26",
    7: "e35ca76cff2886caeaccae750814147cad41ba45d0ec55ac93837d0ef88652f8",
    8: "f3a40bfb3797bfa794a7057fb37e0aae580c37d1821ca96adef208af92138942",
    9: "71c9c180ccdf33d44044720157cb7abe7aac721e5c67506ee783caa4e07e16e3",
    11: "592184b3749e91a963b7584d72979bc1a6c1a3402740bf371e111d647eef6bc8",
    13: "3a69235ae92a685e5432f25cf04176c0312e1f0e5a4cb0592c5d021bc19b7cf1",
    17: "05605313e1ed6c8fde3b488ba1c1011c040fdd01c416def140d652ea05135142",
    19: "90e8dc2a91115314be48c6fa1397a1ce40b132127acda638efff00644952846d",
    23: "744afab976534d54234df497e1d31cedf81878c7b956b7921f323ad82936bcce",
    29: "bdb4b6b2960071284e9d9f5b921fd31ecf741eeb3d098baffab9e2003a30ec09",
    31: "5e89669b8980f16eddead828ab54aa2d29b0c2009419cc4cad13ac51cc604ae2",
    37: "ba6964eccfe925f183c7c092a04dc559cafe966652e8a8862aaf23c19f2c1bcb",
    41: "6149072afb6a37878d6aef2b7043fb6a530646786ce140e77203ea8bb2790843",
    43: "b79dd04899f094653f5b182348ec12ab578c7d60d42d1cb3b9d6590946593386",
    47: "c5b83e1d80331150148fbb94fff00186fd584e2c0cf1f8925da9123d386f0129",
    53: "7007908946efea41cb4c3f90e49dccc0ed200c87e0951eac41481874f5223b4d",
    59: "cdc3aaad097ad99380a19e14539b7a37f2c0c46f60e05706ae6aee33bd9ddc29",
    61: "bff902e55ee8f25c0a6426267a9b1c652cbecaa7399acbf540ca6ca08d68e2e1",
    67: "82519bcae0f471d650f455c2b37e131fef9630834f41500f1cb872d16f9e7a72",
    71: "b187e8c5135cf17120ee06174b28db6a3b96981143dcdd0d2cfcaf45a94a6efb",
    73: "97394ffd7ac4e786e69797ce2b267b464dd603411234ca4fec30b4f72ced6bfd",
    79: "a850f03397891b0ea6ca0a45a96360b037e8609f024ffc2175c2dc7585f29b01",
    83: "b5a710bd06c98e7f478a529a92c75d9d260e7f0ca1f1ff15db1d271995cd35da",
    89: "9d4fd53cb550122c2baa2505de9614958e00d8419f901fc4a0584e5da3bd7f84",
    97: "b204e16a9a8b97c0f6c72081971856cdf066f7921f20e36cbb813157b28b3401",
}
MODULI_DIGESTS = {
    4: "eb26e0bd9ae6b1d69133f4ab82d100ad2e68b89d4d563da5b8da0b6c2d02b857",
    8: "876ca1852dad2690740eb4bd8013534eab02c94539eb8f9beca16612a24033dd",
    9: "325e353510fee75e677c1f87d8bf659e502db8423bb16ce8de053c7053da1512",
    16: "3041d61ef6c110315e462f07f01e231a916eaa53a362932e7278543472f18e83",
    25: "c6d6a69102c139f0f2edbf03962ca7586f716d68af7623321a3acf342e65c140",
    27: "7c71a37284e18b89ff6b5ffd459f3557c1d8d5ca503ffee2cdd497517f29f117",
    32: "67457c3e3f5be1a0439498c5c39d8593f8adf9c24a76bfcb5c956936c7bd9660",
    49: "387eef1cca88fbdaecc388440d882b839476b266250266423daaa0d1046bc984",
    64: "c8349210ab88c17cb66fb8254680982f75ffadb166ff0de17d3d5bc1a5aae9dd",
    81: "3e00b2e9f998b7c475fcbc3034c8eca8b5e7f7d45b982d78f4224b0dde21e703",
}
# monic irreducibles of degree e over F_p: (1/e) sum_{d | e} mu(d) p^(e/d)
GAUSS_COUNTS = ((4, 1), (8, 2), (9, 3), (16, 3), (25, 10), (27, 8))


class TestField:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_axioms_exhaustive(self, q):
        f = make_field(q)
        els = range(q)
        for a in els:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(
                        f.mul(a, b), f.mul(a, c)
                    )

    def test_fermat_inverses(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 97):
            f = make_field(q)
            for a in range(1, q):
                power = a
                for _ in range(q - 3):
                    power = f.mul(power, a)
                if q > 2:
                    assert f.mul(a, power) == 1  # a * a^{q-2} = 1

    def test_mod_3_example(self):
        assert make_field(3).mul(2, 2) == 1

    def test_gf4_generator(self):
        f = make_field(4)
        # g = x encodes as 2; g^2 = g + 1 encodes as 3
        assert f.mul(2, 2) == 3

    def test_gf9_modulus(self):
        f = make_field(9)
        # x encodes as 3 and x^2 = -1 = 2 under x^2 + 1
        assert f.mul(3, 3) == 2

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError, match="prime power"):
            make_field(6)
        with pytest.raises(ValueError, match="supported"):
            make_field(12)

    def test_rejects_large_or_missing_modulus(self):
        with pytest.raises(ValueError):
            make_field(101)
        with pytest.raises(ValueError, match="supported"):
            make_field(16)

    def test_custom_modulus(self):
        f = make_field(16, modulus=(1, 1, 0, 0, 1))  # x^4 + x + 1
        assert f.q == 16
        # x^4 = x + 1 -> encoding: 2^4 would wrap to 0b0011 = 3
        assert f.mul(8, 2) == 3
        with pytest.raises(ValueError, match="reducible"):
            make_field(4, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2

    def test_field_spec_modulus(self):
        with pytest.raises(ValueError, match="needs an irreducible modulus"):
            FieldSpec(4)
        # the leading 1 of a monic modulus may be left implicit
        assert tables(FieldSpec(4, (1, 1))) == tables(make_field(4))

    @pytest.mark.parametrize("q", sorted(SUPPORTED_DIGESTS))
    def test_supported_tables_pinned(self, q):
        assert sha256(tables(make_field(q))) == SUPPORTED_DIGESTS[q]

    @pytest.mark.parametrize("q", sorted(MODULI_DIGESTS))
    def test_every_monic_modulus_pinned(self, q):
        got = "".join(outcome(q, f) for f in monic_moduli(q))
        assert sha256(got) == MODULI_DIGESTS[q]

    @pytest.mark.parametrize("q, count", GAUSS_COUNTS)
    def test_accepts_exactly_irreducible_moduli(self, q, count):
        p, _ = factor_prime_power(q)
        accepted = []
        for modulus in monic_moduli(q):
            try:
                FieldSpec(q, modulus)
            except ValueError as exc:
                assert str(exc) == f"modulus {modulus} is reducible over F_{p}"
            else:
                accepted.append(modulus)
        assert accepted == [f for f in monic_moduli(q) if irreducible(f, p)]
        assert len(accepted) == count


class TestSkewMat:
    def test_full_matrix_shape(self):
        p = SchemeParams(3, 4)
        f = make_field(3)
        m = SkewMat(p, f, (1, 2, 0, 1, 0, 2))
        full = m.full_matrix()
        for i in range(4):
            assert full[i][i] == 0
            for j in range(4):
                assert full[j][i] == f.neg(full[i][j])

    def test_alternating_property(self):
        # x A x^T = 0 for random vectors, including characteristic 2
        rng = random.Random(4)
        for q, t in ((2, 5), (3, 4), (4, 4)):
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(20):
                m = SkewMat(
                    p, f, tuple(rng.randrange(q) for _ in range(p.num_coords))
                )
                full = m.full_matrix()
                x = [rng.randrange(q) for _ in range(t)]
                acc = 0
                for i in range(t):
                    for j in range(t):
                        acc = f.add(acc, f.mul(x[i], f.mul(full[i][j], x[j])))
                assert acc == 0

    def test_entry_validation(self):
        p = SchemeParams(3, 4)
        f = make_field(3)
        with pytest.raises(ValueError):
            SkewMat(p, f, (3, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            SkewMat(p, f, (0, 0, 0))

    def test_rejects_non_int_entries(self):
        # 1.0 is in range and would index the field's tables as a float
        p = SchemeParams(3, 4)
        f = make_field(3)
        for bad in (1.0, "1", None):
            with pytest.raises(TypeError, match="ints"):
                SkewMat(p, f, (bad, 0, 0, 0, 0, 0))


class TestSkewRank:
    def test_zero_matrix(self):
        p = SchemeParams(3, 4)
        m = SkewMat(p, make_field(3), (0,) * 6)
        assert skew_rank(m) == 0

    def test_single_block(self):
        p = SchemeParams(5, 4)
        m = SkewMat(p, make_field(5), (1, 0, 0, 0, 0, 0))
        assert skew_rank(m) == 1

    def test_odd_rank_raises(self, monkeypatch):
        # an explicit raise, so the parity check also holds under python -O
        import skewrank.gfcodes as g

        monkeypatch.setattr(g, "_rref", lambda rows, field: (rows[:3], [0, 1, 2]))
        m = SkewMat(SchemeParams(3, 4), make_field(3), (1, 0, 0, 0, 0, 0))
        with pytest.raises(ArithmeticError, match="odd rank 3"):
            skew_rank(m)

    def test_rank_parity_and_oracle(self):
        rng = random.Random(6)
        for q, t in ACCEPTANCE_PAIRS:
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(10_000):
                m = SkewMat(
                    p, f, tuple(rng.randrange(q) for _ in range(p.num_coords))
                )
                full_rank = column_rank_oracle(m.full_matrix(), f)
                assert full_rank % 2 == 0
                assert skew_rank(m) * 2 == full_rank

    def test_congruence_invariance(self):
        rng = random.Random(9)
        for q, t in ((2, 4), (3, 4), (3, 5)):
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(30):
                m = SkewMat(
                    p, f, tuple(rng.randrange(q) for _ in range(p.num_coords))
                )
                # random nonsingular P via random elementary products
                P = [[1 if i == j else 0 for j in range(t)] for i in range(t)]
                for _ in range(12):
                    i, j = rng.randrange(t), rng.randrange(t)
                    c = rng.randrange(1, q)
                    if i != j:
                        P[i] = [
                            f.add(a, f.mul(c, b)) for a, b in zip(P[i], P[j])
                        ]
                A = m.full_matrix()
                # B = P A P^T
                PA = [
                    [
                        _dot(f, P[i], [A[r][c] for r in range(t)], t)
                        for c in range(t)
                    ]
                    for i in range(t)
                ]
                B = [
                    [_dot(f, PA[i], P[j], t) for j in range(t)]
                    for i in range(t)
                ]
                upper = tuple(B[i][j] for i, j in upper_positions(t))
                assert skew_rank(SkewMat(p, f, upper)) == skew_rank(m)


class TestAltRank:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_matches_skew_rank(self, q):
        rng = random.Random(100 + q)
        f = make_field(q)
        for t in range(2, 9):
            p = SchemeParams(q, t)
            ncoords = p.num_coords
            canonical = [0] * ncoords  # diag{E2 x (t // 2), 0}
            for i in range(0, t - 1, 2):
                canonical[upper_positions(t).index((i, i + 1))] = 1
            uppers = [(0,) * ncoords, tuple(canonical)]
            for density in (1.0, 0.5, 0.15):
                uppers += [
                    tuple(
                        rng.randrange(1, q) if rng.random() < density else 0
                        for _ in range(ncoords)
                    )
                    for _ in range(40)
                ]
            for upper in uppers:
                m = SkewMat(p, f, upper)
                mat = m.full_matrix()
                want = skew_rank(m)
                assert _alt_rank(mat, t, f) == want, (q, t, upper)
                assert mat == m.full_matrix()  # the input is not mutated
            assert skew_rank(SkewMat(p, f, tuple(canonical))) == t // 2

    @pytest.mark.parametrize("q,t", [(2, 4), (2, 5), (3, 4), (4, 4), (5, 4)])
    def test_table_build_matches_skew_rank(self, q, t):
        p, f = SchemeParams(q, t), make_field(q)
        want = bytearray()
        for coords in itertools.product(range(q), repeat=p.num_coords):
            # the packed index is little-endian: coordinate 0 varies fastest
            want.append(skew_rank(SkewMat(p, f, coords[::-1])))
        assert _build_rank_table(p, f) == want


# sha256 of _build_rank_table(SchemeParams(q, t), make_field(q)) for every
# table under the cap, recorded from the build that ranked one word per line
# through zero by _alt_rank
RANK_TABLE_DIGESTS = {
    (2, 2): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    (2, 3): "58b152dbcbf85e1396e9d063bb32d246ef9bbf87b88340e7313c641783a7cbdd",
    (2, 4): "c660ffeeaf55c6b6c7508502140dd0eb55d0c61fac5e5b051248058064cd75e9",
    (2, 5): "ee6718264d02a6904e7db209f6cbe27047bde12a2aedb40894e241dc5a25a9db",
    (2, 6): "ee9ba48da5ec94e28389052d2ab00356d1fd0a72ca3e6e9dc7e9f91e5ee7be55",
    (3, 2): "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    (3, 3): "0f7c0599fa595c2a480a865e2995658c919ba3335438d090895a51e4551bc8de",
    (3, 4): "b744d01fd8f1ef9063c7a413efce517a782cbe9ed8bb7e5cc2f85d199cdee4ae",
    (3, 5): "d829c5dfa040218f91778ba2df8467757ad51d752742956355297c002b147d61",
    (4, 2): "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae",
    (4, 3): "0b6f7181c211aae5e14e1cc4d0dc0f0fedee936596f91110bb69bfe0455632a5",
    (4, 4): "8da8308e21f1a1c8ee823d0e1051751f61921e433ed3888f56b1203803bf1ae7",
    (4, 5): "291ad289bea18dd28e7503776ca657b2e688a930f18923a378904f4f7d388c13",
    (5, 2): "c5fa7a4f055ecfb310cff078852a08c832be9ac4c4d30ecb73e4b55630fff19f",
    (5, 3): "c41f73db8d80916c2d7a05b802e1693cc765b245af23c0846cc1ccbbdbe82d04",
    (5, 4): "1bf69a81c6cc8f5371731c2beaa04fb01659fdf86ed7860ddd5d50248ab9a327",
    (7, 2): "9e115b7590ca176a52442f9f76532bd613b8456529d330681e960d9e7feb3f6a",
    (7, 3): "d04671531a7312a50f4a5fea6d148c3b54a634d2062de41cf12987434cf4a51b",
    (7, 4): "6134b2ed50554f6c420054e2efafe81213bf86a4250ab48221677b6bfd297809",
    (8, 2): "58b152dbcbf85e1396e9d063bb32d246ef9bbf87b88340e7313c641783a7cbdd",
    (8, 3): "b3bf8097d24eb2ae9ddb20ff734aa1fdb6dab38f6c498bb59978b7d84d73c819",
    (8, 4): "54d6f75ddc60a05b21300be56c68fcf34bb30910298870354ec50ff7f8f42150",
    (9, 2): "6c98868342cbd19af714483483f87348067a30a203281680c118fac333d2a77b",
    (9, 3): "c33126c64a1b922db347ff6a12d13e6db2a4acf4e8b9d2a3d5468698e68dc2fd",
    (9, 4): "0d0d3e97c0fe252703de3bbb48e086b2e74b717b08403e529df64eb96123823a",
}


class TestRankTables:
    def test_every_table_is_pinned(self):
        import skewrank.gfcodes as g

        under_cap = {
            (q, t)
            for q in (2, 3, 4, 5, 7, 8, 9)
            for t in range(2, 8)
            if q ** (t * (t - 1) // 2) <= g._RANK_TABLE_CAP
        }
        assert set(RANK_TABLE_DIGESTS) == under_cap
        for (q, t), digest in RANK_TABLE_DIGESTS.items():
            p = SchemeParams(q, t)
            table = _build_rank_table(p, make_field(q))
            assert hashlib.sha256(table).hexdigest() == digest, (q, t)
            assert [table.count(s) for s in range(p.n + 1)] == [
                xi(p, s) for s in range(p.n + 1)
            ]

    @pytest.mark.parametrize("q,modulus", [(q, None) for q in SUPPORTED_Q] + [
        (16, (1, 1, 0, 0, 1)), (25, (2, 0, 1)), (32, (1, 0, 1, 0, 0, 1))])
    def test_form_values_is_the_sum_at_every_vector(self, q, modulus):
        # the one builder of the tables' b . k and the byte lanes' first
        # block: byte sum_i c_i q^i is start + sum_i c_i g_i, with a zero g
        # among the coefficients, from a zero and a nonzero start
        import skewrank.gfcodes as g

        f = make_field(q, modulus)
        assert [row[:q] for row in f._plus] == [bytes(row) for row in f._add]
        rng = random.Random(q)
        k = max(2, max(k for k in range(1, 13) if q**k <= 4096))
        coeffs = [rng.randrange(1, q) for _ in range(k)]
        coeffs[rng.randrange(k)] = 0
        for start in (0, rng.randrange(1, q)):
            want = bytearray(q**k)
            for c in itertools.product(range(q), repeat=k):
                value = start
                for ci, gi in zip(c, coeffs):
                    value = f.add(value, f.mul(ci, gi))
                want[sum(ci * q**i for i, ci in enumerate(c))] = value
            assert g._form_values(coeffs, f, start) == want, start
        assert g._form_values([], f, 1) == b"\1"

    @pytest.mark.parametrize("q,t", sorted(RANK_TABLE_DIGESTS))
    def test_one_word_per_block_matches_skew_rank(self, q, t):
        # the census cannot see a wrong kernel of the right dimension, and
        # digests pin only the tables they list: one random b of each block
        # [[0, b^T], [-b, A]], ranked by skew_rank (_rref, no pair pivots),
        # checks any table a block at a time
        p, f = SchemeParams(q, t), make_field(q)
        table, rng = rank_table(p, f), random.Random(q * 100 + t)
        width = q ** (t - 1)
        for at in range(0, len(table), width):
            index = at + rng.randrange(width)
            coords = tuple(index // q**i % q for i in range(p.num_coords))
            assert table[index] == skew_rank(SkewMat(p, f, coords)), index

    @pytest.mark.parametrize("q,t", [(3, 4), (2, 5)])
    def test_census_guard_raises(self, monkeypatch, q, t):
        import skewrank.gfcodes as g

        # the build checks its census itself, by a raise that python -O
        # keeps; a census that disagrees with xi must stop it, whether the
        # table came from bordering (q = 3) or from bit lanes (q = 2)
        monkeypatch.setattr(g, "xi", lambda params, s: xi(params, s) + (s == 1))
        with pytest.raises(ArithmeticError, match="skew rank 1"):
            _build_rank_table(SchemeParams(q, t), make_field(q))

    def test_each_table_of_a_chain_built_once(self, monkeypatch):
        # bordering reads the (t-1)-space's table through rank_table, so a
        # chain of builds fills the cache: (3,4) builds (3,4), (3,3) and
        # (3,2), and (3,5) after it only itself, 4 builds and not 7
        import skewrank.gfcodes as g

        built, real = [], g._build_rank_table

        def counted(params, field):
            built.append((params.q, params.t))
            return real(params, field)

        monkeypatch.setattr(g, "_RANK_TABLES", {})
        monkeypatch.setattr(g, "_build_rank_table", counted)
        f = make_field(3)
        rank_table(SchemeParams(3, 4), f)
        rank_table(SchemeParams(3, 5), f)
        assert built == [(3, 4), (3, 3), (3, 2), (3, 5)]
        for t in (2, 3, 4, 5):
            table = rank_table(SchemeParams(3, t), f)
            assert hashlib.sha256(table).hexdigest() == RANK_TABLE_DIGESTS[(3, t)]
        assert len(built) == 4

    def test_field_of_another_q_is_refused(self, monkeypatch):
        # a caller's mistake, not the census guard's ArithmeticError (an
        # internal fault to the CLI), and refused before any build
        import skewrank.gfcodes as g

        monkeypatch.setattr(g, "_RANK_TABLES", {})
        for q, t, other in ((3, 4, 2), (5, 4, 4)):
            p, f = SchemeParams(q, t), make_field(other)
            with pytest.raises(ValueError, match="disagree on q"):
                rank_table(p, f)
            with pytest.raises(ValueError, match="disagree on q"):
                rank_census(p, f)
        assert g._RANK_TABLES == {}


def _dot(f, xs, ys, t):
    acc = 0
    for a, b in zip(xs, ys):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


# sha256 of repr([P for each of _decompose_draws(q)]), recorded from the
# reduction that re-evaluated the bilinear form for every candidate pair
CANONICAL_DIGESTS = {
    2: "0b2572930dc6e1bda3284ed377f987972826a7f0b8b7a4c8342cb5d7bfc71cde",
    3: "413cdce034ce3f399b210e8c582039568df8f32e2bcdb6246dbef6a2319fa751",
    4: "93634bf48d3fb695a0d6cb934ddbc6b739f8d2b5b605fbaf5846b0431b8ce557",
    5: "4c99b83e7ff41000799361620fcaf401c9321d4ef6b906588e83e49c6bc5102c",
    7: "7a0b86d81c834b700e7b3eadb8ebacd6c7e6248b851524f26dd2fe186b6ea81b",
    8: "1845f8f93e842e6608b96dc2954e950c0b9be35aa746bdecb3c48919c2c0bc02",
    9: "8c180b6b3b272d33b4f9ad6eebc1cde1eeac28a4473190e7aee659626762bea3",
    11: "77238cdd30a6c1a340429d010377ee024534f11fd951bde39cdce5d6c5d9ce28",
    13: "6d0b94b91070877600f02abdce8194b832bc5a8a39dada6a0641f89918dd7b99",
    17: "c2e30b9444527eab1a05c9f5ac4e05b4028edc0d7969f894e89c8e718a1a9b7b",
    19: "7a988283bdbe1736827d000bd191b64bae5c05f146de94044f7730b7f2292e24",
    23: "cc07300ff31feda278c81e9a162f68e919effeea18a51ecd16cc3168e15bf42b",
    29: "f43919d68844cc39e8be7690b707435653201afe60b9870901a480d4850bab42",
    31: "c2c1847954a3fd35ec78c16e431c4feca0ad1b1a6c9246725297fb467e29b311",
    37: "f2cde07546d96ec880f7c62a9e8e9173ba64e595400b6ee41816001290f134dc",
    41: "2021c5f686b170e21325a89d349641035b0df7825643a0d63e3e99bbed5225ce",
    43: "11022116505a91af05fb8e8f1db2f4a10a1f4e7ce7f48635e3b15e0b0724c9ee",
    47: "f5ac73434fa65eda5bf057a86cb1f3d1d4f7a35a1ac9bcc0c648d9b21ef07648",
    53: "f96fa93210fe20876dfa8da0e35bb865c40277a43f38ed318fbaf84b8d53826b",
    59: "107029b8919b4605f3ab2991fe6952a5b9dfe9d4597f782d49fd09f3ee90cdad",
    61: "5359cbd5c6cd8354099274b450e2ea007ef6e60e9e60ea2e9b023f168f1ed45f",
    67: "252f2688c2a84c556a2dd199d4e580d8a16dd4df549ebb18b86812a788f2d848",
    71: "0fcb6d04d684f3adb5b20bf6f77dbc4ff397556e8fd7de47875e207678468d19",
    73: "1351fb0c1383822bf1d92488f6386f7dec1f483b69f2bb92860f77af4276a661",
    79: "ad57d207a0db72b4e16e0c24eaeef116526383cc6057e6aee60f92ab399b12a1",
    83: "2169cdfdbd447997a38d1f6aabdf23748ddba0089bc6e4b1c47b8c89f1acd7bb",
    89: "4e7e11dcf10c5ad6bfa78b5651ba782c0552d933bfe8613bb23459d35fe6e5a5",
    97: "f6dbf4e795312042dd199f84d2e58ea6129d8bba5678741c5b353e24e9792cc1",
}


def _decompose_draws(q):
    """Six alternating matrices per t = 2..10, two at each density."""
    rng = random.Random(q)
    field = make_field(q)
    for t in range(2, 11):
        params = SchemeParams(q, t)
        for density in (1.0, 0.5, 0.15):
            for _ in range(2):
                yield SkewMat(params, field, tuple(
                    rng.randrange(1, q) if rng.random() < density else 0
                    for _ in range(params.num_coords)
                ))


class TestCanonicalDecompose:
    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_pinned_on_every_field(self, q):
        ps = []
        for m in _decompose_draws(q):
            P, s = canonical_decompose(m)
            assert s == skew_rank(m)
            assert len(_rref(P, m.field)[1]) == m.params.t  # P is nonsingular
            ps.append(P)
        assert hashlib.sha256(repr(ps).encode()).hexdigest() == CANONICAL_DIGESTS[q]

    def test_zero_matrix_identity(self):
        p = SchemeParams(3, 4)
        m = SkewMat(p, make_field(3), (0,) * 6)
        P, s = canonical_decompose(m)
        assert s == 0
        assert P == [[1 if i == j else 0 for j in range(4)] for i in range(4)]

    def test_already_canonical_gives_identity(self):
        p = SchemeParams(3, 6)
        f = make_field(3)
        # diag{E2, E2, O}: entries (1,2) and (3,4) one-based
        coords = [0] * p.num_coords
        pos = upper_positions(6)
        coords[pos.index((0, 1))] = 1
        coords[pos.index((2, 3))] = 1
        m = SkewMat(p, f, tuple(coords))
        P, s = canonical_decompose(m)
        assert s == 2
        assert P == [[1 if i == j else 0 for j in range(6)] for i in range(6)]

    def test_random_self_verification(self):
        # the function asserts P A P^T is in block form; here we also
        # cross-check s against the elimination rank
        rng = random.Random(10)
        for q, t in ((2, 4), (2, 6), (3, 5), (4, 4), (5, 4)):
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(40):
                m = SkewMat(
                    p, f, tuple(rng.randrange(q) for _ in range(p.num_coords))
                )
                _, s = canonical_decompose(m)
                assert s == skew_rank(m)


class TestDual:
    def test_full_and_zero(self):
        p = SchemeParams(3, 4)
        f = make_field(3)
        assert dual(full_space_code(p, f)).k == 0
        assert dual(zero_code(p, f)).k == p.num_coords

    @pytest.mark.parametrize("q", SUPPORTED_Q)
    def test_dual_of_zero_code_is_the_unit_basis(self, q):
        p = SchemeParams(q, 4)
        f = make_field(q)
        assert (dual(zero_code(p, f)).basis_rows()
                == full_space_code(p, f).basis_rows())

    def test_example_dual(self, example_code):
        d = dual(example_code)
        assert d.k == 2
        assert example_code.size * d.size == 3 ** (6)

    def test_double_dual_and_dims(self):
        rng = random.Random(12)
        for q, t in ((2, 4), (2, 5), (3, 4), (4, 4)):
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(10):
                k = rng.randint(0, p.num_coords)
                c = random_code(p, f, k, rng)
                d = dual(c)
                assert c.k + d.k == p.num_coords
                assert same_span(dual(d), c)

    def test_trace_pairing_matches_for_odd_q(self):
        # Tr(A^T B) = 2 * coordinate pairing, so the dual words pair to zero
        rng = random.Random(13)
        for q, t in ((3, 4), (5, 4), (3, 5)):
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(5):
                c = random_code(p, f, rng.randint(1, p.num_coords - 1), rng)
                d = dual(c)
                for bm in c.basis:
                    a_full = bm.full_matrix()
                    for dm in d.basis:
                        b_full = dm.full_matrix()
                        tr = 0
                        for i in range(t):
                            for j in range(t):
                                tr = f.add(
                                    tr, f.mul(a_full[j][i], b_full[j][i])
                                )
                        assert tr == 0


def same_span(a, b):
    """Do two codes have the same row space, i.e. the same reduced basis?"""
    return (_rref([list(r) for r in a.basis_rows()], a.field)
            == _rref([list(r) for r in b.basis_rows()], b.field))


def dense_code(params, field, k, rng):
    """k random independent rows, not reduced, so supports are dense."""
    while True:
        rows = [
            tuple(rng.randrange(field.q) for _ in range(params.num_coords))
            for _ in range(k)
        ]
        try:
            return LinearCode.from_rows(params, field, rows)
        except ValueError:
            continue


def random_nonzero(ncoords, q, rng):
    """A uniformly random nonzero word of ncoords coordinates."""
    while not any(word := tuple(rng.randrange(q) for _ in range(ncoords))):
        pass
    return word


def product_oracle(code, start=None):
    """Distribution of start + w over every coefficient vector of w."""
    counts = [0] * (code.params.n + 1)
    start = start or (0,) * code.params.num_coords
    for coeffs in itertools.product(range(code.field.q), repeat=code.k):
        word = SkewMat(code.params, code.field, start)
        for c, b in zip(coeffs, code.basis):
            word = word.add(b.scale(c))
        counts[skew_rank(word)] += 1
    return tuple(counts)


def rank_counts(params, ranks):
    """Counts of the ranks by value, indices 0..n."""
    return tuple(ranks.count(r) for r in range(params.n + 1))


def assert_batches_are_cosets(code, walk) -> int:
    """The batches of walk.lines() against the words of the code.

    C_in is the words whose low chunks walk.x holds, zero past them: it
    must lie in the code, and the first batches must be one coset of C_in
    per line through zero of C / C_in, the rest C_in's own lines, one word
    each.  Returns the largest dimension C_in could have, that of the words
    of C zero past the low chunk.
    """
    import skewrank.gfcodes as g

    params, field, q = code.params, code.field, code.field.q
    ncoords, c = params.num_coords, g._chunk_sums(field)[0]
    ranks = {}
    for coeffs in itertools.product(range(q), repeat=code.k):
        word = SkewMat(params, field, (0,) * ncoords)
        for a, b in zip(coeffs, code.basis):
            word = word.add(b.scale(a))
        ranks[word.upper] = skew_rank(word)
    inner = [tuple(v // q**i % q if i < c else 0 for i in range(ncoords))
             for v in walk.x]
    assert len(set(inner)) == len(inner) and set(inner) <= set(ranks)
    cosets, seen = [], set()
    for y in ranks:
        if y not in seen:
            coset = [tuple(map(field.add, y, d)) for d in inner]
            seen.update(coset)
            cosets.append([ranks[w] for w in coset])
    inner_ranks = cosets.pop(0)  # the coset of the zero word, first in ranks
    batches = list(walk.lines())
    lines = len(cosets) // (q - 1)
    assert sum(map(len, batches)) == (q**code.k - 1) // (q - 1)
    assert all(len(b) == len(inner) for b in batches[:lines])
    # the q - 1 nonzero multiples of a coset have its counts
    want = sorted(rank_counts(params, ranks) for ranks in cosets)
    got = [rank_counts(params, b) for b in batches[:lines]]
    assert sorted(got * (q - 1)) == want
    inner_lines = b"".join(batches[lines:])
    assert [(q - 1) * n for n in rank_counts(params, inner_lines)] == [
        n - (r == 0) for r, n in enumerate(rank_counts(params, inner_ranks))]
    low_words = sum(not any(w[c:]) for w in ranks)
    return next(d for d in range(code.k + 1) if q**d == low_words)


class TestWeightDistribution:
    def test_example_code(self, example_code):
        assert weight_distribution(example_code).counts == (1, 44, 36)

    def test_zero_code(self):
        p = SchemeParams(3, 4)
        wd = weight_distribution(zero_code(p, make_field(3)))
        assert wd.counts == (1, 0, 0)

    def test_full_space_is_xi(self):
        for q, t in ((2, 4), (3, 4), (2, 5)):
            p = SchemeParams(q, t)
            wd = weight_distribution(full_space_code(p, make_field(q)))
            assert wd.counts == tuple(xi(p, s) for s in range(p.n + 1))

    def test_budget_guard(self, example_code):
        with pytest.raises(EnumerationBudgetError):
            weight_distribution(example_code, budget=80)

    def test_census_above_the_table_cap(self):
        with pytest.raises(EnumerationBudgetError, match="rank-table cap"):
            rank_census(SchemeParams(2, 8))

    @pytest.mark.parametrize("counts, message", [
        ((1, 0), "need 3 counts, got 2"),
        ((1, -1, 0), "negative count"),
    ])
    def test_weight_dist_refuses(self, counts, message):
        with pytest.raises(ValueError, match=message):
            WeightDist(SchemeParams(3, 4), counts)

    @pytest.mark.parametrize("k", (-1, 7))
    def test_random_code_dimension_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range 0..6"):
            random_code(SchemeParams(3, 4), make_field(3), k,
                        random.Random(0))

    def test_census_matches_xi(self):
        for q, t in ACCEPTANCE_PAIRS:
            p = SchemeParams(q, t)
            assert rank_census(p) == [xi(p, s) for s in range(p.n + 1)]

    def test_census_gf4(self):
        p = SchemeParams(4, 4)
        assert rank_census(p) == [xi(p, s) for s in range(p.n + 1)]

    def test_min_distance_and_diameter(self, example_code):
        assert min_distance(example_code) == 1
        assert diameter(example_code) == 2
        p = SchemeParams(3, 4)
        f = make_field(3)
        full = full_space_code(p, f)
        assert min_distance(full) == 1
        assert diameter(full) == p.n
        with pytest.raises(ValueError, match="zero code"):
            min_distance(zero_code(p, f))
        assert diameter(zero_code(p, f)) == 0

    def test_singleton_bound(self):
        rng = random.Random(21)
        for q, t in ACCEPTANCE_PAIRS:
            p = SchemeParams(q, t)
            f = make_field(q)
            for _ in range(10):
                c = random_code(p, f, rng.randint(1, p.num_coords - 1), rng)
                d = min_distance(c)
                assert c.size <= q ** (p.m * (p.n - d + 1))


# (text, exact message), recorded from the row-loop parser that kept the
# header in a state variable
MALFORMED = [
    ("", "no header line found"),
    ("# only a comment\n\n   \n", "no header line found"),
    ("q=3 t=4 k=1 colour=red\n", "line 1: unknown header fields ['colour']"),
    ("q=3 t=4\n", "line 1: header is missing k="),
    ("q=three t=4 k=1\n",
     "line 1: invalid literal for int() with base 10: 'three'"),
    ("q=3 t=x k=y\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("q=4 t=3 k=1 modpoly=1,x,1\n",
     "line 1: invalid literal for int() with base 10: 'x'"),
    ("q=3 t=4 k=1 modpoly=x colour=red\n",
     "line 1: invalid literal for int() with base 10: 'x'"),
    ("q=3 t=4 k=1 modpoly=1,0,1\n", "line 1: q=3 is prime; no modulus applies"),
    ("q=6 t=4 k=0\n", "line 1: q=6 is not a prime power"),
    ("q=3 t=4 k=1 bare\n", "line 1: bad header token 'bare'"),
    ("q=3 t=1 k=0\n", "line 1: t=1 must be >= 2"),
    ("q=121 t=3 k=0\n",
     "line 1: q=121 is too large; supported q: primes up to 97, and prime "
     "powers 4, 8, 9 (other prime powers need an explicit irreducible "
     "modulus)"),
    ("q=4 t=3 k=0 modpoly=1,0,1\n",
     "line 1: modulus (1, 0, 1) is reducible over F_2"),
    ("q=4 t=3 k=0 modpoly=1,1,1,1\n",
     "line 1: modulus must be monic of degree 2 over F_2"),
    ("q=3 t=4 k=1\n0 0 3 0 0 0\n",
     "line 2, column 3: entry 3 out of range for q=3"),
    ("q=3 t=4 k=1\n0 0 0\n", "line 2: expected 6 entries, got 3"),
    ("q=2 t=3 k=1\n1 0 1 0\n", "line 2: expected 3 entries, got 4"),
    ("q=3 t=4 k=1\nx 0 0 0 0 0\n", "line 2, column 1: 'x' is not an integer"),
    ("q=3 t=4 k=1=2\n1 0 0 0 0 0\n",
     "line 1: invalid literal for int() with base 10: '1=2'"),
    ("# c\n\n  q=3 t=4 k=2\n\n1 0 0 0 0 0\n# mid\n0 1 -1 0 0 0\n",
     "line 7, column 3: entry -1 out of range for q=3"),
    # a repeated field is refused, not read as its last value
    ("q=3 q=5 t=4 k=1\n1 0 0 0 0 0\n", "line 1: header repeats q="),
    ("q=3 t=4 k=1 k=1\n1 0 0 0 0 0\n", "line 1: header repeats k="),
    ("# c\nq=4 t=3 k=0 modpoly=1,1,1 modpoly=1,1,1\n",
     "line 2: header repeats modpoly="),
]

# (text, exact warnings in order, basis kept)
WARNED = [
    ("q=3 t=4 k=3\n1 0 0 0 0 0\n",
     ["header (line 1) declares k=3 but the file has 1 rows; using the rows"],
     [(1, 0, 0, 0, 0, 0)]),
    ("# lead\n\nq=3 t=4 k=2\n1 0 0 0 0 0\n2 0 0 0 0 0\n",
     ["basis rows are linearly dependent; reduced to 1 independent rows"],
     [(1, 0, 0, 0, 0, 0)]),
    ("# lead\n\nq=3 t=4 k=1\n1 0 0 0 0 0\n2 0 0 0 0 0\n",
     ["header (line 3) declares k=1 but the file has 2 rows; using the rows",
      "basis rows are linearly dependent; reduced to 1 independent rows"],
     [(1, 0, 0, 0, 0, 0)]),
]


@st.composite
def codes(draw):
    """A code with an arbitrary (unreduced) basis, q in {2,3,4,5,7,8,9}."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    params = SchemeParams(q, draw(st.integers(2, 5)))
    field = make_field(q)
    row = st.tuples(*[st.integers(0, q - 1)] * params.num_coords)
    rows = draw(st.lists(row, max_size=min(4, params.num_coords)))
    assume(len(_rref([list(r) for r in rows], field)[0]) == len(rows))
    return LinearCode.from_rows(params, field, rows)


class TestCodeFormat:
    @pytest.mark.parametrize("text, message", MALFORMED)
    def test_malformed_message(self, text, message):
        with pytest.raises(CodeFormatError) as exc:
            parse_code(text)
        assert str(exc.value) == message

    def test_byte_order_mark_is_dropped(self):
        text = "# lead\nq=3 t=4 k=2\n1 0 0 0 0 0\n0 2 0 0 0 1\n"
        plain, marked = parse_code(text), parse_code("\ufeff" + text)
        assert marked.params == plain.params
        assert marked.field is plain.field
        assert marked.basis_rows() == plain.basis_rows()

    @pytest.mark.parametrize("text, messages, rows", WARNED)
    def test_warning_messages(self, text, messages, rows):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = parse_code(text)
        assert [str(w.message) for w in caught] == messages
        assert all(w.category is UserWarning for w in caught)
        # each warning points at the caller of parse_code
        assert all(w.filename == __file__ for w in caught)
        assert code.basis_rows() == rows

    @settings(max_examples=150, deadline=None)
    @given(code=codes())
    def test_round_trip_keeps_basis(self, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = parse_code(serialize_code(code))
        assert again.params == code.params
        assert again.field.table_key() == code.field.table_key()
        assert again.basis_rows() == code.basis_rows()

    def test_round_trip(self, example_code):
        text = serialize_code(example_code)
        again = parse_code(text)
        assert again.basis_rows() == example_code.basis_rows()
        assert serialize_code(again) == text

    def test_parse_header_and_rows(self):
        code = parse_code(
            "# comment\n\nq=3 t=4 k=2\n1 0 0 0 0 0\n0 0 0 0 0 2\n"
        )
        assert code.k == 2
        assert code.params == SchemeParams(3, 4)

    def test_modpoly_round_trip(self):
        p = SchemeParams(4, 4)
        f = make_field(4)
        c = LinearCode.from_rows(p, f, [(1, 2, 3, 0, 0, 0)])
        text = serialize_code(c)
        assert "modpoly=1,1,1" in text
        assert parse_code(text).basis_rows() == c.basis_rows()

    def test_entry_out_of_range(self):
        with pytest.raises(CodeFormatError, match="line 2, column 3"):
            parse_code("q=3 t=4 k=1\n0 0 3 0 0 0\n")

    def test_wrong_entry_count(self):
        with pytest.raises(CodeFormatError, match="expected 6 entries"):
            parse_code("q=3 t=4 k=1\n0 0 0\n")

    def test_bad_header(self):
        with pytest.raises(CodeFormatError, match="missing k="):
            parse_code("q=3 t=4\n")
        with pytest.raises(CodeFormatError, match="not a prime power"):
            parse_code("q=6 t=4 k=0\n")
        with pytest.raises(CodeFormatError):
            parse_code("")

    def test_non_integer_entry(self):
        with pytest.raises(CodeFormatError, match="line 2, column 1"):
            parse_code("q=3 t=4 k=1\nx 0 0 0 0 0\n")

    def test_dependent_rows_reduced_with_warning(self):
        text = "q=3 t=4 k=3\n1 0 0 0 0 0\n2 0 0 0 0 0\n0 1 0 0 0 0\n"
        with pytest.warns(UserWarning, match="dependent"):
            code = parse_code(text)
        assert code.k == 2

    def test_k_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares k=3"):
            code = parse_code("q=3 t=4 k=3\n1 0 0 0 0 0\n")
        assert code.k == 1

    def test_independent_basis_kept_verbatim(self):
        text = "q=3 t=4 k=2\n2 1 0 0 0 0\n0 0 0 0 0 1\n"
        code = parse_code(text)
        assert code.basis_rows() == [(2, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]


class TestLinearCode:
    def test_rejects_dependent_basis(self):
        p = SchemeParams(3, 4)
        f = make_field(3)
        with pytest.raises(ValueError, match="dependent"):
            LinearCode.from_rows(
                p, f, [(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)]
            )

    def test_rejects_basis_of_another_space(self):
        # a t=5 or GF(5) matrix in a (3,4) code used to give (1, 2, 0) or an
        # IndexError
        p, f = SchemeParams(3, 4), make_field(3)
        e01 = (1,) + (0,) * 9
        for other in (SkewMat(SchemeParams(3, 5), f, e01),
                      SkewMat(SchemeParams(5, 4), make_field(5), e01[:6])):
            with pytest.raises(ValueError, match="basis matrix 1"):
                LinearCode(p, f, (SkewMat(p, f, e01[:6]), other))
        # GF(8) under its other irreducible modulus, x^3 + x^2 + 1
        p8 = SchemeParams(8, 3)
        other = SkewMat(p8, make_field(8, (1, 0, 1, 1)), (1, 0, 0))
        with pytest.raises(ValueError, match="basis matrix 0"):
            LinearCode(p8, make_field(8), (other,))
        with pytest.raises(ValueError, match="disagree on q"):
            LinearCode(p, make_field(5), ())

    def test_rejects_row_tuples(self):
        # a coordinate row used to give a bare AttributeError on .params
        p, f = SchemeParams(3, 4), make_field(3)
        row = (1, 0, 0, 0, 0, 0)
        with pytest.raises(TypeError, match="entry 1 .*LinearCode.from_rows"):
            LinearCode(p, f, (SkewMat(p, f, row), row))
        assert LinearCode.from_rows(p, f, [row]).basis_rows() == [row]

    def test_from_spanning_reduces(self):
        p = SchemeParams(3, 4)
        f = make_field(3)
        c = LinearCode.from_spanning(
            p, f, [(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
        )
        assert c.k == 2

    def test_size(self, example_code):
        assert example_code.size == 81
        assert example_code.k == 4


class TestEnumerationPaths:
    def test_small_code_ranked_through_the_table(self, monkeypatch):
        # q=9, t=4: the 9^6 space is under the cap, so even a 2-row code is
        # ranked through its table, built here; the untabled q=9 walk is
        # test_walk_matches_product_oracle[no-table]
        import skewrank.gfcodes as g

        monkeypatch.setattr(g, "_RANK_TABLES", {})
        monkeypatch.setattr(g, "_alt_rank", lambda *args: pytest.fail("_alt_rank"))
        p = SchemeParams(9, 4)
        f = make_field(9)
        c = LinearCode.from_rows(p, f, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 5)])
        wd = weight_distribution(c)
        assert g._rank_table_key(p, f) in g._RANK_TABLES
        assert wd.size == 81
        assert wd.counts[0] == 1
        # words with both blocks nonzero have skew rank 2
        assert wd.counts == (1, 16, 64)

    def test_prime_field_direct_path(self):
        p = SchemeParams(7, 4)
        f = make_field(7)
        c = LinearCode.from_rows(p, f, [(1, 0, 0, 0, 0, 0)])
        assert weight_distribution(c).counts == (1, 6, 0)

    @pytest.mark.parametrize("mode", ["table", "no-table"])
    def test_walk_matches_product_oracle(self, monkeypatch, mode):
        import skewrank.gfcodes as g

        calls = 0
        if mode == "no-table":
            monkeypatch.setattr(g, "_RANK_TABLE_CAP", 0)
            monkeypatch.setattr(g, "_RANK_TABLES", {})
            real = g._alt_rank

            def counted(*args):
                nonlocal calls
                calls += 1
                return real(*args)

            monkeypatch.setattr(g, "_alt_rank", counted)
        rng = random.Random(57)
        cases = [(q, 4) for q in (2, 3, 4, 5, 7, 8, 9)] + [(2, 5), (3, 5)]
        if mode == "no-table":
            # q = 2 codes of t = 6..8: weight_distribution ranks them in
            # lanes, checked against product_oracle; _word_blocks, which
            # the package runs only at q >= 17, still ranks any q, and its
            # row-list walk is checked on every case directly
            cases += [(2, 6), (2, 7), (2, 8)]
        for q, t in cases:
            p, f = SchemeParams(q, t), make_field(q)
            tbl = rank_table(p, f)
            assert (tbl is None) == (mode == "no-table")
            for k in range(4):
                if q**k > 800:
                    continue
                code = dense_code(p, f, k, rng)
                rows = code.basis_rows()
                # k = 0 walks nothing and counts the zero word alone
                calls = 0
                assert weight_distribution(code).counts == product_oracle(code)
                if mode == "table":
                    # batches of cosets, (q^k - 1)/(q - 1) words in all
                    walk = g._RowWalk(p, f, tbl, rows)
                    assert_batches_are_cosets(code, walk)
                else:
                    # every q <= 16 ranks all its words in lanes, none by
                    # _alt_rank
                    assert calls == 0
                    # the zero word, then block i + 1 the coset
                    # rows[i] + span(rows[i+1:]), each word q - 1 times
                    blocks = list(g._word_blocks(p, f, rows, ()))
                    assert len(blocks) == k + 1
                    assert tuple(blocks[0]) == (1,)
                    for i in range(k):
                        tail = LinearCode(p, f, code.basis[i + 1:])
                        assert tuple(blocks[i + 1]) == tuple(
                            (q - 1) * c for c in product_oracle(tail, rows[i]))
                # find_msrd's coset cand + span(rows), from a random nonzero
                # word and from a nonzero word of the span, which meets zero;
                # without a table find_msrd ranks it in lanes (TestLanes),
                # and _word_blocks, which the package runs only at q >= 17,
                # is checked on it here, one block per word
                cands = [random_nonzero(p.num_coords, q, rng)]
                if k:
                    cands.append(code.basis[-1].scale(rng.randrange(1, q)).upper)
                for cand in cands:
                    if mode == "table":
                        coset = b"".join(walk.coset(cand))
                    else:
                        blocks = list(g._word_blocks(p, f, rows, cand))
                        assert all(sum(block) == 1 for block in blocks)
                        coset = [block.index(1) for block in blocks]
                    assert len(coset) == q**k
                    assert rank_counts(p, coset) == product_oracle(code, cand)
                assert not k or 0 in coset

    # (q, t) -> chunks of the table index: c = 8, 5, 4, 3, 2, 2, 2, 2
    # coordinates a chunk at q = 2, 3, 4, 5, 7, 8, 9, 11
    ROW_WALK_SPACES = {
        (2, 3): 1, (2, 4): 1, (4, 3): 1, (5, 3): 1,
        (2, 5): 2, (3, 4): 2, (3, 5): 2, (5, 4): 2, (11, 3): 2,
        (4, 5): 3, (7, 4): 3, (8, 4): 3, (9, 4): 3,
    }

    # where some code of at most 1000 words has more than 64 words outside
    # C_in spanned by more rows than the N - c high coordinates
    ELIMINATING = {(2, 5), (3, 5), (5, 4), (11, 3)}

    @pytest.mark.parametrize(
        "q,modulus", [(q, None) for q in SUPPORTED_Q] + [(8, (1, 0, 1, 1))])
    def test_chunk_sums_add_digit_by_digit(self, q, modulus):
        # every supported q, and GF(8) under x^3 + x^2 + 1: entry u < q^c
        # of table a is u + a digit by digit in GF(q); entries past q^c are
        # padding the walks never read
        import skewrank.gfcodes as g

        f = make_field(q, modulus)
        c, width, sums = g._chunk_sums(f)
        assert width == q**c <= 256 < q ** (c + 1)
        assert len(sums) == width and {len(s) for s in sums} == {256}
        digits = [[u // q**i % q for i in range(c)] for u in range(width)]
        for a, table in enumerate(sums):
            want = bytes(
                sum(f.add(x, y) * q**i
                    for i, (x, y) in enumerate(zip(du, digits[a])))
                for du in digits)
            assert table[:width] == want, a

    @pytest.mark.parametrize("q,t", sorted(ROW_WALK_SPACES))
    def test_row_walk_matches_product_oracle(self, q, t):
        # every built-in q and (11, 3), tables of one to three chunks, the
        # two cap-size spaces (4,5) and (9,4), inner dimension 0 and k, the
        # zero code, the full space, and k on both sides of N/2
        import skewrank.gfcodes as g

        p, f = SchemeParams(q, t), make_field(q)
        ncoords, c = p.num_coords, g._chunk_sums(f)[0]
        assert -(-ncoords // c) == self.ROW_WALK_SPACES[q, t]
        tbl = rank_table(p, f)
        rng = random.Random(q * 100 + t)
        unit = [tuple(int(i == j) for j in range(ncoords))
                for i in range(ncoords)]
        # rows all low span C_in itself; rows all high meet it in zero
        low = LinearCode.from_rows(p, f, unit[:min(c, ncoords, 3)])
        codes = [zero_code(p, f), low]
        if ncoords > c:
            high = LinearCode.from_rows(p, f, unit[c:][-3:])
            assert len(g._RowWalk(p, f, tbl, high.basis_rows()).x) == 1
            codes.append(high)
        assert len(g._RowWalk(p, f, tbl, low.basis_rows()).x) == q**low.k
        codes += [dense_code(p, f, k, rng) for k in range(1, ncoords)
                  if q**k <= 1000]
        if q ** (ncoords // 2 + 1) <= 1000:
            assert any(2 * code.k > ncoords for code in codes)
        eliminated = set()
        for code in codes:
            walk = g._RowWalk(p, f, tbl, code.basis_rows())
            assert weight_distribution(code).counts == product_oracle(code)
            most = assert_batches_are_cosets(code, walk)
            # the elimination runs when the rows outside C_in outnumber the
            # high coordinates and span more than 64 words, and then finds
            # the largest C_in
            outside = sum(any(r[c:]) for r in code.basis_rows())
            if outside > ncoords - c and q**outside > 64:
                assert len(walk.x) == q**most
                eliminated.add(code.k)
            else:
                assert len(walk.x) <= q**most
            cand = random_nonzero(ncoords, q, rng)
            coset = b"".join(walk.coset(cand))
            assert rank_counts(p, coset) == product_oracle(code, cand)
        assert bool(eliminated) == ((q, t) in self.ELIMINATING), eliminated
        full = weight_distribution(full_space_code(p, f))
        assert full.counts == tuple(xi(p, s) for s in range(p.n + 1))

    def test_walk_memory_is_constant(self):
        # (4,5) is the full space at the cap, 2^20 words in 4096 batches of
        # 256: a walk holding its batches would pass the bound by itself
        big = SchemeParams(4, 5)
        rank_table(big, make_field(4))
        wd, walk_peak = traced_peak(
            weight_distribution, full_space_code(big, make_field(4)))
        assert wd.counts == tuple(xi(big, s) for s in range(big.n + 1))
        assert wd.size == 1 << 20
        assert walk_peak < 1 << 20

        p, f = SchemeParams(3, 5), make_field(3)
        want = rank_table(p, f)
        wd, walk_peak = traced_peak(weight_distribution, full_space_code(p, f))
        assert wd.counts == tuple(xi(p, s) for s in range(p.n + 1))
        assert walk_peak < 1 << 20
        # the build holds the 59 kB table, the 729-byte (3,4) table it
        # borders and one 81-byte block at a time: about 69 kB at its peak
        table, build_peak = traced_peak(_build_rank_table, p, f)
        assert table == want
        assert build_peak < 2 * len(table)

        # the (2,6) build ranks its 2^15 words in one block of bit lanes:
        # 15 lane masks of 4 KiB, the rows the pivot loop rewrites, its ge
        # sets and the 32 kB table, about 190 kB at its peak
        p, f = SchemeParams(2, 6), make_field(2)
        table, build_peak = traced_peak(_build_rank_table, p, f)
        assert table == rank_table(p, f)
        assert build_peak < 8 * len(table)

    def test_xor_path_matches_tuple_path(self, monkeypatch):
        import skewrank.gfcodes as g

        p = SchemeParams(4, 4)
        f = make_field(4)
        rng = random.Random(56)
        code = random_code(p, f, 3, rng)
        want = weight_distribution(code).counts  # with the (4,4) table
        monkeypatch.setattr(g, "_RANK_TABLE_CAP", 0)
        monkeypatch.setattr(g, "_RANK_TABLES", {})
        assert weight_distribution(code).counts == want


def traced_peak(run, *args):
    """run(*args) and the peak of the memory it allocates, traced alone: a
    cache that an earlier traced call filled is not counted against it."""
    tracemalloc.start()
    try:
        out = run(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counted_blocks(monkeypatch, g):
    """Wrap _lane_pivots; returns the list of (entries, ones) of each block."""
    blocks, real = [], g._lane_pivots

    def record(entries, t, ones):
        blocks.append((list(entries), ones))
        return real(entries, t, ones)

    monkeypatch.setattr(g, "_lane_pivots", record)
    return blocks


def counted_byte_blocks(monkeypatch, g):
    """Wrap _byte_pivots; returns the list of each block's entry lengths."""
    lanes, real = [], g._byte_pivots

    def record(entries, t, field):
        lanes.append({len(x) for x in entries})
        return real(entries, t, field)

    monkeypatch.setattr(g, "_byte_pivots", record)
    return lanes


class TestLanes:
    def test_lanes_match_product_oracle(self, monkeypatch, no_tables):
        # blocks of 4 words, so that a code of k > 2 walks 2^(k-2) blocks
        # in Gray order; t = 2..9, and at t = 2, 3 and 4 k up to the full
        # space
        g = no_tables
        monkeypatch.setattr(g, "_LANE_BITS", 2)
        blocks = counted_blocks(monkeypatch, g)
        f, rng = make_field(2), random.Random(21)
        for t in range(2, 10):
            p = SchemeParams(2, t)
            for k in range(min(p.num_coords, 9) + 1):
                code = dense_code(p, f, k, rng)
                blocks.clear()
                assert weight_distribution(code).counts == product_oracle(code)
                assert len(blocks) == 2 ** max(k - 2, 0), (t, k)
                lanes = 2 ** min(k, 2)
                assert {ones for _, ones in blocks} == {(1 << lanes) - 1}

    def test_coset_blocks_match_product_oracle(self, monkeypatch, no_tables):
        # find_msrd's coset cand + span(rows) in blocks of 4 words, from a
        # random nonzero word and from a nonzero word of the span, which
        # meets zero; t = 2..9
        g = no_tables
        monkeypatch.setattr(g, "_LANE_BITS", 2)
        blocks = counted_blocks(monkeypatch, g)
        f, rng = make_field(2), random.Random(22)
        for t in range(2, 10):
            p = SchemeParams(2, t)
            for k in range(min(p.num_coords, 7) + 1):
                code = dense_code(p, f, k, rng)
                rows = code.basis_rows()
                cands = [random_nonzero(p.num_coords, 2, rng)]
                if k:
                    coeffs = random_nonzero(k, 2, rng)
                    cands.append(tuple(sum(c & x for c, x in zip(coeffs, col))
                                       % 2 for col in zip(*rows)))
                for cand in cands:
                    blocks.clear()
                    counts = [0] * (p.n + 1)
                    for block in g._lane_blocks(p, f, rows, cand):
                        for r, c in enumerate(block):
                            counts[r] += c
                    assert tuple(counts) == product_oracle(code, cand), (t, k)
                    assert len(blocks) == 2 ** max(k - 2, 0), (t, k)
                assert not k or counts[0] == 1

    def test_coset_check_stops_at_the_first_low_block(self, monkeypatch,
                                                       no_tables):
        # find_msrd's check ranks blocks up to the first that holds a rank
        # below d and no further
        g = no_tables
        monkeypatch.setattr(g, "_LANE_BITS", 2)
        blocks = counted_blocks(monkeypatch, g)
        f, rng = make_field(2), random.Random(23)
        p = SchemeParams(2, 6)
        stops = set()
        for _ in range(20):
            rows = dense_code(p, f, 5, rng).basis_rows()
            cand = random_nonzero(p.num_coords, 2, rng)
            every = list(g._lane_blocks(p, f, rows, cand))
            for d in range(1, p.n + 1):
                low = [any(block[:d]) for block in every]
                blocks.clear()
                walk = g._lane_blocks(p, f, rows, cand)
                assert any(any(block[:d]) for block in walk) == any(low)
                ranked = low.index(True) + 1 if any(low) else len(every)
                assert len(blocks) == ranked
                stops.add(ranked)
        assert len(stops) > 2
        # cand = rows[2], the first outer row: block 0 is cand + span(rows[:2])
        # and holds no zero, and block 1, its Gray step by rows[2], holds it
        rows = dense_code(p, f, 5, rng).basis_rows()
        blocks.clear()
        walk = g._lane_blocks(p, f, rows, rows[2])
        assert any(any(block[:1]) for block in walk)
        assert len(blocks) == 2

    def test_verify_code_on_lanes(self, monkeypatch, no_tables):
        # (2,7) at k = 16 and its dual at k = 5, both sides in lanes
        from skewrank.macwilliams import verify_code

        blocks = counted_blocks(monkeypatch, no_tables)
        p, f = SchemeParams(2, 7), make_field(2)
        rep = verify_code(random_code(p, f, 16, random.Random(16)))
        assert (rep.k, rep.dual_k) == (16, 5)
        assert rep.verdict
        assert rep.dist.size == 1 << 16 and rep.dual_dist_enum.size == 1 << 5
        assert len(blocks) == 4 + 1

    def test_block_ints_are_no_wider_than_the_block(self, monkeypatch,
                                                    no_tables):
        # at _LANE_BITS = 14 a k = 18 code is 16 blocks of 2^14 words
        blocks = counted_blocks(monkeypatch, no_tables)
        p, f = SchemeParams(2, 7), make_field(2)
        code = random_code(p, f, 18, random.Random(18))
        assert weight_distribution(code).size == 1 << 18
        assert len(blocks) == 16
        for entries, ones in blocks:
            assert ones == (1 << (1 << 14)) - 1
            assert max(x.bit_length() for x in entries) <= 1 << 14

    BYTE_FIELDS = [(q, None) for q in (3, 4, 5, 7, 8, 9, 11, 13)] + [
        (16, (1, 1, 0, 0, 1))]

    @pytest.mark.parametrize("q,modulus", BYTE_FIELDS)
    def test_byte_lanes_match_product_oracle(self, monkeypatch, no_tables, q,
                                             modulus):
        # 2 < q <= 16 on byte lanes, GF(16) under x^4 + x + 1 the q^2 = 256
        # edge of a byte.  Blocks of at most 16 words: q^b lanes, b = 2 at
        # q = 3, 4 and 1 above, so that k > b walks q^(k-b) blocks over the
        # outer rows' F_p-basis in p-ary Gray order.  Each code is ranked by
        # weight_distribution, and its cosets from zero, a random nonzero
        # start and a nonzero start in the span, which meets rank 0 once
        g = no_tables
        monkeypatch.setattr(g, "_LANE_BITS", 4)
        monkeypatch.setattr(g, "_word_blocks",
                            lambda *args: pytest.fail("_word_blocks"))
        lanes = counted_byte_blocks(monkeypatch, g)
        f, rng = make_field(q, modulus), random.Random(q)
        walks = 0
        for t in range(2, 6):
            p = SchemeParams(q, t)
            for k in range(min(p.num_coords, 3) + 1):
                if q**k > 800:
                    continue
                code = dense_code(p, f, k, rng)
                rows = code.basis_rows()
                assert weight_distribution(code).counts == product_oracle(code)
                starts = [(), random_nonzero(p.num_coords, q, rng)]
                if k:
                    word = code.basis[0].scale(0)
                    for c, m in zip(random_nonzero(k, q, rng), code.basis):
                        word = word.add(m.scale(c))
                    starts.append(word.upper)
                b = min(k, 2 if q <= 4 else 1)
                for start in starts:
                    lanes.clear()
                    counts = [0] * (p.n + 1)
                    for block in g._lane_blocks(p, f, rows, start):
                        for r, c in enumerate(block):
                            counts[r] += c
                    assert tuple(counts) == product_oracle(code, start), (t, k)
                    assert len(lanes) == q ** (k - b), (t, k)
                    assert lanes == [{q**b}] * len(lanes)
                    walks += len(lanes) > 1
                if k:
                    assert counts[0] == 1
        assert walks

    def test_byte_blocks_hold_at_most_2_14_words(self, monkeypatch,
                                                 no_tables):
        # 3^8 <= 2^14 < 3^9: a (3,6) k = 10 code is 9 blocks of 3^8 words
        lanes = counted_byte_blocks(monkeypatch, no_tables)
        p, f = SchemeParams(3, 6), make_field(3)
        dist = weight_distribution(random_code(p, f, 10, random.Random(10)))
        assert dist.size == 3**10 and dist.counts[0] == 1
        assert lanes == [{3**8}] * 9

    @pytest.mark.parametrize("q,modulus", [(17, None), (25, (1, 1, 1)),
                                           (32, (1, 0, 0, 1, 0, 1))])
    def test_q17_ranks_word_by_word(self, monkeypatch, no_tables, q, modulus):
        # q >= 17 has no byte-lane form: _lane_blocks ranks one word per
        # line through zero from zero, and every word from a start, each by
        # _alt_rank; GF(25) and GF(32) walk e > 1 basis vectors a row
        g = no_tables
        for lanes in ("_bit_blocks", "_byte_blocks"):
            monkeypatch.setattr(g, lanes,
                                lambda *args, name=lanes: pytest.fail(name))
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _alt_rank(*args)

        monkeypatch.setattr(g, "_alt_rank", counted)
        p, f, rng = SchemeParams(q, 4), make_field(q, modulus), random.Random(q)
        for k in range(3):
            code = dense_code(p, f, k, rng)
            rows = code.basis_rows()
            calls = 0
            assert weight_distribution(code).counts == product_oracle(code)
            assert calls == (q**k - 1) // (q - 1)
            # a random start, and a nonzero start in the span, which meets
            # rank 0 once
            starts = [random_nonzero(p.num_coords, q, rng)]
            if k:
                word = code.basis[0].scale(0)
                for c, m in zip(random_nonzero(k, q, rng), code.basis):
                    word = word.add(m.scale(c))
                starts.append(word.upper)
            for start in starts:
                calls = 0
                counts = [0] * (p.n + 1)
                for block in g._lane_blocks(p, f, rows, start):
                    for r, c in enumerate(block):
                        counts[r] += c
                assert tuple(counts) == product_oracle(code, start), k
                assert calls == q**k
            if k:
                assert counts[0] == 1




class TestForbiddenLanes:
    @pytest.mark.parametrize("t", (4, 5, 6))
    def test_matches_brute_force_over_the_coset(self, t):
        # find_msrd's q = 2 test with a table, one bit per word of the
        # forbidden set B_{<d} + span(basis) grown a row at a time, against
        # every word of cand + span(basis) ranked by skew_rank, the _rref
        # oracle, which shares no code with the lanes or the table; random
        # bases of k = 0 .. N - 1 rows, random candidates, one in the span
        # and zero, and every 2 <= d <= n
        p, f, rng = SchemeParams(2, t), make_field(2), random.Random(60 + t)
        ncoords = p.num_coords
        words = [bytes(w >> i & 1 for i in range(ncoords))
                 for w in range(1 << ncoords)]
        oracle = [skew_rank(SkewMat(p, f, tuple(word))) for word in words]
        tests = {d: _rank_below(p, f, d) for d in range(2, p.n + 1)}
        assert {type(below).__name__ for below in tests.values()} == {
            "_ForbiddenLanes"}
        seen = set()
        for k in range(ncoords):
            rows = list(map(bytes, dense_code(p, f, k, rng).basis_rows()))
            span = [0]
            for row in rows:
                at = words.index(row)
                span += [w ^ at for w in span]
            cands = [rng.randrange(1, 1 << ncoords) for _ in range(6)]
            cands += [rng.choice(span), 0]
            lowest = {c: min(oracle[c ^ w] for w in span) for c in cands}
            for d, below in tests.items():
                below.clear()
                for row in rows:
                    below.join(row)
                for c in cands:
                    want = lowest[c] < d
                    assert below.test(words[c]) == want, (t, k, d, c)
                    seen.add(want)
        assert seen == {False, True}


class TestSkewMatArithmetic:
    def test_add_scale_zero(self):
        p = SchemeParams(3, 4)
        f = make_field(3)
        a = SkewMat(p, f, (1, 2, 0, 0, 1, 0))
        b = SkewMat(p, f, (2, 1, 0, 0, 2, 0))
        assert a.add(b).upper == (0, 0, 0, 0, 0, 0)
        assert a.add(b).is_zero()
        assert a.scale(2).upper == (2, 1, 0, 0, 2, 0)
        assert a.scale(0).is_zero()
        assert a == SkewMat(p, f, (1, 2, 0, 0, 1, 0))
        assert a != b


class TestZeroCodeFormat:
    def test_parse_zero_code(self):
        code = parse_code("q=3 t=4 k=0\n")
        assert code.k == 0
        assert weight_distribution(code).counts == (1, 0, 0)

    def test_zero_code_round_trip(self):
        p = SchemeParams(2, 5)
        z = zero_code(p, make_field(2))
        text = serialize_code(z)
        assert parse_code(text).k == 0
        assert serialize_code(parse_code(text)) == text
