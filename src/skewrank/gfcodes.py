"""Finite-field core: GF(q) arithmetic, alternating matrices, codes.

A t x t alternating matrix is stored as its strict upper triangle, a
vector of t(t-1)/2 field elements in row-major position order
(1,2),(1,3),...,(1,t),(2,3),...,(t-1,t).  The diagonal is zero in every
characteristic, so the upper triangle determines the matrix.

Field elements are encoded as integers 0..q-1; for q = p^e the base-p
digits of the integer are the polynomial coordinates, low degree first.
"""

from __future__ import annotations

import random
import warnings
from itertools import islice, product
from operator import mul

from .qcombinat import SchemeParams, _Record, factor_prime_power, xi

DEFAULT_BUDGET = 1 << 26
_RANK_TABLE_CAP = 1 << 20

# Irreducible moduli over F_p for the built-in non-prime fields,
# coefficients low degree first.
_BUILTIN_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),        # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1 over F_2
    9: (1, 0, 1),        # x^2 + 1 over F_3
}
_MAX_PRIME = 97
_SUPPORTED_MSG = (
    "supported q: primes up to 97, and prime powers 4, 8, 9 "
    "(other prime powers need an explicit irreducible modulus)"
)


class CodeFormatError(ValueError):
    """Malformed code file."""


class EnumerationBudgetError(RuntimeError):
    """A requested enumeration exceeds the configured budget."""


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


class FieldSpec:
    """Arithmetic tables for GF(q), q = p^e, as F_p[x]/(f) for a monic f.

    An element is a polynomial of degree < e over F_p, encoded by its
    base-p digits, and a prime field is the case e = 1, f = x.  The
    quotient ring is a field exactly when f is irreducible (Lidl and
    Niederreiter, Finite Fields, ch. 1 and 3).  A proper factor g of f is a
    nonzero element with g (f/g) = 0, so no element times g is 1: a
    reducible f shows up as a row of the mul table with no 1, and is
    refused.
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_plus", "_mul", "_neg",
                 "_inv")

    def __init__(self, q: int, modulus: tuple[int, ...] | None = None):
        p, e = factor_prime_power(q)
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus is not None:
                raise ValueError(f"q={q} is prime; no modulus applies")
            self.modulus = None
            f = (0, 1)
        else:
            if modulus is None:
                raise ValueError(f"q={q} needs an irreducible modulus")
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) == e:  # leading 1 left implicit
                modulus = modulus + (1,)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {e} over F_{p}"
                )
            self.modulus = f = modulus
        place = [p**j for j in range(e)]
        add = [[sum((a // w + b // w) % p * w for w in place)
                for b in range(q)] for a in range(q)]
        # x v shifts the digits up; a top digit, at x^(e-1), wraps to
        # x^e = -(f_0 + ... + f_(e-1) x^(e-1)): x v = x (v - x^(e-1)) + x^e
        top = q // p
        wrap = sum(-c % p * w for c, w in zip(f, place))
        times_x = []
        for v in range(q):
            times_x.append(add[times_x[v - top]][wrap] if v >= top else v * p)
        # b = x b' + d: a b is a (b - 1) + a when d > 0, else x (a b')
        mul = []
        for a in range(q):
            row = [0]
            for b in range(1, q):
                row.append(add[row[-1]][a] if b % p else times_x[row[b // p]])
            mul.append(row)
        if any(1 not in row for row in mul[1:]):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self._add = add
        # the add rows as translate tables u -> u + a, padded to 256 bytes
        self._plus = [bytes(row).ljust(256, b"\0") for row in add]
        self._mul = mul
        self._neg = mul[p - 1]  # the integer p - 1 encodes -1
        self._inv = [0] + [row.index(1) for row in mul[1:]]
        self._spot_check()

    def _spot_check(self) -> None:
        q = self.q
        for a in range(1, q):
            if self._add[a][self._neg[a]] != 0:
                raise ArithmeticError(f"no negative for {a} in GF({q})")
        if any(self._mul[1][b] != b for b in range(q)):
            raise ArithmeticError(f"1 is not the identity of GF({q})")

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def table_key(self) -> tuple:
        return (self.q, self.modulus)

    def __repr__(self) -> str:
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple, FieldSpec] = {}


def make_field(q: int, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """GF(q) for prime q <= 97 or built-in prime powers {4, 8, 9}.

    Other prime powers are accepted only with an explicit irreducible
    modulus; anything else is rejected naming the supported set.
    """
    try:
        p, e = factor_prime_power(q)
    except ValueError:
        raise ValueError(f"q={q} is not a prime power; {_SUPPORTED_MSG}") from None
    if q > _MAX_PRIME:
        raise ValueError(f"q={q} is too large; {_SUPPORTED_MSG}")
    if e > 1 and modulus is None:
        if q not in _BUILTIN_MODULI:
            raise ValueError(f"q={q} has no built-in modulus; {_SUPPORTED_MSG}")
        modulus = _BUILTIN_MODULI[q]
    key = (q, tuple(modulus) if modulus is not None else None)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = FieldSpec(q, modulus)
        _FIELD_CACHE[(q, field.modulus)] = field
        _FIELD_CACHE[key] = field
    return field


# ---------------------------------------------------------------------------
# alternating matrices
# ---------------------------------------------------------------------------


def upper_positions(t: int) -> list[tuple[int, int]]:
    """Row-major strict-upper positions, 0-based."""
    return [(i, j) for i in range(t) for j in range(i + 1, t)]


def _alt_rows(t: int, field: FieldSpec, coords, pos=None) -> list[list[int]]:
    """Upper-triangle coords as the t rows of the full alternating matrix;
    a caller converting many passes pos = upper_positions(t) once."""
    neg = field._neg
    rows = [[0] * t for _ in range(t)]
    for (i, j), v in zip(pos or upper_positions(t), coords):
        rows[i][j] = v
        rows[j][i] = neg[v]
    return rows


class SkewMat:
    """Alternating t x t matrix over GF(q), stored as its upper triangle."""

    __slots__ = ("params", "field", "upper")

    def __init__(self, params: SchemeParams, field: FieldSpec,
                 upper: tuple[int, ...]):
        if field.q != params.q:
            raise ValueError("field and params disagree on q")
        if len(upper) != params.num_coords:
            raise ValueError(
                f"need {params.num_coords} entries, got {len(upper)}"
            )
        if any(type(v) is not int for v in upper):  # a bool is not an entry
            raise TypeError("entries must be ints encoding field elements")
        if any(not (0 <= v < field.q) for v in upper):
            raise ValueError("entry out of range for the field")
        self.params = params
        self.field = field
        self.upper = tuple(upper)

    def full_matrix(self) -> list[list[int]]:
        return _alt_rows(self.params.t, self.field, self.upper)

    def is_zero(self) -> bool:
        return not any(self.upper)

    def add(self, other: "SkewMat") -> "SkewMat":
        f = self.field
        return SkewMat(
            self.params, f,
            tuple(f.add(a, b) for a, b in zip(self.upper, other.upper)),
        )

    def scale(self, c: int) -> "SkewMat":
        f = self.field
        return SkewMat(self.params, f, tuple(f.mul(c, v) for v in self.upper))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkewMat):
            return NotImplemented
        return (
            self.params == other.params
            and self.field.table_key() == other.field.table_key()
            and self.upper == other.upper
        )

    def __hash__(self) -> int:
        return hash((self.params, self.field.table_key(), self.upper))

    def __repr__(self) -> str:
        return f"SkewMat(q={self.params.q}, t={self.params.t}, {self.upper})"


def skew_rank(a: SkewMat) -> int:
    """Half the column rank of the full matrix; the rank is always even."""
    rank = len(_rref(a.full_matrix(), a.field)[1])
    if rank % 2:
        raise ArithmeticError(f"alternating matrix with odd rank {rank}")
    return rank // 2


def _alt_rank(mat: list[list[int]], t: int, field: FieldSpec) -> int:
    """Skew rank of an alternating t x t matrix, given as a list of t rows
    of field elements, by symplectic pair pivots: the number of pairs
    _pair_pivots finds, stopping at pair t // 2, after which no further
    pair fits.  It ranks any q, but the package calls it only where
    _lane_blocks sends a space with no table to _word_blocks.  mat is not
    mutated.
    """
    return len(_pair_pivots(list(mat), t, field, t // 2))


def _pair_pivots(rows: list[list[int]], t: int, field: FieldSpec,
                 stop: int = 0) -> list[tuple[int, int, list[int]]]:
    """Pair pivots of the alternating t x t matrix A in the first t columns
    of rows.

    Each step takes the first row i with a nonzero entry and its first
    nonzero column j (j > i), and replaces every later row k by
    row_k + (A_ki row_j - A_kj row_i) / A_ij: the Schur complement of the
    2 x 2 block, alternating again, with columns i and j zero.  Each step
    splits off one hyperbolic pair, so the skew rank is the number of steps
    (Delsarte-Goethals, JCTA 19, 1975).  Row j becomes zero and row i stays
    as it is.  A step is a row operation, so columns past the t-th follow
    it.  rows is updated in place, each row replaced, never written into.
    Returns each pivot as (i, j, row j before its step); a nonzero stop
    ends the loop at pivot number stop, before its update.
    """
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    pivots = []
    for i in range(t - 1):
        ri = rows[i]
        for j in range(i + 1, t):
            if ri[j]:
                break
        else:
            continue
        rj = rows[j]
        pivots.append((i, j, rj))
        if len(pivots) == stop:
            break
        rows[j] = [0] * len(rj)
        scale = mul[inv[ri[j]]]
        for k in range(i + 1, t):
            rk = rows[k]
            if rk[i] or rk[j]:
                a, b = mul[scale[rk[i]]], mul[neg[scale[rk[j]]]]
                rows[k] = [add[add[x][a[y]]][b[z]]
                           for x, y, z in zip(rk, rj, ri)]
    return pivots


def _pair_off(afull: list[list[int]],
              field: FieldSpec) -> tuple[list[list[int]], list[list[int]]]:
    """Hyperbolic pairs u1, v1, u2, v2, ... of an alternating A, and the rest.

    _pair_pivots on the rows of [A | I], run to the end.  Its row
    operations keep each row [R_k A | R_k], and add to later rows only rows
    i and j as they stand, so the pairs and the rows left are a basis.  A
    pivot (i, j) with g = A_ij at its step gives u = R_i, v = R_j / g.
    u A v^T = 1, as R_i A is zero on the columns of earlier pivots, the
    only ones where R_j differs from e_j; every later row ends zero on
    columns i and j, so pairs to zero with u and v.  The t - 2s rows left
    end with R_k A = 0, found zero by the loop or, the last row, zeroed by
    the final update (so the loop must not stop early): a basis of ker A.
    """
    t = len(afull)
    rows = [row + [0] * t for row in afull]
    for i, row in enumerate(rows):
        row[t + i] = 1
    pairs, paired = [], set()
    for i, j, rj in _pair_pivots(rows, t, field):
        scale = field._mul[field._inv[rows[i][j]]]
        pairs += [rows[i][t:], [scale[x] for x in rj[t:]]]
        paired |= {i, j}
    return pairs, [row[t:] for k, row in enumerate(rows) if k not in paired]


def canonical_decompose(a: SkewMat) -> tuple[list[list[int]], int]:
    """Nonsingular P with P A P^T = diag{E2 x s, 0} and s the skew rank.

    P is the hyperbolic pairs that _pair_off's pivot loop on [A | I]
    finds, then the basis of ker A it leaves.
    """
    field = a.field
    t = a.params.t
    add, mul, neg = field._add, field._mul, field._neg
    afull = a.full_matrix()
    pairs, kernel = _pair_off(afull, field)
    p_rows = pairs + kernel
    s = len(pairs) // 2

    # self-verifying postcondition: P A P^T, recomputed from A, is the
    # canonical block form
    want = [[0] * t for _ in range(t)]
    for i in range(0, 2 * s, 2):
        want[i][i + 1], want[i + 1][i] = 1, neg[1]
    for i, x in enumerate(p_rows):
        xa = [0] * t
        for xk, ak in zip(x, afull):
            xa = [add[c][mul[xk][e]] for c, e in zip(xa, ak)]
        for j, y in enumerate(p_rows):
            got = 0
            for c, e in zip(xa, y):
                got = add[got][mul[c][e]]
            if got != want[i][j]:
                raise ArithmeticError(f"canonical form violated at ({i},{j})")
    return p_rows, s


# ---------------------------------------------------------------------------
# full-space rank tables (exhaustive enumeration backend)
# ---------------------------------------------------------------------------

_RANK_TABLES: dict[tuple, bytearray] = {}

_NONZERO = b"\0" + b"\xff" * 255  # any field's labels: 0 -> 0, else -> 0xFF


def _form_values(coeffs, field: FieldSpec, start: int = 0) -> bytes:
    """start + sum_i c_i coeffs[i] at every c in F_q^len(coeffs), as byte
    number sum_i c_i q^i: coefficient g appends to the bytes x so far
    x + c g for c = 1..q-1, one translate each, or copies of x at g = 0."""
    q, mul, plus = field.q, field._mul, field._plus
    x = bytes([start])
    for g in coeffs:
        x = b"".join([x] + [x.translate(plus[mul[c][g]])
                            for c in range(1, q)]) if g else x * q
    return x


def _rank_table_key(params: SchemeParams, field: FieldSpec) -> tuple:
    return (params.t, field.table_key())


def _build_rank_table(params: SchemeParams, field: FieldSpec) -> bytearray:
    """Skew rank of every matrix in the space, indexed by packed coords:
    index = sum of coords[i] q^i, coordinate 0 the lowest digit.

    Where _lane_bits gives bit lanes (q = 2) the whole space is one block
    of 2^N lanes, N = t(t-1)/2 <= 15 under the cap, so each entry is one
    int of at most 4 KiB.  Entry i is coordinate i's unit lane mask from
    _lane_masks, the lanes w with bit i of w set, so lane w is the word of
    index w; _lane_pivots ranks every lane at once, and lane w's rank, the
    number of s >= 1 with w in ge[s], is byte w of the table.

    At q > 2 the table is built from the (t-1)-space's by bordering, which
    is faster there than byte lanes: (3,5) in 3.6 ms against 14 ms for
    ranking its words in byte lanes alone, (4,5) in 16 ms against 250 ms.
    Write M = [[0, b^T], [-b, A]], b the first row of M past its diagonal
    and A the alternating (t-1) x (t-1) rest.  Then
    rank M = rank A + 2 [b not in Im A], and Im A = (ker A)^perp because
    A^T = -A, so in every characteristic

        skew_rank M = skew_rank A + [b . k != 0 for some k in ker A],

    the step behind Carlitz's census.  b is coordinates 0..t-2, the low
    digits of the index, and A's coordinates follow in the (t-1)-space's own
    order, so index(M) = index(b) + q^(t-1) index(A).  Block a of the table,
    its q^(t-1) contiguous entries, is therefore small[a] plus the indicator
    of {b : b . k != 0 for some k in a basis of ker A}, b . k at every b
    from _form_values once per k in one build.  Only the matrices A of the
    (t-1)-space are reduced, by _pair_off, and none with 2 small[a] = t - 1:
    that A is invertible and its block constant.  The recursion starts at
    t = 2, [0, 1, ..., 1].  Every table's census is checked against xi.
    """
    q, t = field.q, params.t
    if _lane_bits(field) == 1:
        masks, ones = _lane_masks(params.num_coords)
        ge, lanes = _lane_pivots(masks, t, ones), 1 << params.num_coords
        # lane w is char w from the right of ge[s]'s binary digits
        bit = bytes.maketrans(b"01", b"\0\1")
        ranks = sum(int.from_bytes(f"{g:0{lanes}b}".encode().translate(bit),
                                   "big") for g in ge[1:])
        table = bytearray(ranks.to_bytes(lanes, "little"))
    elif t == 2:
        table = bytearray([0] + [1] * (q - 1))
    else:
        table = _border(_build_rank_table(SchemeParams(q, t - 1), field),
                        t, field)
    for s in range(params.n + 1):
        if table.count(s) != xi(params, s):
            raise ArithmeticError(
                f"rank table of {params} holds {table.count(s)} matrices of "
                f"skew rank {s}, not xi = {xi(params, s)}"
            )
    return table


def _border(small: bytearray, t: int, field: FieldSpec) -> bytearray:
    """The t-space's rank table from `small`, the (t-1)-space's, block by
    block, as _build_rank_table sets out: ker A from _pair_off, and b . k
    at every b from _form_values."""
    q = field.q
    width = q ** (t - 1)
    lift = [bytes([s]) * 255 + bytes([s + 1]) for s in range(t // 2)]
    full = bytes([(t - 1) // 2]) * width
    hits: dict[tuple[int, ...], int] = {}  # k -> {b : b . k != 0} as an int
    pos = upper_positions(t - 1)
    table = bytearray(len(small) * width)
    for a, coords in enumerate(product(range(q), repeat=len(pos))):
        s = small[a]
        at = a * width
        if 2 * s == t - 1:
            table[at:at + width] = full
            continue
        # product varies its last coordinate fastest, the index its first
        mat = _alt_rows(t - 1, field, reversed(coords), pos)
        hit = 0
        for k in map(tuple, _pair_off(mat, field)[1]):
            if k not in hits:
                hits[k] = int.from_bytes(
                    _form_values(k, field).translate(_NONZERO), "little")
            hit |= hits[k]
        table[at:at + width] = hit.to_bytes(width, "little").translate(lift[s])
    return table


def rank_table(params: SchemeParams, field: FieldSpec) -> bytearray | None:
    """Cached full-space rank table, or None when the space is too large."""
    if field.q != params.q:
        raise ValueError("field and params disagree on q")
    if field.q**params.num_coords > _RANK_TABLE_CAP:
        return None
    key = _rank_table_key(params, field)
    tbl = _RANK_TABLES.get(key)
    if tbl is None:
        tbl = _build_rank_table(params, field)
        _RANK_TABLES[key] = tbl
    return tbl


def rank_census(params: SchemeParams, field: FieldSpec | None = None) -> list[int]:
    """Counts of matrices by skew rank over the whole space."""
    field = field or make_field(params.q)
    tbl = rank_table(params, field)
    if tbl is None:
        raise EnumerationBudgetError(
            f"full space q^{params.num_coords} exceeds the rank-table cap"
        )
    return [tbl.count(r) for r in range(params.n + 1)]


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------


class WeightDist(_Record):
    """Counts of codewords by skew rank 0..n: n + 1 nonnegative ints."""

    __slots__ = ("params", "counts")

    def __init__(self, params: SchemeParams, counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "counts", counts)
        if len(counts) != params.n + 1:
            raise ValueError(f"need {params.n + 1} counts, got {len(counts)}")
        for c in counts:
            if type(c) is not int:
                raise TypeError(f"count {c!r} is not an int")
            if c < 0:
                raise ValueError("negative count")

    @property
    def size(self) -> int:
        return sum(self.counts)


def _rref(rows: list, field: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """RREF of a copy of the int rows, and its pivot columns; zero rows dropped."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        c = prow[col]
        if c != 1:
            scale = mul[inv[c]]
            m[rank] = prow = [scale[v] for v in prow]
        for r in range(nrows):
            if r != rank and m[r][col]:
                scale = mul[neg[m[r][col]]]
                m[r] = [add[a][scale[b]] for a, b in zip(m[r], prow)]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


class LinearCode:
    """F_q-linear code of alternating matrices, given by an independent basis."""

    __slots__ = ("params", "field", "basis")

    def __init__(self, params: SchemeParams, field: FieldSpec,
                 basis: tuple[SkewMat, ...]):
        if field.q != params.q:
            raise ValueError("field and params disagree on q")
        for i, b in enumerate(basis):
            if not isinstance(b, SkewMat):
                raise TypeError(f"basis entry {i} is not a SkewMat; build a "
                                "code from rows with LinearCode.from_rows")
            if b.params != params or b.field.table_key() != field.table_key():
                raise ValueError(
                    f"basis matrix {i} is not in the code's space "
                    f"(q={params.q}, t={params.t}, modulus {field.modulus})"
                )
        red, _ = _rref([b.upper for b in basis], field)
        if len(red) != len(basis):
            raise ValueError("basis rows are linearly dependent")
        self.params = params
        self.field = field
        self.basis = tuple(basis)

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.field.q**self.k

    @classmethod
    def from_rows(cls, params: SchemeParams, field: FieldSpec,
                  rows: list[tuple[int, ...]]) -> "LinearCode":
        return cls(params, field,
                   tuple(SkewMat(params, field, tuple(r)) for r in rows))

    @classmethod
    def from_spanning(cls, params: SchemeParams, field: FieldSpec,
                      rows: list[tuple[int, ...]]) -> "LinearCode":
        """Reduce a spanning set to an independent basis (RREF form)."""
        return cls.from_rows(params, field, _rref(rows, field)[0])

    def basis_rows(self) -> list[tuple[int, ...]]:
        return [b.upper for b in self.basis]

    def __repr__(self) -> str:
        return (f"LinearCode(q={self.params.q}, t={self.params.t}, "
                f"k={self.k})")


def zero_code(params: SchemeParams, field: FieldSpec) -> LinearCode:
    return LinearCode(params, field, ())


def full_space_code(params: SchemeParams, field: FieldSpec) -> LinearCode:
    ncoords = params.num_coords
    rows = []
    for i in range(ncoords):
        v = [0] * ncoords
        v[i] = 1
        rows.append(tuple(v))
    return LinearCode.from_rows(params, field, rows)


def random_code(params: SchemeParams, field: FieldSpec, k: int,
                rng: random.Random) -> LinearCode:
    """Uniformly sampled k-dimensional code (resampled until independent)."""
    ncoords = params.num_coords
    if not 0 <= k <= ncoords:
        raise ValueError(f"dimension k={k} out of range 0..{ncoords}")
    while True:
        rows = [tuple(rng.randrange(field.q) for _ in range(ncoords))
                for _ in range(k)]
        code = LinearCode.from_spanning(params, field, rows)
        if code.k == k:
            return code


def dual(code: LinearCode) -> LinearCode:
    """Kernel of the coordinate pairing sum_{i<j} a_ij b_ij.

    For odd q this pairing has the same kernel as the trace form (the
    factor 2 is invertible); over characteristic 2 the trace form is
    identically zero and the coordinate pairing is the scheme duality.
    """
    params, field = code.params, code.field
    ncoords = params.num_coords
    red, pivots = _rref(code.basis_rows(), field)
    free = [c for c in range(ncoords) if c not in pivots]
    neg = field._neg
    rows = []
    for f in free:
        v = [0] * ncoords
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[red[r][f]]
        rows.append(tuple(v))
    return LinearCode.from_rows(params, field, rows)


def weight_distribution(code: LinearCode,
                        budget: int = DEFAULT_BUDGET) -> WeightDist:
    """Counts of codewords by skew rank over all q^k words.

    With no table (the space is over _RANK_TABLE_CAP, a memory cap) the
    blocks of _lane_blocks are summed.  With one (built once per process)
    the words are read from it one table row at a time by _RowWalk, in
    batches of at most 256 ranks that are joined 64 at a time, counted and
    dropped: one word on each line through zero is ranked, the zero word
    counts once, and every other rank q - 1 times, once per nonzero
    multiple of its word.  Memory beyond the table and the per-field tables
    is O(1) in q^k: one group of batches, at most 16 KiB, or one block.
    """
    params, field = code.params, code.field
    size = field.q**code.k
    if size > budget:
        raise EnumerationBudgetError(
            f"q^k = {size} exceeds the enumeration budget {budget}"
        )
    n, multiples = params.n, field.q - 1
    ranked = [0] * (n + 1)
    tbl = rank_table(params, field)
    if tbl is None:
        # a block stops at its top rank, so it is not zipped
        for block in _lane_blocks(params, field, code.basis_rows()):
            for r, c in enumerate(block):
                ranked[r] += c
        return WeightDist(params, tuple(ranked))
    batches = _RowWalk(params, field, tbl, code.basis_rows()).lines()
    while group := b"".join(islice(batches, 64)):
        for r in range(1, n + 1):
            ranked[r] += group.count(r)
    return WeightDist(params, (1, *(multiples * c for c in ranked[1:])))


def _rank_below(params: SchemeParams, field: FieldSpec, rows, d: int):
    """A test on a word w: does w + span(rows) hold a word of skew rank
    below d?  With a table it reads the coset by one _RowWalk, set up here
    so that no elimination runs per word; with none it ranks the coset by
    _lane_blocks.  It stops at the first batch or block holding a rank
    below d."""
    tbl = rank_table(params, field)
    if tbl is None:
        rows = tuple(rows)
        return lambda w: any(any(block[:d]) for block
                             in _lane_blocks(params, field, rows, w))
    walk = _RowWalk(params, field, tbl, rows)
    return lambda w: any(map(d.__gt__, map(min, walk.coset(w))))


# _lane_blocks ranks a coset in blocks of at most 2^_LANE_BITS words, so each
# entry's int is at most 2 KiB at q = 2 and 16 KiB at 2 < q <= 16.  Measured
# on a 2-core host (Python 3.11, -O, one random code each) with q = 2 blocks
# of 2^12, 2^14, 2^16 and 2^18 words: (2,8) k=22 72, 32, 24 and 102 ms; (2,7)
# k=20 12, 5.9, 8.7 and 88 ms
_LANE_BITS = 14


def _lane_bits(field: FieldSpec) -> int:
    """Bits a lane takes for one word of the field, or 0 for none: 1 at
    q = 2, bit-sliced, 8 at 2 < q <= 16, a byte whose field ops are
    translates, and 0 at q >= 17, where a byte cannot hold two labels.
    The one cut on q between the rankers: _lane_blocks picks by it, and
    _build_rank_table builds its q = 2 tables in bit lanes."""
    q = field.q
    return 1 if q == 2 else 8 if q <= 16 else 0


def _lane_blocks(params: SchemeParams, field: FieldSpec, rows, start=()):
    """The ranker of every space no table covers, at every q; start is a
    word, or () for zero.

    The blocks partition the q^k words of start + span(rows).  Each block
    is a sequence of counts by skew rank, at most n + 1 long, and is ranked
    as the caller asks for it, so a caller may stop after any block:
    weight_distribution sums them all, and _rank_below stops at the first
    with a rank below d.  By _lane_bits, q = 2 goes to bit lanes
    (_bit_blocks), 2 < q <= 16 to byte lanes (_byte_blocks), and q >= 17
    one word at a time (_word_blocks).
    """
    bits = _lane_bits(field)
    if bits == 1:
        return _bit_blocks(params, rows, start)
    if bits:
        return _byte_blocks(params, field, rows, start)
    return _word_blocks(params, field, rows, start)


def _lane_masks(b: int) -> tuple[list[int], int]:
    """The unit lane masks of one block of 2^b bit lanes, mask r the lanes
    w with bit r of w set, and the block's all-lanes int."""
    ones, masks = (1 << (1 << b)) - 1, []
    for r in range(b):
        run = 1 << r  # lanes w alternate runs of 2^r with bit r clear and set
        masks.append(ones // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    return masks, ones


def _lane_counts(ge: list[int], bits: int) -> list[int]:
    """Counts by skew rank of one block of lanes from its ge sets, ge[s]
    the lanes with at least s pivots, each lane `bits` set bits."""
    sizes = [g.bit_count() // bits for g in ge] + [0]
    return [x - y for x, y in zip(sizes, sizes[1:])]


def _bit_blocks(params: SchemeParams, rows, start):
    """_lane_blocks at q = 2, in blocks of 2^b words, b = min(k, _LANE_BITS).

    The words of a block are bit-sliced (Biham, FSE 1997): entry e of the
    upper triangle is one int whose bit w is entry e of word w, the word of
    lane w.  The first block is start + span(rows[:b]): entry e starts as
    all ones where start is 1, else 0, and inner row r's unit lane mask
    (_lane_masks), whose bit w is bit r of w, is XORed into the entries
    where row r is 1.  The other blocks are its cosets, walked over the
    outer rows rows[b:] by _gray_steps: a step XORs all ones into the
    entries where its row is 1, and _lane_pivots ranks each block.
    """
    b = min(len(rows), _LANE_BITS)
    masks, ones = _lane_masks(b)
    entries = [ones * v for v in start] or [0] * params.num_coords
    for mask, row in zip(masks, rows):
        entries = [x ^ mask if v else x for x, v in zip(entries, row)]
    supports = [[e for e, v in enumerate(row) if v] for row in rows[b:]]
    yield _lane_counts(_lane_pivots(entries, params.t, ones), 1)
    for r in _gray_steps(2, len(supports)):
        for e in supports[r]:
            entries[e] ^= ones
        yield _lane_counts(_lane_pivots(entries, params.t, ones), 1)


def _lane_pivots(entries: list[int], t: int, ones: int) -> list[int]:
    """ge[s], the lanes with at least s pivots, s = 0 .. the top rank of
    one block of lanes, the entries bit-sliced as _bit_blocks sets out and
    `ones` the block's all-lanes int.

    _pair_pivots' step on every lane at once, with no branch per lane.  For
    row i, a lane takes its first j > i with entry (i, j) set: sel_j is the
    lanes that have it set and no earlier one.  Row j of each lane is
    gathered as R = OR over j of (sel_j & row j), and each entry (k, l),
    i < k < l, becomes x ^ (A_ki & R_l) ^ (R_k & A_il): the q = 2 form of
    row_k + (A_ki row_j - A_kj row_i) / A_ij, with A_kj = R_k.  That zeroes
    row and column j; a lane whose row i is zero past i gets nothing, as its
    A_ki and A_il are zero.  Columns up to i are not read again, and are not
    updated.  A lane's skew rank is its number of pivots.
    """
    rows = [[0] * t for _ in range(t)]
    for (i, j), x in zip(upper_positions(t), entries):
        rows[i][j] = rows[j][i] = x
    ge = [ones]
    for i in range(t - 1):
        ri = rows[i]
        rest, gathered = ones, [0] * t
        for j in range(i + 1, t):
            sel = ri[j] & rest
            if sel:
                rest ^= sel
                rj = rows[j]
                for l in range(i + 1, t):
                    gathered[l] |= sel & rj[l]
                if not rest:
                    break
        pivoted = ones ^ rest
        if not pivoted:
            continue
        top = ge[-1] & pivoted
        for s in range(len(ge) - 1, 0, -1):
            ge[s] |= ge[s - 1] & pivoted
        if top:
            ge.append(top)
        for k in range(i + 1, t - 1):
            a, r = ri[k], gathered[k]
            if a or r:
                rk = rows[k]
                for l in range(k + 1, t):
                    x = rk[l] ^ (a & gathered[l]) ^ (r & ri[l])
                    rk[l] = rows[l][k] = x
    return ge


# per field: the translate tables of the byte lanes, built on first use
_LANE_OPS: dict[tuple, tuple] = {}


def _lane_ops(field: FieldSpec) -> tuple:
    """The field's byte-lane tables, for 2 < q <= 16: the unary inverse
    (0 -> 0), and add, sub and mul of a byte 16 a + b, a label in each
    nibble.  Entries no label reaches are padding, never read; u -> u + a
    is the field's own _plus, and nonzero the shared _NONZERO."""
    ops = _LANE_OPS.get(field.table_key())
    if ops is None:
        q, add, mul, neg = field.q, field._add, field._mul, field._neg

        def binary(table):
            return bytes(table[a][b] if a < q and b < q else 0
                         for a in range(16) for b in range(16))

        sub = [[add[a][neg[b]] for b in range(q)] for a in range(q)]
        ops = _LANE_OPS[field.table_key()] = (
            bytes(field._inv).ljust(256, b"\0"),
            binary(add), binary(sub), binary(mul))
    return ops


def _byte_blocks(params: SchemeParams, field: FieldSpec, rows, start):
    """_lane_blocks at 2 < q <= 16, in blocks of q^b words, b the most rows
    whose q^b words fit in 2^_LANE_BITS lanes.

    Entry e of the upper triangle is one bytes object whose byte w is entry
    e of word w, the word of lane w.  The first block is
    start + span(rows[:b]), lane w the word start + sum_r c_r rows[r] for
    w = sum_r c_r q^r, one entry at a time by _form_values.  The other
    blocks are its cosets, walked over the F_p-basis of the outer rows
    rows[b:] (_fp_basis) by _gray_steps: a step adds its vector to every
    lane, one translate per entry of its support.
    _byte_pivots ranks each block.
    """
    q, p, plus = field.q, field.p, field._plus
    k, b = len(rows), 0
    while b < k and q ** (b + 1) <= 1 << _LANE_BITS:
        b += 1
    entries = [_form_values(col, field, v) for v, *col
               in zip(start or [0] * params.num_coords, *rows[:b])]
    supports = [[(e, plus[g]) for e, g in enumerate(vec) if g]
                for vec in _fp_basis(rows[b:], field)]
    yield _lane_counts(_byte_pivots(entries, params.t, field), 8)
    for r in _gray_steps(p, len(supports)):
        for e, shift in supports[r]:
            entries[e] = entries[e].translate(shift)
        yield _lane_counts(_byte_pivots(entries, params.t, field), 8)


def _byte_pivots(entries: list[bytes], t: int, field: FieldSpec) -> list[int]:
    """ge[s], the lanes with at least s pivots as 0xFF bytes, s = 0 .. the
    top rank of one block of byte lanes, the entries laid out as
    _byte_blocks sets out.

    _pair_pivots' step on every lane at once, with no branch per lane, each
    entry held as one int whose byte w is its label in lane w.  A unary
    field op is one translate of the int's bytes; a binary op f(A, B) is one
    translate of (A << 4) | B by the table of f(a, b) at 16 a + b, which
    fits because q <= 16.  For row i, a lane takes its first j > i with
    A_ij nonzero: sel_j is the lanes where it is, as 0xFF bytes, and none
    before.  The pivot P = A_ij and row j, R, are gathered by AND/OR over j
    with sel_j; only the upper triangle is kept, so R_l = A_jl for l > j
    and -A_lj for l < j, gathered apart and joined as hi - lo (a lane has
    one of them).  With S = R / P (0 where no pivot, as inv 0 is 0) each
    entry (k, l), i < k < l, becomes x + S_k A_il - A_ik S_l: the form of
    row_k + (A_ki row_j - A_kj row_i) / A_ij, with A_kj = -R_k.  That
    zeroes row and column j; a lane whose row i is zero past i gets
    nothing, as its A_ik, A_il and S are zero.  Entries up to row and
    column i are not read again, and are not updated.
    """
    inv, add, sub, mul = _lane_ops(field)
    size = len(entries[0])
    frm = int.from_bytes

    def unary(table, x):
        return frm(x.to_bytes(size, "little").translate(table), "little")

    def binary(table, x, y):
        return frm(((x << 4) | y).to_bytes(size, "little").translate(table),
                   "little")

    ones = (1 << 8 * size) - 1
    rows = [[0] * t for _ in range(t)]
    for (i, j), x in zip(upper_positions(t), entries):
        rows[i][j] = frm(x, "little")
    ge = [ones]
    for i in range(t - 1):
        ri = rows[i]
        rest, pivot, hi, lo = ones, 0, [0] * t, [0] * t
        for j in range(i + 1, t):
            if not ri[j]:
                continue
            sel = unary(_NONZERO, ri[j]) & rest
            if sel:
                rest ^= sel
                pivot |= sel & ri[j]
                for l in range(i + 1, j):
                    lo[l] |= sel & rows[l][j]
                rj = rows[j]
                for l in range(j + 1, t):
                    hi[l] |= sel & rj[l]
                if not rest:
                    break
        pivoted = ones ^ rest
        if not pivoted:
            continue
        top = ge[-1] & pivoted
        for s in range(len(ge) - 1, 0, -1):
            ge[s] |= ge[s - 1] & pivoted
        if top:
            ge.append(top)
        scale = unary(inv, pivot)
        scaled = [binary(mul, binary(sub, x, y), scale) if x or y else 0
                  for x, y in zip(hi, lo)]
        for k in range(i + 1, t - 1):
            a, s = ri[k], scaled[k]
            if a or s:
                rk = rows[k]
                for l in range(k + 1, t):
                    x = rk[l]
                    if s and ri[l]:
                        x = binary(add, x, binary(mul, s, ri[l]))
                    if a and scaled[l]:
                        x = binary(sub, x, binary(mul, a, scaled[l]))
                    rk[l] = x
    return ge


def _word_blocks(params: SchemeParams, field: FieldSpec, rows, start):
    """_lane_blocks at q >= 17, each word ranked by _alt_rank.

    From a start word, one one-hot block per word of start + span(rows), so
    that _rank_below stops at the first word of rank below d.  From zero, [1]
    for the zero word, then one block per coset rows[i] + span(rows[i+1:]),
    i = 0..k-1, its counts times q - 1: the cosets hold one word on each
    line through zero, (q^k - 1)/(q - 1) in all, and the other words of a
    line are its nonzero multiples, which have the same skew rank.

    A coset is walked over the F_p-basis of its span, each row times x^j
    for j < e (x^j is the integer p^j), by _gray_steps from its first word.
    The vectors are _fp_basis(rows), last row first:
    span(rows[i+1:]) is spanned by the first m = (k-1-i)e of them and
    rows[i] is vector number m, so the step data are built once per call
    and each coset runs the step loop on a prefix.  The walk carries the
    matrix as t row lists, set to _alt_rows of the coset's first word, which
    a step updates at (i, j) and (j, i) on the vector's support.
    """
    t, n, p, e = params.t, params.n, field.p, field.e
    add, neg = field._add, field._neg
    pos = upper_positions(t)
    vectors = _fp_basis(rows, field)
    mat = [[0] * t for _ in range(t)]
    steps = [
        [(mat[i], j, add[g], mat[j], i, add[neg[g]])
         for (i, j), g in zip(pos, vec) if g]
        for vec in vectors
    ]

    def ranks(word, m):
        for row, first in zip(mat, _alt_rows(t, field, word, pos)):
            row[:] = first
        yield _alt_rank(mat, t, field)
        for r in _gray_steps(p, m):
            for row_i, j, up, row_j, i, down in steps[r]:
                row_i[j] = up[row_i[j]]
                row_j[i] = down[row_j[i]]
            yield _alt_rank(mat, t, field)

    if start:
        hot = [(0,) * r + (1,) for r in range(n + 1)]
        for r in ranks(start, len(vectors)):
            yield hot[r]
        return
    yield [1]
    multiples = field.q - 1
    for m in range(len(vectors) - e, -1, -e):
        block = [0] * (n + 1)
        for r in ranks(vectors[m], m):
            block[r] += multiples
        yield block


def _gray_steps(p: int, m: int):
    """v_p(s) for s = 1 .. p^m - 1, the steps of the modular p-ary Gray
    walk over F_p^m (Knuth, TAOCP 4A, 7.2.1.1): from a first word, step s
    adds basis vector number v_p(s), and the walk meets each word of the
    first word + span of the m vectors once."""
    for s in range(1, p**m):
        r = 0
        while not s % p:
            s //= p
            r += 1
        yield r


def _fp_basis(rows, field: FieldSpec) -> list:
    """Each row times x^j for j < e, x^j being the integer p^j, last row
    first: an F_p-basis of span(rows) whose first (k-i)e vectors span
    rows[i:]."""
    mul, p = field._mul, field.p
    return [[mul[p**j][v] for v in row] if j else row
            for row in reversed(rows) for j in range(field.e)]


# per field: c, q^c and the translate tables u -> u + a of chunk values
_CHUNK_SUMS: dict[tuple, tuple[int, int, list[bytes]]] = {}


def _chunk_sums(field: FieldSpec) -> tuple[int, int, list[bytes]]:
    """c, the most coordinates whose q^c values index a translate table, q^c,
    and the field's tables u -> u + a for every chunk value a < q^c, the sum
    taken digit by digit in GF(q) (a XOR at p = 2), built on first use.

    Each table is one bytes.translate: the table of a + d q^i, a < q^i, is
    the table of a translated by that of d q^i, which adds d at the digit of
    place q^i.  Entries past q^c are padding, never read."""
    layout = _CHUNK_SUMS.get(field.table_key())
    if layout is None:
        q, add = field.q, field._add
        c = 1
        while q ** (c + 1) <= 256:
            c += 1
        width = q**c
        sums, w = [bytes(range(256))], 1
        while w < width:
            for d in range(1, q):
                shift = bytes(u + (add[u // w % q][d] - u // w % q) * w
                              for u in range(width)).ljust(256, b"\0")
                sums += [a.translate(shift) for a in sums[:w]]
            w *= q
        layout = _CHUNK_SUMS[field.table_key()] = (c, width, sums)
    return layout


class _RowWalk:
    """span(rows) in a tabled space, ranked one table row at a time.

    The table is read as rows of L = q^c entries, c from _chunk_sums, so
    index = low + L high, where low packs coordinates 0..c-1 and high the
    rest: at most two more chunks of c coordinates under the cap, (c1, c2),
    high = c1 + L c2.  The 256 entries of the table from L high on are then
    a bytes.translate table for row `high`; entries past L are never
    indexed, so a row that runs past the end of the table is padded.

    Any split of the basis into `outer` and `inner` rows splits the span as
    span(outer) + C_in, and the walk needs only that the inner rows be zero
    in the high coordinates: rows that are go to C_in.  When the other rows
    outnumber the high coordinates, some combination of them must vanish
    there, and they go through one _rref on the reversed rows, which takes
    pivots from the highest coordinate down: the rows pivoted in the high
    coordinates are `outer`, and the rest, zero there, join C_in, which
    then has dimension k - rank(high part), the most any split gives.  x
    holds the low chunks of the words of C_in, at most q^c <= 256 bytes,
    built over its F_p-basis by translate-doubling, last row first, so that
    x[:p^m] is the span of the first m vectors of that basis.  For a word y
    the ranks of y + C_in are

        x.translate(sums[low(y)]).translate(table row high(y)),

    one batch of q^dim C_in ranks for two calls.  The words y are walked by
    _gray_steps over the F_p-basis of `outer`, each step updating y's three
    chunk values by one lookup each in the step vector's sum tables.
    """

    __slots__ = ("p", "e", "width", "sums", "tbl", "places", "x", "vectors",
                 "steps")

    def __init__(self, params: SchemeParams, field: FieldSpec,
                 tbl: bytearray, rows):
        q, p = field.q, field.p
        self.p, self.e, self.tbl = p, field.e, tbl
        c, self.width, self.sums = _chunk_sums(field)
        sums = self.sums
        if len(tbl) > self.width**3:
            raise ValueError(f"table of {len(tbl)} entries past three chunks")
        self.places = [q**i for i in range(params.num_coords)]
        inner = [row for row in rows if not any(row[c:])]
        outer = [row for row in rows if any(row[c:])]
        nhigh = params.num_coords - c
        if len(outer) > nhigh:
            red, pivots = _rref([row[::-1] for row in outer], field)
            inner += [r[::-1] for r, pc in zip(red, pivots) if pc >= nhigh]
            outer = [r[::-1] for r, pc in zip(red, pivots) if pc < nhigh]
        x = b"\0"
        for v in _fp_basis(inner, field):
            step, y, parts = sums[self._chunks(v)[0]], x, [x]
            for _ in range(p - 1):
                y = y.translate(step)
                parts.append(y)
            x = b"".join(parts)
        self.x = x
        self.vectors = [self._chunks(v) for v in _fp_basis(outer, field)]
        self.steps = [(sums[a], sums[b], sums[d]) for a, b, d in self.vectors]

    def _chunks(self, word) -> tuple[int, int, int]:
        high, low = divmod(sum(map(mul, word, self.places)), self.width)
        c2, c1 = divmod(high, self.width)
        return low, c1, c2

    def lines(self):
        """Ranks of one word on each line through zero of the span, in
        batches: y + C_in for each y of the projective walk over `outer`,
        then C_in's own lines: row i of C_in + span(later rows) is the block
        x[p^m:2 p^m] for m = (dim C_in - 1 - i)e, ranked by table row 0."""
        vectors, e, x = self.vectors, self.e, self.x
        yield from self._batches(
            [(vectors[m], m) for m in range(len(vectors) - e, -1, -e)])
        row, q = self.tbl[:256].ljust(256, b"\0"), self.p**e
        size = len(x) // q
        while size:
            yield x[size:2 * size].translate(row)
            size //= q

    def coset(self, word):
        """Ranks of word + span, in q^dim(outer) batches."""
        return self._batches([(self._chunks(word), len(self.vectors))])

    def _batches(self, walks):
        """For each (start, m) of walks, the ranks of y + C_in, one batch per
        y in start + span_F_p(vectors[:m]), walked by _gray_steps."""
        sums, steps, p, x = self.sums, self.steps, self.p, self.x
        width, tbl = self.width, self.tbl
        for (low, c1, c2), m in walks:
            at = width * (c1 + width * c2)
            yield x.translate(sums[low]).translate(
                tbl[at:at + 256].ljust(256, b"\0"))
            for r in _gray_steps(p, m):
                s0, s1, s2 = steps[r]
                low, c1, c2 = s0[low], s1[c1], s2[c2]
                at = width * (c1 + width * c2)
                yield x.translate(sums[low]).translate(
                    tbl[at:at + 256].ljust(256, b"\0"))


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum skew rank over nonzero codewords (= minimum distance)."""
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    dist = weight_distribution(code, budget)
    for i in range(1, len(dist.counts)):
        if dist.counts[i]:
            return i
    raise ArithmeticError("nonzero code with no nonzero codeword")


def diameter(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Maximum skew rank over codewords (0 for the zero code)."""
    dist = weight_distribution(code, budget)
    out = 0
    for i, c in enumerate(dist.counts):
        if c:
            out = i
    return out


# ---------------------------------------------------------------------------
# code file format
# ---------------------------------------------------------------------------


def parse_code(text: str) -> LinearCode:
    """Parse the plain-text code format (see serialize_code)."""
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write
    lines = [(lineno, line)
             for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip()) and not line.startswith("#")]
    if not lines:
        raise CodeFormatError("no header line found")
    (header_line, header), *body = lines
    fields = {}
    for tok in header.split():
        if "=" not in tok:
            raise CodeFormatError(
                f"line {header_line}: bad header token {tok!r}"
            )
        key, _, val = tok.partition("=")
        if key in fields:
            raise CodeFormatError(f"line {header_line}: header repeats {key}=")
        fields[key] = val
    for need in ("q", "t", "k"):
        if need not in fields:
            raise CodeFormatError(
                f"line {header_line}: header is missing {need}="
            )
    try:
        q, t, k_declared = (int(fields[need]) for need in ("q", "t", "k"))
        modulus = (tuple(int(c) for c in fields["modpoly"].split(","))
                   if "modpoly" in fields else None)
    except ValueError as exc:
        raise CodeFormatError(f"line {header_line}: {exc}") from None
    extra = set(fields) - {"q", "t", "k", "modpoly"}
    if extra:
        raise CodeFormatError(
            f"line {header_line}: unknown header fields {sorted(extra)}"
        )
    try:
        params = SchemeParams(q, t)
        field = make_field(q, modulus)
    except ValueError as exc:
        raise CodeFormatError(f"line {header_line}: {exc}") from None
    ncoords = params.num_coords
    rows: list[tuple[int, ...]] = []
    for lineno, line in body:
        entries = line.split()
        if len(entries) != ncoords:
            raise CodeFormatError(
                f"line {lineno}: expected {ncoords} entries, got {len(entries)}"
            )
        row = []
        for col, tok in enumerate(entries, start=1):
            try:
                v = int(tok)
            except ValueError:
                raise CodeFormatError(
                    f"line {lineno}, column {col}: {tok!r} is not an integer"
                ) from None
            if not 0 <= v < q:
                raise CodeFormatError(
                    f"line {lineno}, column {col}: entry {v} out of range "
                    f"for q={q}"
                )
            row.append(v)
        rows.append(tuple(row))
    if len(rows) != k_declared:
        warnings.warn(
            f"header (line {header_line}) declares k={k_declared} but the file "
            f"has {len(rows)} rows; using the rows",
            stacklevel=2,
        )
    red, _ = _rref(rows, field)
    if len(red) != len(rows):
        warnings.warn(
            f"basis rows are linearly dependent; reduced to {len(red)} "
            f"independent rows",
            stacklevel=2,
        )
        rows = [tuple(r) for r in red]
    return LinearCode.from_rows(params, field, rows)


def serialize_code(code: LinearCode) -> str:
    """Canonical text form; parse(serialize(c)) has the identical basis."""
    field = code.field
    header = f"q={code.params.q} t={code.params.t} k={code.k}"
    if field.e > 1:
        header += " modpoly=" + ",".join(str(c) for c in field.modulus)
    lines = [header]
    for row in code.basis_rows():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
