"""Moment identities of the skew rank distribution and MSRD machinery.

The two moment propositions relate alternating-sum statistics of a code's
distribution to its dual's; the delta/epsilon lemmas are the closed forms
that make them work; the triangular inversion recovers MSRD distributions
from the simplified first moments.  A seeded randomized search looks for
codes attaining the Singleton-type bound.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction

from .gfcodes import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    LinearCode,
    SchemeParams,
    WeightDist,
    _rank_below,
    full_space_code,
    make_field,
    min_distance,
)
from .qcombinat import _qpow, _Record, _require_int, gamma, gauss, sigma

# Candidate samples find_msrd draws before it gives up.
SEARCH_BUDGET = 20000


# ---------------------------------------------------------------------------
# moment identities
# ---------------------------------------------------------------------------


def _first_sum(counts, phi: int, q: int, n: int):
    """sum_{i<=n-phi} [n-i, phi] c_i; an int for int counts."""
    return sum(gauss(q, n - i, phi) * counts[i] for i in range(n - phi + 1))


def _second_sum(counts, phi: int, q: int, n: int):
    """sum_{i>=phi} q^{2 phi (n-i)} [i, phi] c_i; an int for int counts."""
    return sum(
        q ** (2 * phi * (n - i)) * gauss(q, i, phi) * counts[i]
        for i in range(phi, n + 1)
    )


def _gamma_sum(counts, phi: int, q: int, n: int, m: int):
    """The alternating sum over i <= phi of
    (-1)^i q^{2 sigma_i + 2i(phi-i)} [n-i, n-phi] gamma(m-2i, phi-i) c_i.

    An int for int counts: m - 2i < 0 only at i = phi = n of even t, where
    gamma is the empty product."""
    total = 0
    for i in range(phi + 1):
        total += (
            (-1) ** i
            * q ** (2 * sigma(i) + 2 * i * (phi - i))
            * gauss(q, n - i, n - phi)
            * gamma(q, m - 2 * i, phi - i)
            * counts[i]
        )
    return total


def _pair_sizes(
    w: WeightDist, w_dual: WeightDist, phi: int, params: SchemeParams
) -> tuple[int, int]:
    """(|C|, |C'|); ValueError unless both are of params, |C| |C'| = q^{mn}
    and 0 <= phi <= n."""
    if w.params != params or w_dual.params != params:
        raise ValueError("distribution and params disagree")
    q, n, m = params.q, params.n, params.m
    if not 0 <= phi <= n:
        raise ValueError(f"phi={phi} out of range 0..{n}")
    size, dual_size = w.size, w_dual.size
    if size * dual_size != q ** (m * n):
        raise ValueError("sizes do not multiply to the whole space")
    return size, dual_size


def check_first_moment(
    w: WeightDist, w_dual: WeightDist, phi: int, params: SchemeParams
) -> tuple[Fraction, Fraction]:
    """Both sides of the first moment identity; the caller asserts equality.

    lhs = sum_{i<=n-phi} [n-i, phi] c_i,
    rhs = q^{m(n-phi)}/|C'| * sum_{i<=phi} [n-i, n-phi] c'_i.
    """
    _, dual_size = _pair_sizes(w, w_dual, phi, params)
    q, n, m = params.q, params.n, params.m
    # the dual side is the same sum at n - phi
    rhs = _first_sum(w_dual.counts, n - phi, q, n)
    rhs *= Fraction(q ** (m * (n - phi)), dual_size)
    return _first_sum(w.counts, phi, q, n), rhs


def check_second_moment(
    w: WeightDist,
    w_dual: WeightDist,
    phi: int,
    k_dim: int,
    params: SchemeParams,
) -> tuple[Fraction, Fraction]:
    """Both sides of the second moment identity for q^k_dim words, k_dim an int.

    lhs = sum_{i>=phi} q^{2 phi (n-i)} [i, phi] c_i,
    rhs = q^{k - m phi} sum_{i<=phi} (-1)^i q^{2 sigma_i + 2i(phi-i)}
          [n-i, n-phi] gamma(m-2i, phi-i) c'_i.
    """
    size, _ = _pair_sizes(w, w_dual, phi, params)
    q, n, m = params.q, params.n, params.m
    _require_int("k_dim", k_dim)
    if q**k_dim != size:
        raise ValueError(f"q^{k_dim} != code size {size}")
    rhs = _gamma_sum(w_dual.counts, phi, q, n, m) * _qpow(q, k_dim - m * phi)
    return _second_sum(w.counts, phi, q, n), rhs


class MomentCheck(_Record):
    __slots__ = ("name", "phi", "lhs", "rhs")

    def __init__(self, name: str, phi: int, lhs: Fraction,
                 rhs: Fraction) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def moment_checks(w: WeightDist, w_dual: WeightDist, k_dim: int,
                  phis: Iterable[int], params: SchemeParams) -> list[MomentCheck]:
    """The first and then the second moment identity at each phi in turn,
    then corollary_bounds at those phis, with the dual's minimum distance
    (None for the zero code) and diameter read off w_dual."""
    phis = list(phis)
    checks = [
        MomentCheck(name, phi, *sides)
        for phi in phis
        for name, sides in (
            ("first_moment", check_first_moment(w, w_dual, phi, params)),
            ("second_moment", check_second_moment(w, w_dual, phi, k_dim, params)),
        )
    ]
    present = [i for i, c in enumerate(w_dual.counts) if c]
    d_dual = present[1] if len(present) > 1 else None
    return checks + [
        chk
        for chk in corollary_bounds(w, params, d_dual, present[-1])
        if chk.phi in phis
    ]


def corollary_bounds(
    w: WeightDist,
    params: SchemeParams,
    d_dual: int | None,
    diameter_dual: int,
) -> list[MomentCheck]:
    """Dual-free simplifications of both moments.

    d_dual is the dual minimum distance (None for the zero-code dual, where
    every phi qualifies); diameter_dual bounds the second clause.  Only the
    primal distribution is consulted; it must have q^k words, k <= mn.
    """
    if w.params != params:
        raise ValueError("distribution and params disagree")
    q, n, m = params.q, params.n, params.m
    size = w.size
    k_dim = 0
    while q**k_dim < size:
        k_dim += 1
    if q**k_dim != size or k_dim > m * n:
        raise ValueError(f"code size {size} is not q^k for any k <= {m * n}")

    checks: list[MomentCheck] = []
    for phi in range(n + 1):
        if d_dual is None or phi < d_dual:
            # q^{m(n-phi)} / |C'| = q^{k - m phi}
            rhs = _qpow(q, k_dim - m * phi) * gauss(q, n, phi)
            lhs = _first_sum(w.counts, phi, q, n)
            checks.append(MomentCheck("first_moment_low_phi", phi, lhs, rhs))
            lhs2 = _second_sum(w.counts, phi, q, n)
            rhs2 = rhs * gamma(q, m, phi)
            checks.append(MomentCheck("second_moment_low_phi", phi, lhs2, rhs2))
        if diameter_dual < phi <= n:
            lhs3 = _gamma_sum(w.counts, phi, q, n, m)
            checks.append(
                MomentCheck("second_moment_high_phi", phi, lhs3, Fraction(0))
            )
    return checks


# ---------------------------------------------------------------------------
# closed-form lemmas
# ---------------------------------------------------------------------------


def _scaled_gamma(q: int, x: int, k: int, e: int) -> int:
    """q^{ek} gamma(q, x, k) = prod_{l<k} (q^{x+e} - q^{2l+e}), for x + e >= 0."""
    out = 1
    for l in range(k):
        out *= q ** (x + e) - q ** (2 * l + e)
    return out


def _exact(num: int, den: int) -> int | Fraction:
    """num/den: an int when it divides, else a Fraction."""
    val, rem = divmod(num, den)
    return Fraction(num, den) if rem else val


def delta_closed(q: int, lam: int, phi: int, j: int) -> int | Fraction:
    """sum_i [j,i] (-1)^i q^{2 sigma_i} gamma(lam-2i, phi), with its closed form.

    Raises ArithmeticError unless the sum equals
    gamma(2 phi, j) gamma(lam-2j, phi-j) q^{j(lam-2j)}; returns the value,
    an int when it is integral and a Fraction otherwise.  Below lam = 2j
    each gamma(lam-2i, phi) has a denominator dividing q^{e phi},
    e = 2j - lam, so both sides are summed as ints times q^{e phi}.
    """
    if phi < 0 or j < 0:
        raise ValueError("phi and j must be >= 0")
    e = max(0, 2 * j - lam)
    total = sum([
        gauss(q, j, i) * (-1) ** i * q ** (2 * sigma(i))
        * _scaled_gamma(q, lam - 2 * i, phi, e)
        for i in range(j + 1)
    ])
    lead = gamma(q, 2 * phi, j)
    if lead == 0:
        closed = 0
    else:
        closed = (lead * _scaled_gamma(q, lam - 2 * j, phi - j, e)
                  * q ** (j * (lam - 2 * j + e)))
    den = q ** (e * phi)
    if total != closed:
        raise ArithmeticError(
            f"delta lemma fails at q={q} lam={lam} phi={phi} j={j}: "
            f"sum {_exact(total, den)}, closed {_exact(closed, den)}"
        )
    return _exact(total, den)


def epsilon_closed(q: int, lam_big: int, phi: int, i: int) -> int:
    """The epsilon alternating sum with its closed form.

    Raises ArithmeticError unless sum_l [i,l][lam_big-i, phi-l]
    q^{2l(lam_big-phi)} (-1)^l q^{2 sigma_l} gamma(2(phi-l), i-l) equals
    (-1)^i q^{2 sigma_i} [lam_big-i, lam_big-phi]; returns the value, an
    int: 0 below lam_big = phi, where [lam_big-i, lam_big-phi] is 0.
    Term l is nonzero only at phi - lam_big + i <= l <= i, which needs
    lam_big >= phi, so no nonzero term has a negative power of q and the
    sum runs in ints over those terms alone.
    The lemma needs lam_big >= i; below it the closed form does not apply.
    """
    if phi < 0 or i < 0:
        raise ValueError("phi and i must be >= 0")
    if lam_big < i:
        raise ValueError(f"lam_big={lam_big} must be >= i={i}")
    total = sum([
        gauss(q, i, l)
        * gauss(q, lam_big - i, phi - l)
        * (-1) ** l
        * q ** (2 * l * (lam_big - phi) + 2 * sigma(l))
        * gamma(q, 2 * (phi - l), i - l)
        for l in range(max(0, phi - lam_big + i), min(i, phi) + 1)
    ])
    closed = 0
    if lam_big >= phi:
        closed = (-1) ** i * q ** (2 * sigma(i)) * gauss(q, lam_big - i, lam_big - phi)
    if total != closed:
        raise ArithmeticError(
            f"epsilon lemma fails at q={q} lam_big={lam_big} phi={phi} i={i}: "
            f"sum {total}, closed {closed}"
        )
    return total


# ---------------------------------------------------------------------------
# triangular inversion and MSRD distributions
# ---------------------------------------------------------------------------


def forward_sequence(b: list, l: int, q: int) -> list:
    """a_j = sum_{i<=j} [l-i, l-j] b_i for 0 <= j <= l."""
    if len(b) != l + 1:
        raise ValueError(f"need {l + 1} values, got {len(b)}")
    return [_first_sum(b, l - j, q, l) for j in range(l + 1)]


def invert_sequence(a: list, l: int, q: int) -> list:
    """b_i = sum_{j<=i} (-1)^{i-j} q^{2 sigma_{i-j}} [l-j, l-i] a_j.

    The coefficients are ints, so int values of a give int values of b."""
    if len(a) != l + 1:
        raise ValueError(f"need {l + 1} values, got {len(a)}")
    return [
        sum(
            (-1) ** (i - j) * q ** (2 * sigma(i - j)) * gauss(q, l - j, l - i) * a[j]
            for j in range(i + 1)
        )
        for i in range(l + 1)
    ]


def msrd_distribution(params: SchemeParams, d: int) -> WeightDist:
    """Weight distribution forced on any linear code attaining the bound.

    d = n+1 encodes the zero code (the dual edge of d = 1).  The dual has
    minimum distance n-d+2, so the first moments at phi <= n-d see only its
    zero word; invert_sequence solves the triangular system they form for
    c_d..c_n, in ints.  The counts sum to |C| = q^{m(n-d+1)}; a negative
    one raises ArithmeticError.
    """
    q, n, m = params.q, params.n, params.m
    if not 1 <= d <= n + 1:
        raise ValueError(f"d={d} out of range 1..{n + 1}")
    size = q ** (m * (n - d + 1))
    # |C| q^{m(d+j-n)} = q^{m(j+1)}
    low = [gauss(q, n, d + j) * (q ** (m * (j + 1)) - 1) for j in range(n - d + 1)]
    counts = [1] + [0] * (d - 1)
    for r, val in enumerate(invert_sequence(low, n - d, q)):
        if val < 0:
            raise ArithmeticError(
                f"msrd coefficient c_{d + r} = {val} is not a nonnegative integer"
            )
        counts.append(val)
    dist = WeightDist(params, tuple(counts))
    if dist.size != size:
        raise ArithmeticError(f"msrd distribution sums to {dist.size}, not {size}")
    return dist


def _sampler(rng: random.Random, q: int):
    """sample(k): k entries of F_q as bytes, the same as k calls of
    rng.randrange(q).

    randrange's own rule takes getrandbits of bits = q.bit_length() bits
    until one is below q, and getrandbits(bits) is the top bits of one
    32-bit output of the generator.  Here the outputs come in bulk, W = 1024
    at a time: getrandbits(32 W) holds W outputs little-endian, the first
    lowest, so their top bytes are [3::4], and since bits <= 7 for every
    supported q one bytes.translate keeps b >> (8 - bits) of each where it
    is below q.  The same generator state gives the same draws; the
    generator only runs ahead of them, so it must be private to the caller.
    """
    shift = 8 - q.bit_length()
    keep = bytes(b >> shift for b in range(256))
    drop = bytes(range(q << shift, 256))  # the bytes b with b >> shift >= q
    draw, words = rng.getrandbits, 1 << 10
    buf, at = b"", 0

    def sample(k: int) -> bytes:
        nonlocal buf, at
        while len(buf) - at < k:
            tops = draw(32 * words).to_bytes(4 * words, "little")[3::4]
            buf, at = buf[at:] + tops.translate(keep, drop), 0
        at += k
        return buf[at - k:at]

    return sample


def find_msrd(
    params: SchemeParams,
    d: int,
    budget: int = SEARCH_BUDGET,
    seed: int = 0,
) -> LinearCode | None:
    """Seeded randomized search for a code attaining the Singleton-type bound.

    Greedy basis growth with early rejection: a candidate matrix joins the
    basis only if every word of cand + span(basis) keeps skew rank >= d.
    That coset covers the whole grown span: a new word c cand + w with
    c != 0 is c (cand + w / c), and a nonzero multiple keeps the skew rank
    (a candidate already in the span meets the zero word).  The coset test
    is gfcodes' _rank_below, grown as candidates join and emptied on a
    restart: at q = 2 with a rank table one bit of the forbidden set
    B_{<d} + span(basis), extended on each join; at q > 2 with a table one
    _RowWalk over the coset, and with none _lane_blocks, both built again
    only when a candidate joins.
    Returns None once `budget` candidate samples are spent (existence is a
    property of the parameters, not of this search).
    """
    q, n, m = params.q, params.n, params.m
    if not 1 <= d <= n:
        raise ValueError(f"d={d} out of range 1..{n}")
    field = make_field(q)
    k_target = m * (n - d + 1)
    if q**k_target > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"target code size q^{k_target} exceeds the enumeration budget"
        )
    if d == 1:
        return full_space_code(params, field)

    ncoords = params.num_coords
    sample = _sampler(random.Random(seed), q)
    rank_below = _rank_below(params, field, d)
    below = rank_below.test  # bound once: it runs once per candidate
    samples = 0
    while samples < budget:
        basis: list[bytes] = []
        rank_below.clear()
        stuck = 0
        while len(basis) < k_target and samples < budget:
            cand = sample(ncoords)
            samples += 1
            if not any(cand):
                continue
            if not below(cand):
                basis.append(cand)
                rank_below.join(cand)
                stuck = 0
            else:
                stuck += 1
                if stuck > 250:
                    break  # restart from scratch
        if len(basis) == k_target:
            code = LinearCode.from_spanning(params, field, basis)
            if code.k != k_target or min_distance(code) != d:
                raise ArithmeticError(f"find_msrd built a non-MSRD code {code}")
            return code
    return None


def is_msrd(code: LinearCode, budget: int = DEFAULT_BUDGET) -> bool:
    """Does the code attain |C| = q^{m(n - d + 1)} for its own min distance?"""
    if code.k == 0:
        return True  # the d = n+1 edge
    params = code.params
    d = min_distance(code, budget)
    return code.size == params.q ** (params.m * (params.n - d + 1))
