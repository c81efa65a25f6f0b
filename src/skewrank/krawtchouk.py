"""Generalized Krawtchouk polynomials and the (n+1) x (n+1) eigenmatrix.

The matrix P with entries P_k(x,n) transforms weight distributions to dual
weight distributions.  `p_matrix` builds it in plain integers from the
three-term recurrence of the alternating-forms association scheme, which is
P-polynomial (Delsarte 1973; Brouwer-Cohen-Neumaier, Distance-Regular Graphs
9.5).  With Q = q^2 and [j,1] = (Q^j - 1)/(Q - 1), its intersection numbers
are

    b_k = Q^k [n-k,1] (q^m - Q^k),   c_k = Q^{k-1} [k,1],   a_k = b_0 - b_k - c_k,

and each row x follows from P_0(x) = 1, P_1(x) = q^m [n-x,1] - [n,1] and

    c_{k+1} P_{k+1}(x) = (P_1(x) - a_k) P_k(x) - b_{k-1} P_{k-1}(x).

Three closed forms give the same numbers and serve as its oracles: the
generic two-parameter form P_k(x,y) over an arbitrary rational base b, its
specialization at b = q^2 (`skew_p`), and the explicit alternating-sum form
`skew_c`.

`p_matrix` keeps the last `_P_MATRIX_SCHEMES` matrices it built, one per
scheme, and hands the same frozen matrix of int tuples to every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .qcombinat import SchemeParams, _Record, gamma, gauss

# how many schemes' eigenmatrices p_matrix keeps, least recently used first out
_P_MATRIX_SCHEMES = 32


def gauss_base(b: Fraction | int, x: int, k: int) -> Fraction:
    """Gaussian coefficient prod_{i<k} (b^x - b^i)/(b^k - b^i) at rational base b."""
    b = Fraction(b)
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if 0 <= x < k:
        return Fraction(0)
    out = Fraction(1)
    for i in range(k):
        out *= (b**x - b**i) / (b**k - b**i)
    return out


def generalized_p(
    b: Fraction | int, c: Fraction | int, k: int, x: int, y: int
) -> Fraction:
    """Two-parameter Krawtchouk value P_k(x,y) for rational b >= 1, c > 1/b."""
    b = Fraction(b)
    c = Fraction(c)
    if b < 1 or c * b <= 1:
        raise ValueError(f"need b >= 1 and c > 1/b, got b={b}, c={c}")
    if not (0 <= x <= y and 0 <= k <= y):
        raise ValueError(f"x={x}, k={k} must lie in 0..y={y}")
    cby = c * b**y
    out = Fraction(0)
    for j in range(k + 1):
        term = (
            (-1) ** (k - j)
            * cby**j
            * b ** comb(k - j, 2)
            * gauss_base(b, y - j, y - k)
            * gauss_base(b, y - x, j)
        )
        out += term
    return out


def skew_p(params: SchemeParams, k: int, x: int) -> int:
    """P_k(x,n) specialized to b = q^2: alternating sum with q^{jm} weights."""
    n, m, q = params.n, params.m, params.q
    if not (0 <= x <= n and 0 <= k <= n):
        raise ValueError(f"x={x}, k={k} must lie in 0..n={n}")
    return sum(
        (-1) ** (k - j)
        * q ** (2 * comb(k - j, 2))
        * gauss(q, n - j, n - k)
        * gauss(q, n - x, j)
        * q ** (j * m)
        for j in range(k + 1)
    )


def skew_c(params: SchemeParams, k: int, x: int) -> int:
    """Explicit form: sum_j (-1)^j q^{2j(n-x)+j(j-1)} [x,j][n-x,k-j] gamma(m-2j,k-j).

    Every term is an int: gamma's one negative argument, m - 2j = -1 at
    j = n for even t, comes with k - j = 0.
    """
    n, m, q = params.n, params.m, params.q
    if not (0 <= x <= n and 0 <= k <= n):
        raise ValueError(f"x={x}, k={k} must lie in 0..n={n}")
    return sum(
        (-1) ** j
        * q ** (2 * j * (n - x) + j * (j - 1))
        * gauss(q, x, j)
        * gauss(q, n - x, k - j)
        * gamma(q, m - 2 * j, k - j)
        for j in range(k + 1)
    )


def matched_bc(params: SchemeParams) -> tuple[Fraction, Fraction]:
    """The (b, c) for which generalized_p reproduces skew_p: b = q^2, c = q^{m-2n}."""
    q = params.q
    e = params.m - 2 * params.n
    c = Fraction(q) ** e
    return Fraction(q * q), c


class KrawtchoukMatrix(_Record):
    """Eigenmatrix with entries[x][k] = P_k(x, n); all integers."""

    __slots__ = ("params", "entries")

    def __init__(self, params: SchemeParams,
                 entries: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "entries", entries)

    def row(self, x: int) -> tuple[int, ...]:
        return self.entries[x]

    def transform(self, dist: list[int]) -> list[int]:
        """Row vector times matrix: out_k = sum_x dist[x] * P_k(x,n).

        The result is a new list, so no caller can reach the cached entries.
        """
        n = self.params.n
        if len(dist) != n + 1:
            raise ValueError(f"distribution must have length {n + 1}")
        return [
            sum(dist[x] * self.entries[x][k] for x in range(n + 1))
            for k in range(n + 1)
        ]


@lru_cache(maxsize=_P_MATRIX_SCHEMES)
def p_matrix(params: SchemeParams) -> KrawtchoukMatrix:
    """The eigenmatrix, row by row from the three-term recurrence.

    Cached per scheme: a repeat call returns the same immutable matrix.
    """
    n, m, q = params.n, params.m, params.q
    big_q = q * q
    qm = q**m

    def bracket(j: int) -> int:
        return (big_q**j - 1) // (big_q - 1)

    b = [big_q**k * bracket(n - k) * (qm - big_q**k) for k in range(n)]
    c = [0] + [big_q ** (k - 1) * bracket(k) for k in range(1, n + 1)]
    a = [b[0] - b[k] - c[k] for k in range(n)]
    rows = []
    for x in range(n + 1):
        p1 = qm * bracket(n - x) - bracket(n)
        row = [1, p1]
        for k in range(1, n):
            val, rem = divmod((p1 - a[k]) * row[k] - b[k - 1] * row[k - 1],
                              c[k + 1])
            if rem:
                raise ArithmeticError(
                    f"recurrence step to P_{k + 1}({x}) at {params} is not "
                    f"an exact division"
                )
            row.append(val)
        rows.append(tuple(row))
    return KrawtchoukMatrix(params, tuple(rows))
