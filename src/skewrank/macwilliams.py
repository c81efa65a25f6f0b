"""The MacWilliams identity by two independent routes, plus a cross-checker.

Route one multiplies the weight distribution by the Krawtchouk eigenmatrix;
route two substitutes (X + (q^m - 1)Y, X - Y) into the skew-q-transform of
the weight enumerator and reads the coefficients off at lambda = m.  The
verifier runs both against the brute-force dual enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .gfcodes import DEFAULT_BUDGET, LinearCode, WeightDist, dual, weight_distribution
from .homopoly import HPoly, mu_power, nu_power, skew_q_product
from .krawtchouk import p_matrix
from .qcombinat import SchemeParams, _Record, _require_int


def _as_counts(w: WeightDist | list[int] | tuple[int, ...], code_size: int,
               params: SchemeParams) -> WeightDist:
    """w as a WeightDist of params whose size is the positive int code_size."""
    _require_int("code_size", code_size)
    if code_size < 1:
        raise ValueError(f"code size {code_size} is not positive")
    if not isinstance(w, WeightDist):
        w = WeightDist(params, tuple(w))
    elif w.params != params:
        raise ValueError("distribution and params disagree")
    if w.size != code_size:
        raise ValueError(
            f"distribution sums to {w.size}, not the stated size {code_size}"
        )
    return w


def _finalize(raw: list[int], code_size: int,
              params: SchemeParams) -> WeightDist:
    counts = []
    for k, total in enumerate(raw):
        val, rem = divmod(total, code_size)
        if rem or val < 0:
            raise ValueError(
                f"transform output entry {k} is {Fraction(total, code_size)}, "
                f"not a nonnegative integer; the input distribution is "
                f"inconsistent"
            )
        counts.append(val)
    return WeightDist(params, tuple(counts))


def transform_matrix(w: WeightDist | list[int], code_size: int,
                     params: SchemeParams) -> WeightDist:
    """Dual distribution via the eigenmatrix: c' = (1/|C|) c P, for w a
    WeightDist of params or a list of n + 1 ints, and the int size code_size."""
    w = _as_counts(w, code_size, params)
    raw = p_matrix(params).transform(list(w.counts))
    return _finalize(raw, w.size, params)


def _transform_basis(q: int, n: int, i: int) -> HPoly:
    """nu^[i] * mu^[n-i], the image of Y^i X^{n-i} under the transform."""
    return skew_q_product(nu_power(q, i), mu_power(q, n - i))


# how many evaluated rows the functional route keeps, least recently used
# first out
_FUNCTIONAL_ROWS = 1024


@lru_cache(maxsize=_FUNCTIONAL_ROWS)
def _functional_row(q: int, n: int, m: int, i: int) -> tuple[int, ...]:
    """Row i: the ints _transform_basis(q, n, i) takes at lambda = m."""
    return tuple(b.eval_lambda(m) for b in _transform_basis(q, n, i).coeffs)


def transform_functional(w: WeightDist | list[int], code_size: int,
                         params: SchemeParams) -> WeightDist:
    """Dual distribution via the functional route.

    Builds sum_i c_i nu^[i] * mu^[n-i] over the lambda ring, instantiates
    lambda = m, and divides by the code size.  Takes what transform_matrix
    takes, and must agree with it exactly; the two are computed independently.

    Row i is built and cached on its own the first time some c_i != 0 needs
    it; the lambda-ring products are not kept.
    """
    w = _as_counts(w, code_size, params)
    q, n, m = params.q, params.n, params.m
    raw = [0] * (n + 1)
    for i, c in enumerate(w.counts):
        if c:
            for k, val in enumerate(_functional_row(q, n, m, i)):
                raw[k] += c * val
    return _finalize(raw, w.size, params)


class VerifyReport(_Record):
    """Three-way MacWilliams cross-check for one code."""

    __slots__ = ("params", "k", "dual_k", "dist", "dual_dist_enum",
                 "dual_dist_matrix", "dual_dist_functional", "size_product_ok")

    def __init__(self, params: SchemeParams, k: int, dual_k: int,
                 dist: WeightDist, dual_dist_enum: WeightDist,
                 dual_dist_matrix: WeightDist,
                 dual_dist_functional: WeightDist,
                 size_product_ok: bool) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "dual_k", dual_k)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "dual_dist_enum", dual_dist_enum)
        object.__setattr__(self, "dual_dist_matrix", dual_dist_matrix)
        object.__setattr__(self, "dual_dist_functional", dual_dist_functional)
        object.__setattr__(self, "size_product_ok", size_product_ok)

    @property
    def mismatches(self) -> list[tuple[int, int, int, int]]:
        """(index, enum, matrix, functional) wherever the routes disagree."""
        out = []
        for i in range(self.params.n + 1):
            a = self.dual_dist_enum.counts[i]
            b = self.dual_dist_matrix.counts[i]
            c = self.dual_dist_functional.counts[i]
            if not (a == b == c):
                out.append((i, a, b, c))
        return out

    @property
    def verdict(self) -> bool:
        return self.size_product_ok and not self.mismatches

    def to_dict(self) -> dict:
        return {
            "q": self.params.q,
            "t": self.params.t,
            "k": self.k,
            "dual_k": self.dual_k,
            "dist": [str(c) for c in self.dist.counts],
            "dual_enum": [str(c) for c in self.dual_dist_enum.counts],
            "dual_matrix": [str(c) for c in self.dual_dist_matrix.counts],
            "dual_functional": [
                str(c) for c in self.dual_dist_functional.counts
            ],
            "size_product_ok": self.size_product_ok,
            "mismatches": [list(m) for m in self.mismatches],
            "verdict": self.verdict,
        }


def verify_code(code: LinearCode, budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Run all three dual-distribution routes and compare them entrywise."""
    params = code.params
    w = weight_distribution(code, budget)
    dcode = dual(code)
    w_enum = weight_distribution(dcode, budget)
    w_mat = transform_matrix(w, code.size, params)
    w_fun = transform_functional(w, code.size, params)
    size_ok = code.size * dcode.size == params.q ** (params.m * params.n)
    return VerifyReport(
        params=params,
        k=code.k,
        dual_k=dcode.k,
        dist=w,
        dual_dist_enum=w_enum,
        dual_dist_matrix=w_mat,
        dual_dist_functional=w_fun,
        size_product_ok=size_ok,
    )
