"""Homogeneous bivariate polynomials under the skew-q-product.

An HPoly of degree r is sum_i c_i(lambda) Y^i X^{r-i} with coefficients in
the lambda ring.  The product is non-commutative: the term at offset i
picks up a weight q^{2is} (s the degree of the right factor) and the right
factor's coefficient is read at lambda - 2i.  The product builds each
output coefficient in one pass, shift and weight folded into int
numerators over one common denominator, and reduces it once.  Powers are
right-nested and the transform substitutes skew powers Y^[i] * X^[r-i]
for monomials.
"""

from __future__ import annotations

from fractions import Fraction

from .lambda_ring import LambdaScalar, RatLike, _rational, _skew_sum, gamma_lambda
from .qcombinat import SchemeParams, _require_int, gauss, xi


class HPoly:
    """Homogeneous polynomial of a fixed degree with LambdaScalar coefficients."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: list[LambdaScalar | RatLike]):
        _require_int("q", q)
        if not coeffs:
            raise ValueError("an HPoly needs at least the degree-0 coefficient")
        self.q = q
        self.coeffs = tuple(
            c if isinstance(c, LambdaScalar) else LambdaScalar.constant(q, c)
            for c in coeffs
        )
        for c in self.coeffs:
            if c.q != q:
                raise ValueError(f"coefficient over q={c.q} in a q={q} polynomial")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> LambdaScalar:
        """Coefficient of Y^i X^{r-i}; zero outside 0..r."""
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return LambdaScalar.zero(self.q)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HPoly):
            return NotImplemented
        return (
            self.q == other.q
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.q, self.coeffs))

    def __add__(self, other: "HPoly") -> "HPoly":
        if self.q != other.q:
            raise ValueError("mixed base fields")
        if self.degree != other.degree:
            # Homogeneous parts of different degrees only combine when one
            # side is identically zero.
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError(
                f"cannot add degrees {self.degree} and {other.degree}"
            )
        return HPoly(self.q, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: LambdaScalar | RatLike) -> "HPoly":
        """Multiply every coefficient by a scalar (no lambda shift)."""
        if not isinstance(c, LambdaScalar):
            c = LambdaScalar.constant(self.q, c)
        return HPoly(self.q, [c * a for a in self.coeffs])

    def shift_lambda(self, j: int) -> "HPoly":
        """Apply lambda -> lambda - 2j to every coefficient."""
        return HPoly(self.q, [c.shift(j) for c in self.coeffs])

    def __repr__(self) -> str:
        r = self.degree
        bits = [f"({c})*Y^{i}X^{r - i}" for i, c in enumerate(self.coeffs)]
        return " + ".join(bits)


def x_poly(q: int) -> HPoly:
    return HPoly(q, [1, 0])


def y_poly(q: int) -> HPoly:
    return HPoly(q, [0, 1])


def one_poly(q: int) -> HPoly:
    return HPoly(q, [1])


def skew_q_product(a: HPoly, b: HPoly) -> HPoly:
    """c_u = sum_i q^{2is} a_i(lambda) b_{u-i}(lambda - 2i), s = deg(b).

    Each c_u is one int sum over a common denominator, reduced once.
    """
    if a.q != b.q:
        raise ValueError(f"mixed base fields q={a.q} and q={b.q}")
    r, s = a.degree, b.degree
    return HPoly(a.q, [
        _skew_sum(a.q, s, [
            (i, a.coeffs[i], b.coeffs[u - i])
            for i in range(max(0, u - s), min(u, r) + 1)
        ])
        for u in range(r + s + 1)
    ])


def skew_q_power(a: HPoly, k: int) -> HPoly:
    """Right-nested power: a^[0] = 1, a^[k] = a * a^[k-1]."""
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    out = one_poly(a.q)
    for _ in range(k):
        out = skew_q_product(a, out)
    return out


def skew_q_transform(a: HPoly) -> HPoly:
    """sum_i a_i(lambda) * (Y^[i] * X^[r-i]); degree preserved."""
    q = a.q
    r = a.degree
    x = x_poly(q)
    y = y_poly(q)
    out = HPoly(q, [LambdaScalar.zero(q)] * (r + 1))
    for i in range(r + 1):
        if a.coeffs[i].is_zero():
            continue
        basis = skew_q_product(skew_q_power(y, i), skew_q_power(x, r - i))
        out = out + basis.scale(a.coeffs[i])
    return out


def mu_poly(q: int) -> HPoly:
    """X + (Q - 1) Y, the weight enumerator seed."""
    return HPoly(q, [LambdaScalar.one(q), LambdaScalar.q_lambda(q) - 1])


def nu_poly(q: int) -> HPoly:
    """X - Y."""
    return HPoly(q, [1, -1])


def mu_power(q: int, k: int) -> HPoly:
    """Closed form of mu^[k]: coefficient u is [k,u] * prod_{i<u}(Q - q^{2i})."""
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    return HPoly(q, [gamma_lambda(q, u) * gauss(q, k, u) for u in range(k + 1)])


def nu_power(q: int, k: int) -> HPoly:
    """Closed form of nu^[k]: coefficient u is (-1)^u q^{u(u-1)} [k,u], lambda-free."""
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    coeffs = [
        (-1) ** u * q ** (u * (u - 1)) * gauss(q, k, u)
        for u in range(k + 1)
    ]
    return HPoly(q, coeffs)


def omega(params: SchemeParams) -> HPoly:
    """Weight enumerator of the full space: constant coefficients xi(params, i)."""
    return HPoly(params.q, [xi(params, i) for i in range(params.n + 1)])


def evaluate(p: HPoly, x: RatLike, y: RatLike, lam: int) -> Fraction:
    """sum_i c_i(lam) y^i x^{r-i} as an exact rational; x, y int or Fraction."""
    x = Fraction(_rational(x))
    y = Fraction(_rational(y))
    r = p.degree
    out = Fraction(0)
    for i, c in enumerate(p.coeffs):
        val = c.eval_lambda(lam)
        if val:
            out += val * y**i * x ** (r - i)
    return out
