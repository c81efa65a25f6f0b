"""Exact coefficient ring for functions of the free parameter lambda.

A coefficient is a Laurent polynomial in Q = q**lambda with rational
coefficients, for a fixed prime power q.  This ring is closed under the
substitution lambda -> lambda - 2j (Q picks up a factor q**(-2j)), which
is what the skew-q-product of homogeneous polynomials needs, and its
equality is decidable termwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qcombinat import _qpow

RatLike = int | Fraction


class LambdaScalar:
    """Sum of c_e * Q**e terms, Q = q**lambda, with exact rational c_e.

    Immutable; zero coefficients are never stored, so `==` is termwise.
    """

    __slots__ = ("q", "_terms")

    def __init__(self, q: int, terms: dict[int, RatLike] | None = None):
        self.q = q
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, q: int, value: RatLike) -> "LambdaScalar":
        return cls(q, {0: Fraction(value)})

    @classmethod
    def zero(cls, q: int) -> "LambdaScalar":
        return cls(q, {})

    @classmethod
    def one(cls, q: int) -> "LambdaScalar":
        return cls(q, {0: Fraction(1)})

    @classmethod
    def q_lambda(cls, q: int, e: int = 1) -> "LambdaScalar":
        """The monomial Q**e."""
        return cls(q, {e: Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LambdaScalar") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed base fields q={self.q} and q={other.q}")

    def __add__(self, other: "LambdaScalar | RatLike") -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            other = LambdaScalar.constant(self.q, other)
        self._check(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LambdaScalar(self.q, terms)

    __radd__ = __add__

    def __neg__(self) -> "LambdaScalar":
        return LambdaScalar(self.q, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LambdaScalar | RatLike") -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            other = LambdaScalar.constant(self.q, other)
        return self + (-other)

    def __rsub__(self, other: RatLike) -> "LambdaScalar":
        return LambdaScalar.constant(self.q, other) - self

    def __mul__(self, other: "LambdaScalar | RatLike") -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            c = Fraction(other)
            return LambdaScalar(self.q, {e: v * c for e, v in self._terms.items()})
        self._check(other)
        terms: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LambdaScalar(self.q, terms)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LambdaScalar.constant(self.q, other)
        if not isinstance(other, LambdaScalar):
            return NotImplemented
        return self.q == other.q and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.q, tuple(sorted(self._terms.items()))))

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    # -- the operations the rest of the package needs -----------------------

    def shift(self, j: int) -> "LambdaScalar":
        """Substitute lambda -> lambda - 2j, i.e. Q -> q**(-2j) * Q."""
        if j == 0:
            return self
        return LambdaScalar(
            self.q,
            {e: c * _qpow(self.q, -2 * j * e) for e, c in self._terms.items()},
        )

    def eval_lambda(self, lam: int) -> int | Fraction:
        """Exact value at Q = q**lam; an int when the value is integral.

        The terms are summed as integer numerators over one common
        denominator: the lcm of the coefficient denominators, times
        q**(-low) when the lowest exponent low of q is negative.
        """
        terms = self._terms
        if not terms:
            return 0
        q = self.q
        low = min(0, lam * min(terms), lam * max(terms))
        den = lcm(*[c.denominator for c in terms.values()])
        num = sum([
            c.numerator * (den // c.denominator) * q ** (lam * e - low)
            for e, c in terms.items()
        ])
        den *= q**-low
        val, rem = divmod(num, den)
        return Fraction(num, den) if rem else val

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*Q")
            else:
                bits.append(f"{c}*Q^{e}")
        return " + ".join(bits)


def shift(s: LambdaScalar, j: int) -> LambdaScalar:
    return s.shift(j)


def eval_lambda(s: LambdaScalar, lam: int) -> int | Fraction:
    return s.eval_lambda(lam)


def gamma_lambda(q: int, k: int) -> LambdaScalar:
    """prod_{i<k} (Q - q^{2i}) as an element of the lambda ring."""
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    out = LambdaScalar.one(q)
    for i in range(k):
        out = out * (LambdaScalar.q_lambda(q) - q ** (2 * i))
    return out
