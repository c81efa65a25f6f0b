"""Exact coefficient ring for functions of the free parameter lambda.

A coefficient is a Laurent polynomial in Q = q**lambda with rational
coefficients, for a fixed prime power q.  This ring is closed under the
substitution lambda -> lambda - 2j (Q picks up a factor q**(-2j)), which
is what the skew-q-product of homogeneous polynomials needs, and its
equality is decidable termwise.

An element is stored as int numerators over one positive int denominator,
sum_e nums[e] * Q**e / den, kept reduced: no zero numerator is stored and
gcd(den, *nums) = 1 (the zero element has den = 1).  That form is unique,
so equality compares it directly, and every ring operation runs in ints
and reduces once per result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

from .qcombinat import _require_int

RatLike = int | Fraction


def _rational(c: object) -> RatLike:
    """c itself if it is an exact rational; floats and strings are refused."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(
            f"lambda-ring values must be int or Fraction, not {type(c).__name__}"
        )
    return c


def _reduced(q: int, den: int, nums: dict[int, int]) -> "LambdaScalar":
    """The element sum_e nums[e] * Q**e / den (den > 0) in reduced form."""
    out = object.__new__(LambdaScalar)
    out._set(q, den, nums)
    return out


class LambdaScalar:
    """Sum of c_e * Q**e terms, Q = q**lambda, with exact rational c_e.

    Immutable.  Stored as `_nums` = {e: int numerator} over the positive int
    `_den`, reduced: no zero numerators and gcd(_den, *_nums.values()) = 1.
    The form is unique, so `==` is termwise.  Coefficients and scalar
    operands must be int or Fraction; anything else raises TypeError.
    """

    __slots__ = ("q", "_den", "_nums")

    def __init__(self, q: int, terms: dict[int, RatLike] | None = None):
        _require_int("q", q)
        terms = terms or {}
        for c in terms.values():
            _rational(c)
        den = lcm(*[c.denominator for c in terms.values()])
        self._set(q, den, {
            index(e): c.numerator * (den // c.denominator) for e, c in terms.items()
        })

    def _set(self, q: int, den: int, nums: dict[int, int]) -> None:
        """Store sum_e nums[e] * Q**e / den (den > 0), reduced."""
        nums = {e: c for e, c in nums.items() if c}
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        self.q = q
        self._den = den
        self._nums = nums

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, q: int, value: RatLike) -> "LambdaScalar":
        _require_int("q", q)
        value = _rational(value)
        return _reduced(q, value.denominator, {0: value.numerator})

    @classmethod
    def zero(cls, q: int) -> "LambdaScalar":
        _require_int("q", q)
        return _reduced(q, 1, {})

    @classmethod
    def one(cls, q: int) -> "LambdaScalar":
        _require_int("q", q)
        return _reduced(q, 1, {0: 1})

    @classmethod
    def q_lambda(cls, q: int, e: int = 1) -> "LambdaScalar":
        """The monomial Q**e."""
        _require_int("q", q)
        return _reduced(q, 1, {index(e): 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LambdaScalar") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed base fields q={self.q} and q={other.q}")

    def __add__(self, other: "LambdaScalar | RatLike") -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            other = LambdaScalar.constant(self.q, other)
        self._check(other)
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        nums = {e: c * s1 for e, c in self._nums.items()}
        for e, c in other._nums.items():
            nums[e] = nums.get(e, 0) + c * s2
        return _reduced(self.q, den, nums)

    __radd__ = __add__

    def __neg__(self) -> "LambdaScalar":
        return _reduced(self.q, self._den, {e: -c for e, c in self._nums.items()})

    def __sub__(self, other: "LambdaScalar | RatLike") -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            other = LambdaScalar.constant(self.q, other)
        return self + (-other)

    def __rsub__(self, other: RatLike) -> "LambdaScalar":
        return LambdaScalar.constant(self.q, other) - self

    def __mul__(self, other: "LambdaScalar | RatLike") -> "LambdaScalar":
        if not isinstance(other, LambdaScalar):
            c = _rational(other)
            num, den = c.numerator, self._den * c.denominator
            return _reduced(self.q, den, {e: v * num for e, v in self._nums.items()})
        self._check(other)
        nums: dict[int, int] = {}
        for e1, c1 in self._nums.items():
            for e2, c2 in other._nums.items():
                e = e1 + e2
                nums[e] = nums.get(e, 0) + c1 * c2
        return _reduced(self.q, self._den * other._den, nums)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LambdaScalar.constant(self.q, other)
        if not isinstance(other, LambdaScalar):
            return NotImplemented
        return (self.q == other.q and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        # A constant equals its value, so it hashes as that value.
        nums = self._nums
        if not nums.keys() - {0}:
            return hash(Fraction(nums.get(0, 0), self._den))
        return hash((self.q, self._den, tuple(sorted(nums.items()))))

    def is_zero(self) -> bool:
        return not self._nums

    def terms(self) -> dict[int, Fraction]:
        return {e: Fraction(c, self._den) for e, c in self._nums.items()}

    # -- the operations the rest of the package needs -----------------------

    def shift(self, j: int) -> "LambdaScalar":
        """Substitute lambda -> lambda - 2j, i.e. Q -> q**(-2j) * Q.

        Term e picks up q**(-2je); with low the lowest of those exponents
        and 0, numerator e is multiplied by q**(-2je - low) and the
        denominator by q**(-low).
        """
        j = index(j)
        nums = self._nums
        if j == 0 or not nums:
            return self
        q = self.q
        low = min(0, -2 * j * min(nums), -2 * j * max(nums))
        return _reduced(
            q,
            self._den * q**-low,
            {e: c * q ** (-2 * j * e - low) for e, c in nums.items()},
        )

    def eval_lambda(self, lam: int) -> int | Fraction:
        """Exact value at Q = q**lam; an int when the value is integral.

        The terms are summed as integer numerators over one common
        denominator: _den, times q**(-low) when the lowest exponent low of
        q is negative.
        """
        lam = index(lam)
        nums = self._nums
        if not nums:
            return 0
        q = self.q
        low = min(0, lam * (min(nums) if lam >= 0 else max(nums)))
        num = sum([c * q ** (lam * e - low) for e, c in nums.items()])
        den = self._den * q**-low
        val, rem = divmod(num, den)
        return Fraction(num, den) if rem else val

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        bits = []
        for e in sorted(self._nums, reverse=True):
            c = Fraction(self._nums[e], self._den)
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
