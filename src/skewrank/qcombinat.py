"""Exact q^2-analog combinatorial kernel.

Every value here is exact: a Python int wherever the value is an integer,
and a `fractions.Fraction` only for negative arguments (q**e with e < 0,
and the Gaussian coefficients and gamma products they enter).  There is no
floating point anywhere in this package.  The central objects are the
Gaussian coefficients at base q^2, the gamma and beta product functions
built from them, and the census count of alternating matrices by skew
rank.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, p prime; raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power (need q >= 2)")
    n = q
    p = 2
    while p * p <= n and n % p:
        p += 1
    if n % p:
        p = n  # no factor up to sqrt(q): q is prime
    e = 0
    while n > 1:
        if n % p != 0:
            raise ValueError(f"q={q} is not a prime power")
        n //= p
        e += 1
    return p, e


def _require_int(name: str, value: object) -> None:
    """Refuse anything but an int, a bool included, naming the argument."""
    if type(value) is not int:
        raise TypeError(f"{name}={value!r} is not an int")


def _require_ints(**named: object) -> None:
    """_require_int on each argument in turn.  A hot caller tests its ints
    in one chained `type(a) is type(b) is int` first and calls this only
    when that fails, to name the argument."""
    for name, value in named.items():
        _require_int(name, value)


class _Record:
    """An immutable record of the two or more fields in its __slots__:
    equal to a record of its own type with equal fields, hashed and printed
    over them, and pickled through __init__.  A frozen dataclass would
    import dataclasses, inspect, ast and dis, most of the import time."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SchemeParams(_Record):
    """Parameters (q, t) of the space of t x t alternating matrices over F_q.

    Derived: n = floor(t/2) is the maximum skew rank, and m = t(t-1)/(2n),
    which is t-1 for even t and t for odd t.  Every formula in the package
    is driven by these four numbers.  q and t are ints, bools refused.
    """

    __slots__ = ("q", "t")

    def __init__(self, q: int, t: int) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        _require_int("q", q)
        _require_int("t", t)
        if t < 2:
            raise ValueError(f"t={t} must be >= 2")
        factor_prime_power(q)  # raises if q is not a prime power

    @property
    def n(self) -> int:
        return self.t // 2

    @property
    def m(self) -> int:
        return self.t * (self.t - 1) // (2 * self.n)

    @property
    def num_coords(self) -> int:
        """Dimension t(t-1)/2 of the ambient space (= n*m)."""
        return self.t * (self.t - 1) // 2


def _qpow(q: int, e: int) -> int | Fraction:
    """q**e: an int for e >= 0, a Fraction for e < 0."""
    if e >= 0:
        return q**e
    return Fraction(1, q ** (-e))


def gauss(q: int, x: int, k: int) -> int | Fraction:
    """Gaussian coefficient [x choose k] at base q^2.

    prod_{i<k} (q^{2x} - q^{2i}) / (q^{2k} - q^{2i}), taken as
    prod_{i<k} (q^{2(x-i)} - 1) / (q^{2(k-i)} - 1).  Empty product is 1.
    An int for x >= 0 (zero for x < k; the division is checked exact,
    ArithmeticError otherwise); negative x yields nonzero Fractions.
    """
    if not type(q) is type(x) is type(k) is int:
        _require_ints(q=q, x=x, k=k)
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if 0 <= x < k:
        return 0
    if x >= 0:
        k = min(k, x - k)  # [x, k] = [x, x - k]
    big = q * q
    num = den = 1
    for i in range(k):
        num *= _qpow(big, x - i) - 1
        den *= big ** (k - i) - 1
    if x < 0:
        return Fraction(num, den)
    val, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"gauss({q}, {x}, {k}) is not an exact division")
    return val


def gamma(q: int, x: int, k: int) -> int | Fraction:
    """prod_{i<k} (q^x - q^{2i}); 1 for k = 0.  An int for x >= 0."""
    if not type(q) is type(x) is type(k) is int:
        _require_ints(q=q, x=x, k=k)
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    qx = _qpow(q, x)
    out = 1
    for i in range(k):
        out *= qx - q ** (2 * i)
    return out


def beta(q: int, x: int, k: int) -> int | Fraction:
    """prod_{i<k} [x-i choose 1]; 1 for k = 0.  An int for x >= k - 1."""
    if not type(q) is type(x) is type(k) is int:
        _require_ints(q=q, x=x, k=k)
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    out = 1
    for i in range(k):
        out *= gauss(q, x - i, 1)
    return out


def sigma(i: int) -> int:
    """Triangular number i(i-1)/2."""
    if i < 0:
        raise ValueError(f"i={i} must be >= 0")
    return i * (i - 1) // 2


def xi(params: SchemeParams, s: int) -> int:
    """Number of t x t alternating matrices over F_q with skew rank s.

    Carlitz product form; 0 outside 0 <= s <= n.  Always a nonnegative
    integer (checked, not assumed: ArithmeticError otherwise).
    """
    if s < 0 or s > params.n:
        return 0
    q, t = params.q, params.t
    num = q ** (2 * sigma(s))
    for i in range(2 * s):
        num *= q ** (t - i) - 1
    den = 1
    for i in range(1, s + 1):
        den *= q ** (2 * i) - 1
    count, rem = divmod(num, den)
    if rem or count < 0:
        raise ArithmeticError(f"xi({params}, {s}) is not a nonnegative integer")
    return count
