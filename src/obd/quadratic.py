"""Exact arithmetic in real quadratic fields.

Values are (a + b*sqrt(d))/c with arbitrary-precision integers, so every
comparison and floor is exact. No floating point anywhere: floors are
computed by integer square-root bracketing.

A purely periodic continued fraction [0; p1, ..., pm repeating] is its
period, a tuple of positive integers; ``numeration.NumerationSystem``
checks it and owns its partial quotients and convergents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f squarefree. n >= 1."""
    s, f = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * n


@dataclass(frozen=True)
class QuadraticReal:
    """(a + b*sqrt(d))/c, normalized: c >= 1, gcd(a,b,c) = 1, d squarefree.

    Rational values carry d = 0. Mixed-field arithmetic is an error unless
    one side is rational.
    """

    a: int
    b: int
    c: int = 1
    d: int = 0

    def __post_init__(self) -> None:
        a, b, c, d = self.a, self.b, self.c, self.d
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if b == 0 or d == 0:
            b, d = 0, 0
        else:
            s, f = _squarefree_split(d)
            if f == 1:  # perfect square: the value is rational
                a, b, d = a + b * s, 0, 0
            else:
                b, d = b * s, f
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rational(value: int | Fraction) -> "QuadraticReal":
        f = Fraction(value)
        return QuadraticReal(f.numerator, 0, f.denominator, 0)

    @staticmethod
    def sqrt(n: int) -> "QuadraticReal":
        return QuadraticReal(0, 1, 1, n)

    # -- field bookkeeping ----------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _common_d(self, other: "QuadraticReal") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d or other.d

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "QuadraticReal":
        other = _coerce(other)
        d = self._common_d(other)
        return QuadraticReal(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    def __radd__(self, other) -> "QuadraticReal":
        return self.__add__(other)

    def __neg__(self) -> "QuadraticReal":
        return QuadraticReal(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other) -> "QuadraticReal":
        return self.__add__(-_coerce(other))

    def __rsub__(self, other) -> "QuadraticReal":
        return (-self).__add__(other)

    def __mul__(self, other) -> "QuadraticReal":
        other = _coerce(other)
        d = self._common_d(other)
        return QuadraticReal(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    def __rmul__(self, other) -> "QuadraticReal":
        return self.__mul__(other)

    def inverse(self) -> "QuadraticReal":
        # 1/x = c*(a - b*sqrt(d)) / (a^2 - b^2 d)
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadraticReal(self.a * self.c, -self.b * self.c, norm, self.d)

    def __truediv__(self, other) -> "QuadraticReal":
        return self.__mul__(_coerce(other).inverse())

    def conjugate(self) -> "QuadraticReal":
        return QuadraticReal(self.a, -self.b, self.c, self.d)

    # -- exact order -----------------------------------------------------

    def sign(self) -> int:
        """Sign of the value: -1, 0 or 1. Exact."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        if b < 0:  # a > 0
            return 1 if a * a > b * b * d else -1
        return 1 if a * a < b * b * d else -1  # a < 0, b > 0

    def compare(self, other) -> int:
        return (self - _coerce(other)).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def equals(self, other) -> bool:
        return self.compare(other) == 0

    def floor(self) -> int:
        """Exact floor, via integer square-root bracketing of b*sqrt(d)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if b >= 0:
            t = math.isqrt(b * b * d)  # floor(b*sqrt(d))
        else:
            # floor(b*sqrt(d)) = -ceil(|b|*sqrt(d)); sqrt irrational here
            t = -(math.isqrt(b * b * d) + 1)
        n = (a + t) // c
        # guard the bracketing: floor is n iff n <= x < n+1
        while self.compare(n + 1) >= 0:
            n += 1
        while self.compare(n) < 0:
            n -= 1
        return n

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("irrational value")
        return Fraction(self.a, self.c)

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        body = f"{self.a} + {self.b}*sqrt({self.d})" if self.a else f"{self.b}*sqrt({self.d})"
        return body if self.c == 1 else f"({body})/{self.c}"


def _coerce(x) -> QuadraticReal:
    if isinstance(x, QuadraticReal):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadraticReal.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QuadraticReal")


def cf_value(period: tuple[int, ...]) -> QuadraticReal:
    """Exact value of the purely periodic continued fraction with this
    period of positive integers, in (0, 1).

    Solves the fixed point x = 1/(p1 + 1/(p2 + ... + 1/(pm + x))) and picks
    the root between 0 and 1.
    """
    # x = (m00*x + m01)/(m10*x + m11) where each step is y -> 1/(p + y)
    m00, m01, m10, m11 = 1, 0, 0, 1
    for p in period:
        # right-multiply by [[0,1],[1,p]], the matrix of y -> 1/(p+y)
        m00, m01, m10, m11 = m01, m00 + p * m01, m11, m10 + p * m11
    # m10 x^2 + (m11 - m00) x - m01 = 0
    A, B, C = m10, m11 - m00, -m01
    disc = B * B - 4 * A * C
    root = QuadraticReal(-B, 1, 2 * A, disc)
    if not (0 < root < 1):
        root = QuadraticReal(-B, -1, 2 * A, disc)
    if not (0 < root < 1):
        raise ArithmeticError(f"no root in (0,1) for period {period}")
    return root


def cf_expand(x: QuadraticReal, count: int) -> list[int]:
    """First `count` partial quotients of x in (0, 1) (the [0; ...] tail)."""
    if x.is_rational:
        raise ValueError("continued-fraction expansion requires an irrational value")
    if not (0 < x < 1):
        raise ValueError("value must lie strictly between 0 and 1")
    out = []
    for _ in range(count):
        r = x.inverse()
        q = r.floor()
        out.append(q)
        x = r - q
    return out


def period_rotate(period: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a non-empty period to start at the first occurrence of its
    maximum."""
    period = tuple(period)
    k = period.index(max(period))
    return period[k:] + period[:k]
