"""Ostrowski numeration systems over purely periodic continued fractions.

A natural number n is written msd-first as digits e_t ... e_1 e_0 with
n = sum e_i * q_i over the convergent denominators q_i. The canonical
(greedy) representation obeys
  (a) 0 <= e_i <= a_{i+1} for i >= 1,
  (b) e_i = a_{i+1} forces e_{i-1} = 0,
  (c) 0 <= e_0 < a_1.
Leading zeros are always allowed; they are how parallel tracks get padded.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import mul

from .quadratic import ConvergentTable, PeriodicCF, QuadraticReal, cf_value


@dataclass(frozen=True)
class DigitString:
    """An msd-first digit string. Prints compactly when digits fit one char."""

    digits: tuple[int, ...]
    dmax: int = 9

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("empty digit string; zero is written as '0'")
        if any(d < 0 for d in self.digits):
            raise ValueError("negative digit")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

    @classmethod
    def _trusted(cls, digits: tuple[int, ...], dmax: int) -> "DigitString":
        """Wrap digits this module computed (a non-empty tuple of Python
        ints >= 0) without the per-digit checks, which cost about as much
        as computing them."""
        out = object.__new__(cls)
        object.__setattr__(out, "digits", digits)
        object.__setattr__(out, "dmax", dmax)
        return out

    def __str__(self) -> str:
        if self.dmax > 9:
            return " ".join(str(d) for d in self.digits)
        return "".join(str(d) for d in self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


class NumerationSystem:
    """One Ostrowski numeration system: a named periodic CF plus its tables."""

    def __init__(self, name: str, period: tuple[int, ...] | PeriodicCF):
        self.name = name
        self.cf = period if isinstance(period, PeriodicCF) else PeriodicCF(tuple(period))
        self.period = self.cf.period
        self.dmax = max(self.period)
        self.gamma: QuadraticReal = cf_value(self.cf)
        self.convergents = ConvergentTable(self.cf)
        # engine-side caches (canonical recognizers etc.) hang off here
        self._cache: dict = {}

    @property
    def period_length(self) -> int:
        return len(self.period)

    def partial_quotient(self, i: int) -> int:
        return self.cf.partial_quotient(i)

    def q(self, i: int) -> int:
        return self.convergents.q(i)

    def p(self, i: int) -> int:
        return self.convergents.p(i)

    def digit_bound(self, i: int) -> int:
        """Largest canonical digit at position i (position 0 is the lsd)."""
        if i == 0:
            return self.cf.partial_quotient(1) - 1
        return self.cf.partial_quotient(i + 1)

    # -- encode / decode --------------------------------------------------

    def encode(self, n: int) -> DigitString:
        """Canonical (greedy) representation of n >= 0."""
        if n < 0:
            raise ValueError("cannot encode a negative value")
        if n == 0:
            return DigitString._trusted((0,), self.dmax)
        qs = self.convergents.q_list(n)
        # qs[top] = q_{top-1} is the largest denominator <= n
        top = bisect_right(qs, n) - 1
        digits = []
        for k in range(top, 0, -1):
            e, n = divmod(n, qs[k])
            digits.append(e)
        return DigitString._trusted(tuple(digits), self.dmax)

    def decode(self, digits: DigitString | tuple[int, ...] | list[int]) -> int:
        """Value of an msd-first digit string. Accepts non-canonical strings."""
        ds = tuple(digits.digits if isinstance(digits, DigitString) else digits)
        if ds and (min(ds) < 0 or max(ds) > self.dmax):
            bad = next(d for d in ds if d < 0 or d > self.dmax)
            raise ValueError(f"digit {bad} out of range 0..{self.dmax}")
        self.q(len(ds) - 1)  # grows the cached list through the top position
        qs = self.convergents.q_list(0)
        return sum(map(mul, ds, qs[len(ds):0:-1]))

    def is_canonical(self, digits: DigitString | tuple[int, ...] | list[int]) -> bool:
        ds = tuple(digits.digits if isinstance(digits, DigitString) else digits)
        if not ds:
            return True
        prev = None  # digit at position i+1 while scanning position i
        for pos, d in enumerate(ds):
            i = len(ds) - 1 - pos
            if d < 0 or d > self.digit_bound(i):
                return False
            if prev is not None and i >= 0:
                # rule (b): a saturated digit forces a zero just below it
                if prev == self.cf.partial_quotient(i + 2) and d != 0:
                    return False
            prev = d
        return True

    def pad_parallel(self, *strings: DigitString) -> list[DigitString]:
        """Left-pad digit strings with zeros to a common length."""
        width = max(len(s) for s in strings)
        out = []
        for s in strings:
            pad = (0,) * (width - len(s))
            out.append(DigitString._trusted(pad + s.digits, self.dmax))
        return out

    def floor_gamma(self, n: int) -> int:
        """floor(n * gamma), exactly."""
        return (self.gamma * n).floor()

    def __repr__(self) -> str:
        return f"NumerationSystem({self.name!r}, period={list(self.period)})"
