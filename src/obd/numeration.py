"""Ostrowski numeration systems over purely periodic continued fractions.

A system is the period of [0; a_1, a_2, ...], a purely periodic continued
fraction with denominators q_{-1} = 0, q_0 = 1, q_i = a_i q_{i-1} + q_{i-2}.
A natural number n is written msd-first as digits e_t ... e_1 e_0 with
n = sum e_i * q_i. The canonical
(greedy) representation obeys
  (a) 0 <= e_i <= a_{i+1} for i >= 1,
  (b) e_i = a_{i+1} forces e_{i-1} = 0,
  (c) 0 <= e_0 < a_1.
Leading zeros are always allowed; they are how parallel tracks get padded.
A digit string is a plain tuple of ints, msd first; ``decode`` takes any
sequence of ints.  The rules are checked in one place, the linear walk
of :mod:`obd.relations`, whose zero window is canon(1), the recognizer
of canonical strings.

``encode`` takes the greedy digits a block of w positions at a time.
Canonical strings of one length, leading zeros allowed, are ordered by
value exactly as they are ordered lexicographically (Fraenkel, "Systems
of numeration", Amer. Math. Monthly 1985).  So when the greedy remainder
r is below q_{lo+w}, the greedy digits at positions lo .. lo+w-1 are the
lexicographically last canonical block b with value sum b_i q_i <= r: b
followed by r's lower greedy digits is canonical and worth r, and any
block after b, followed by zeros, is a canonical string of the same
length, so it is worth more than r.  Each system memoises, per block, the
values of its canonical blocks in increasing (= lexicographic) order, so
a block costs one ``bisect_right`` and one subtraction.  The digit
patterns depend only on the block's phase, lo mod the period length,
except for block 0 with its rule (c), so blocks of one phase share them.
w is the largest width at which no phase has more than BLOCK_CAP
patterns (8 on msd_fib, 4 on msd_s2), and 1 if even one position has
more: such a position, whose period entry is BLOCK_CAP or more, gets no
pattern table, and its value table is ``range(0, (bound + 1) * q_lo,
q_lo)``, so it too costs one bisect and holds three ints.

A table also holds a coefficient row.  For a block whose lowest
position is lo, q_{lo+i} = A_i q_lo + B_i q_{lo-1}, with (A_0, B_0) =
(1, 0), (A_{-1}, B_{-1}) = (0, 1) and (A_i, B_i) = a_{lo+i} (A_{i-1},
B_{i-1}) + (A_{i-2}, B_{i-2}); the row depends only on lo mod the period
length, so on the table.  Any digits z over the block, canonical or not,
are worth C q_lo + D q_{lo-1}, where C = sum z_i A_i and D = sum z_i B_i
(``block_sums``).  The value tables are built this way, and
``automata`` reads a function's output as one (C, D) per block, joined
by ``block_value``, without spelling out its digits.

``greedy_blocks`` is that one greedy routine: it gives n's digit count
and, for each block from the top down, the index k of the block's digits
in the block's table, where the table of a lone position is ``LONE``
(pattern k is the digit k; its row is (1, 0)).  A read of the low L
digits takes its tables from ``block_tables(L)``, whose top table is
cut: its pattern k is the full table's pattern k without the top
ceil(L / w) * w - L digits, which are zeros in every value the read
covers, and its row the full row without those entries.  Each system
memoises its cut tables per (table, cut), at most w - 1 per table and
none when w = 1, so a cut table is never LONE.  ``encode`` joins the
patterns over the value's own digits.  A table is hashed and compared by
identity, so a key that holds (table, k) hashes as fast as one of ints.
The readers in ``automata`` key their memos by it: a walk by (state,
table, k_1..k_arity) -> state, ``function_value`` by (B, table, k) -> B'
and (state, B, table, k) -> (state', C, D).  A machine's walk memo
therefore holds at most states x tables x patterns**arity entries,
tables and patterns being those of the blocks it has read (a system has
period length + 1 tables of at most BLOCK_CAP patterns each, unless a
position is lone, and at most w - 1 cut tables of each).
"""
from __future__ import annotations

from bisect import bisect_right
from operator import index, mul

from .quadratic import QuadraticReal, cf_value

BLOCK_CAP = 64  # most canonical digit patterns any one block table holds


class _Table(tuple):
    """A block table: entry k is pattern k, and ``coefficients`` the rows
    (A_{w-1} .. A_0) and (B_{w-1} .. B_0), msd first like the patterns
    (module docstring).  Hashed and compared by identity, so a memo key
    that holds one never hashes its patterns."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__

    def __new__(cls, patterns, coefficients):
        table = super().__new__(cls, patterns)
        table.coefficients = coefficients
        return table


class _LoneDigits:
    """The table of a lone position: pattern k is the one digit k, and
    the coefficient row is (1, 0)."""

    __slots__ = ()
    coefficients = ((1,), (0,))

    def __getitem__(self, k: int) -> tuple[int]:
        return (k,)


LONE = _LoneDigits()


def block_sums(table, digits) -> tuple[int, int]:
    """(C, D) = (sum z_i A_i, sum z_i B_i) of any digits z over a block of
    `table`, msd first: they are worth C q_lo + D q_{lo-1}."""
    a, b = table.coefficients
    return sum(map(mul, digits, a)), sum(map(mul, digits, b))


def _positions(period, lo, width):
    """(a_{i+1}, digit bound) for the positions i = lo+width-1 .. lo."""
    m = len(period)
    return [(period[i % m], period[i % m] - (i == 0))
            for i in range(lo + width - 1, lo - 1, -1)]


def _coefficients(period, lo, width):
    """The coefficient rows (A_{width-1} .. A_0), (B_{width-1} .. B_0) of
    a block whose lowest position is lo."""
    m = len(period)
    a, b = [0, 1], [1, 0]  # (A_{-1}, A_0), (B_{-1}, B_0)
    for i in range(lo + 1, lo + width):
        x = period[(i - 1) % m]  # a_i
        a.append(x * a[-1] + a[-2])
        b.append(x * b[-1] + b[-2])
    return tuple(a[:0:-1]), tuple(b[:0:-1])


def _pattern_count(positions) -> int:
    """How many canonical digit blocks `positions` (msd first) allow."""
    free, forced = 1, 0  # blocks whose last digit leaves the next one free / forces 0
    for a, bound in positions:
        free, forced = free * (bound + (bound < a)) + forced, free * (bound == a)
    return free + forced


def _patterns(positions) -> list[tuple[int, ...]]:
    """The canonical digit blocks over `positions`, in lexicographic order."""
    pats, prev = [()], None
    for a, bound in positions:
        pats = [p + (d,) for p in pats
                for d in range(1 if p and p[-1] == prev else bound + 1)]
        prev = a
    return pats


class NumerationSystem:
    """One Ostrowski numeration system: a named periodic CF [0; a_1, ...],
    its denominators q_i and the tables ``encode`` reads."""

    def __init__(self, name: str, period: tuple[int, ...]):
        period = tuple(period)
        if not period:
            raise ValueError("empty period")
        if any(int(x) != x or x < 1 for x in period):
            raise ValueError(f"period entries must be positive integers: {period}")
        self.name = name
        self.period = tuple(int(x) for x in period)
        self.dmax = max(self.period)
        self.gamma: QuadraticReal = cf_value(self.period)
        self._q = [0, 1]  # q_{-1}, q_0, grown on demand: entry i + 1 is q_i
        # engine-side caches (canonical recognizers etc.) hang off here
        self._cache: dict = {}
        # encode's block tables (module docstring): the table of each phase
        # lo mod m, that of block j in _tables (block 0's first, the rest
        # grown on demand), and block j's values, grown on demand
        m, per = len(self.period), self.period
        starts = [0, *range(m, 2 * m)]  # block 0, then one block of each phase
        width = 1
        while max(_pattern_count(_positions(per, lo, width + 1))
                  for lo in starts) <= BLOCK_CAP:
            width += 1
        self._width = width
        block0, *self._phase_tables = [
            _Table(_patterns(pos), _coefficients(per, lo, width))
            if _pattern_count(pos) <= BLOCK_CAP else LONE
            for lo in starts for pos in [_positions(per, lo, width)]]
        self._tables = [block0]
        self._cut_tables: dict = {}  # (table, cut) -> cut table
        self._blocks: list = []

    @property
    def period_length(self) -> int:
        return len(self.period)

    def partial_quotient(self, i: int) -> int:
        """a_i of the infinite expansion, i >= 1."""
        if i < 1:
            raise ValueError("partial quotients start at index 1")
        return self.period[(i - 1) % len(self.period)]

    def q(self, i: int) -> int:
        """q_i, from q_{-1} = 0, q_0 = 1 and q_i = a_i q_{i-1} + q_{i-2}."""
        if i < -1:
            raise IndexError("convergent index below -1")
        q = self._q
        while len(q) < i + 2:
            q.append(self.partial_quotient(len(q) - 1) * q[-1] + q[-2])
        return q[i + 1]

    def q_list(self, n: int) -> list[int]:
        """The cached denominators [q_{-1}, q_0, q_1, ...], grown until the
        last one exceeds n; entry i + 1 is q_i.  Callers only read it."""
        q = self._q
        while q[-1] <= n:
            self.q(len(q) - 1)
        return q

    # -- encode / decode --------------------------------------------------

    def encode(self, n: int) -> tuple[int, ...]:
        """Canonical (greedy) digit tuple of n >= 0, msd first, read through
        ``operator.index``: a float is a TypeError, a numpy int an int.

        The patterns ``greedy_blocks`` picks, joined, with the top block's
        surplus leading zeros cut off."""
        return self.block_digits(*self.greedy_blocks(n))

    def greedy_blocks(self, n: int) -> tuple[int, list[int]]:
        """(length, ks): the number of digits of ``encode(n)`` and, for the
        ceil(length / w) blocks from the top one down, the index of the
        block's greedy digits in its table (``block_tables``).

        Each block's index is that of the last entry <= the remainder in
        the block's value table (module docstring)."""
        n = index(n)
        if n < 0:
            raise ValueError("cannot encode a negative value")
        if n == 0:
            return 1, [0]
        # qs[top] = q_{top-1} is the largest denominator <= n
        top = bisect_right(self.q_list(n), n) - 1
        nblocks = -(-top // self._width)
        blocks = self._blocks
        while len(blocks) < nblocks:
            blocks.append(self._block(len(blocks)))
        ks = []
        for values in blocks[nblocks - 1::-1]:
            k = bisect_right(values, n) - 1
            n -= values[k]
            ks.append(k)
        return top, ks

    def block_tables(self, length: int) -> list:
        """The tables of the ceil(length / w) blocks over the low `length`
        digits, top block first, the top one cut: a table whose pattern k
        is the top table's pattern k without its digits above `length`,
        memoised per (table, cut) so that it too hashes by identity; its
        coefficient row is the top table's without the top `cut` entries."""
        w, tables, phases = self._width, self._tables, self._phase_tables
        count = -(-length // w)
        while len(tables) < count:
            tables.append(phases[len(tables) * w % len(phases)])
        out = tables[count - 1::-1]
        cut = count * w - length
        if cut:  # so w > 1, and no table is LONE
            key = out[0], cut
            top = self._cut_tables.get(key)
            if top is None:
                full = out[0]
                a, b = full.coefficients
                top = self._cut_tables[key] = _Table(
                    (p[cut:] for p in full), (a[cut:], b[cut:]))
            out[0] = top
        return out

    def block_digits(self, length: int, ks) -> tuple[int, ...]:
        """The patterns ks of the blocks over the low `length` digits,
        joined: ``encode`` on what ``greedy_blocks`` gives."""
        digits = []
        for table, k in zip(self.block_tables(length), ks):
            digits += table[k]
        return tuple(digits)

    def block_value(self, cs, ds) -> int:
        """sum C_j q_{jw} + D_j q_{jw-1} over the blocks j, top block first:
        the value of digits whose block j has the sums (C_j, D_j) of
        ``block_sums``."""
        w = self._width
        top = (len(cs) - 1) * w
        self.q(top)  # grows the cached list through the top block's q_lo
        q = self._q  # entry i + 1 is q_i
        return sum(map(mul, cs, q[top + 1::-w])) + sum(map(mul, ds, q[top::-w]))

    def _block(self, j: int):
        """Block j's values: those of its canonical digit blocks, in
        increasing (= lexicographic) order, C q_lo + D q_{lo-1} each; for a
        lone position, the range of the digit multiples of q_lo."""
        lo = j * self._width
        self.block_tables(lo + self._width)  # grows _tables through block j
        table = self._tables[j]
        q, q_below = self.q(lo), self._q[lo]
        if table is LONE:
            (_, bound), = _positions(self.period, lo, 1)
            return range(0, (bound + 1) * q, q)
        return [c * q + d * q_below
                for c, d in (block_sums(table, p) for p in table)]

    def decode(self, digits) -> int:
        """Value of an msd-first sequence of digits. Accepts non-canonical ones."""
        ds = tuple(digits)
        if ds and (min(ds) < 0 or max(ds) > self.dmax):
            bad = next(d for d in ds if d < 0 or d > self.dmax)
            raise ValueError(f"digit {bad} out of range 0..{self.dmax}")
        self.q(len(ds) - 1)  # grows the cached list through the top position
        return sum(map(mul, ds, self._q[len(ds):0:-1]))

    def pad_parallel(self, *strings: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Left-pad digit tuples with zeros to a common length."""
        width = max(len(s) for s in strings)
        return [(0,) * (width - len(s)) + s for s in strings]

    def __repr__(self) -> str:
        return f"NumerationSystem({self.name!r}, period={list(self.period)})"
