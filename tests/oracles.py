"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch, with different
algorithms than the library where possible, so that agreement between
the two is meaningful.  Nothing in this module imports from obd.
"""

import itertools
from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt


# ---------------------------------------------------------------------------
# exact floor of (a + b*sqrt(d)) / c
# ---------------------------------------------------------------------------

def _surd_minus_int_sign(a, b, d, k, c):
    # sign of (a + b*sqrt(d)) - k*c, exact integer arithmetic
    A = a - k * c
    B = b
    if B == 0:
        return (A > 0) - (A < 0)
    if A >= 0 and B > 0:
        return 1
    if A <= 0 and B < 0:
        return -1
    # opposite signs: whichever square is larger decides
    lhs, rhs = A * A, B * B * d
    if lhs == rhs:
        return 0
    return (1 if A > 0 else -1) if lhs > rhs else (1 if B > 0 else -1)


def floor_surd(a, b, c, d):
    """floor((a + b*sqrt(d)) / c) with c > 0, via decimal estimate + exact check."""
    assert c > 0 and d >= 0
    if b == 0 or d == 0:
        return Fraction(a, c).__floor__()
    getcontext().prec = 80
    x = (Decimal(a) + Decimal(b) * Decimal(d).sqrt()) / Decimal(c)
    k = int(x.to_integral_value(rounding="ROUND_FLOOR"))
    # exact bracketing check, adjusting if the estimate was off by one
    while _surd_minus_int_sign(a, b, d, k, c) < 0:
        k -= 1
    while _surd_minus_int_sign(a, b, d, k + 1, c) >= 0:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Ostrowski numeration, written independently
# ---------------------------------------------------------------------------

def cf_terms(period, count):
    """Partial quotients a_1, a_2, ... of the purely periodic expansion."""
    m = len(period)
    return [period[(i - 1) % m] for i in range(1, count + 1)]


def denominators(period, count):
    """q_0 .. q_count of the continued fraction with the given period."""
    qs = [1]
    prev = 0
    for a in cf_terms(period, count):
        qs.append(a * qs[-1] + prev)
        prev = qs[-2]
    return qs


def greedy_digits(period, n):
    """Canonical digit tuple (msd first) for n >= 0, by greedy subtraction."""
    if n == 0:
        return (0,)
    qs = denominators(period, 1)
    while qs[-1] <= n:
        qs = denominators(period, 2 * len(qs))  # doubling: the zeros above n's top are cut below
    out = []
    for i in range(len(qs) - 1, -1, -1):
        e = n // qs[i]
        out.append(e)
        n -= e * qs[i]
    assert n == 0
    while len(out) > 1 and out[0] == 0:
        out.pop(0)
    return tuple(out)


def rules_ok(period, digits):
    """Check the three representation rules directly.

    digits is msd-first; position i counts from the low end.  With
    a(j) = period[(j-1) mod m]:
      position 0:   d < a(1)
      position i>0: d <= a(i+1), and d == a(i+1) forces the next lower
                    digit to be zero.
    """
    m = len(period)
    a = lambda j: period[(j - 1) % m]
    rev = list(reversed(digits))
    for i, d in enumerate(rev):
        if d < 0:
            return False
        if i == 0:
            if d > a(1) - 1:
                return False
        else:
            if d > a(i + 1):
                return False
            if d == a(i + 1) and rev[i - 1] != 0:
                return False
    return True


def all_canonical(period, length):
    """Every rule-respecting digit string of exactly the given length.

    Includes strings with leading zeros; used to check bijections onto
    initial segments of the integers.
    """
    dmax = max(period)
    out = []
    for tup in itertools.product(range(dmax + 1), repeat=length):
        if rules_ok(period, tup):
            out.append(tup)
    return out


def digits_value(period, digits):
    qs = denominators(period, len(digits))
    return sum(d * qs[i] for i, d in enumerate(reversed(digits)))


def parallel_digits(period, values, extra=0):
    """The greedy digit strings of `values`, zero-padded msd-first to one
    common length, with `extra` more leading zeros on every track."""
    strings = [greedy_digits(period, n) for n in values]
    width = max(map(len, strings)) + extra
    return [(0,) * (width - len(w)) + w for w in strings]


# ---------------------------------------------------------------------------
# tiny reference automaton engine (dict based, no numpy)
# ---------------------------------------------------------------------------

class RefDFA:
    """Partial DFA over integer letter codes.

    trans maps (state, letter) -> state; a missing entry is a dead end.
    Only used on small machines, so everything is plain dicts and sets.
    """

    def __init__(self, n_states, initial, accepting, trans, alphabet):
        self.n = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.trans = dict(trans)
        self.alphabet = tuple(alphabet)

    def accepts(self, word):
        s = self.initial
        for letter in word:
            s = self.trans.get((s, letter))
            if s is None:
                return False
        return s in self.accepting

    def words(self, maxlen):
        """Set of accepted words with length <= maxlen."""
        found = set()
        frontier = [((), self.initial)]
        for _ in range(maxlen + 1):
            nxt = []
            for w, s in frontier:
                if s in self.accepting:
                    found.add(w)
                if len(w) < maxlen:
                    for letter in self.alphabet:
                        t = self.trans.get((s, letter))
                        if t is not None:
                            nxt.append((w + (letter,), t))
            frontier = nxt
            if not frontier:
                break
        return found

    @staticmethod
    def product(a, b, op):
        """Pair construction; op in and/or/xor/andnot.  None marks a dead side."""
        assert a.alphabet == b.alphabet
        both_needed = op in ("and", "andnot")
        start = (a.initial, b.initial)
        index = {start: 0}
        order = [start]
        trans = {}
        i = 0
        while i < len(order):
            sa, sb = order[i]
            for letter in a.alphabet:
                ta = a.trans.get((sa, letter)) if sa is not None else None
                tb = b.trans.get((sb, letter)) if sb is not None else None
                if ta is None and tb is None:
                    continue
                if both_needed and (ta is None or (op == "and" and tb is None)):
                    # for "and" both sides must stay alive; for "andnot"
                    # only the left side must
                    if op == "and" or ta is None:
                        continue
                key = (ta, tb)
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                trans[(i, letter)] = index[key]
            i += 1
        accepting = set()
        for k, (sa, sb) in enumerate(order):
            fa = sa in a.accepting if sa is not None else False
            fb = sb in b.accepting if sb is not None else False
            keep = {"and": fa and fb, "or": fa or fb,
                    "xor": fa != fb, "andnot": fa and not fb}[op]
            if keep:
                accepting.add(k)
        return RefDFA(len(order), 0, accepting, trans, a.alphabet)

    def minimized(self):
        """Partition refinement after completing with a sink."""
        sink = self.n
        states = list(range(self.n + 1))
        full = {}
        for s in states:
            for letter in self.alphabet:
                full[(s, letter)] = self.trans.get((s, letter), sink)
        # initial split: accepting / not
        block = {s: (1 if s in self.accepting else 0) for s in states}
        while True:
            sig = {}
            for s in states:
                sig[s] = (block[s],) + tuple(block[full[(s, letter)]] for letter in self.alphabet)
            renum = {}
            new_block = {}
            for s in states:
                if sig[s] not in renum:
                    renum[sig[s]] = len(renum)
                new_block[s] = renum[sig[s]]
            if new_block == block:
                break
            block = new_block
        # rebuild without the sink's block unless something maps through it
        ini = block[self.initial]
        trans = {}
        accepting = {block[s] for s in self.accepting}
        for s in states:
            if s == sink:
                continue
            for letter in self.alphabet:
                t = full[(s, letter)]
                if block[t] == block[sink]:
                    continue
                trans[(block[s], letter)] = block[t]
        nblocks = max(block.values()) + 1
        return RefDFA(nblocks, ini, accepting, trans, self.alphabet)

    def live_count(self):
        """States on some path initial -> accepting (sink never counted)."""
        fwd = {self.initial}
        stack = [self.initial]
        succs = {}
        preds = {}
        for (s, _), t in self.trans.items():
            succs.setdefault(s, set()).add(t)
            preds.setdefault(t, set()).add(s)
        while stack:
            s = stack.pop()
            for t in succs.get(s, ()):
                if t not in fwd:
                    fwd.add(t)
                    stack.append(t)
        back = set(self.accepting)
        stack = list(self.accepting)
        while stack:
            s = stack.pop()
            for t in preds.get(s, ()):
                if t not in back:
                    back.add(t)
                    stack.append(t)
        return len(fwd & back)


def ref_linear_solutions(period, coefs, constant, value_bound):
    """All tuples x with sum(c*x) == constant, entries in [0, value_bound)."""
    return ref_window_solutions(coefs, constant, constant, value_bound)


def ref_window_solutions(coefs, lo, hi, value_bound):
    """All tuples x with lo <= sum(c*x) <= hi, entries in [0, value_bound)."""
    out = set()
    arity = len(coefs)
    for tup in itertools.product(range(value_bound), repeat=arity):
        if lo <= sum(c * x for c, x in zip(coefs, tup)) <= hi:
            out.add(tup)
    return out
