"""Atom builders for synchronized relations over one Ostrowski numeration system.

Everything here returns an :class:`~obd.automata.Automaton` whose tracks read
digit tuples msd-first.  Unless a docstring says otherwise the language lies
inside the canonical-word recognizer canon(k), so accepted words are
zero-padded canonical representations and the automaton denotes a relation on
natural numbers.

The central construction is :func:`linear_relation`, which recognizes the
window ``lo <= sum(c_j * n_j) <= hi`` (``==`` when lo == hi) by tracking
the running sum in a rolling basis of consecutive convergent
denominators; :func:`inequality_relation` is its ``<=`` twin, with no
lower edge.  Every comparison atom of a formula compiles to one of the
two, and every floor division ``t/c`` to one window.  Both build every
atom, whatever its coefficients, by walking the sum over the words whose
length is a multiple of the period length m, then closing that raw
piece under leading zeros, which gives every other length and the
canonical form in one subset construction.  On those words each digit's
position residue is known, so the walk checks the digit rules of
canonical strings itself, with one bit per track for a saturated digit,
and no product with canon(k) follows.  The walk is the one copy of those
rules: canon(1), the recognizer of canonical strings, is its zero window
(see :func:`canonical_recognizer`).  Whether a sum can still reach the
window is decided in exact integers: the canonical suffixes of length i
are worth 0 .. q_i - 1, which bounds what the digits still to come can
add, and the depths it could end at are walked until a witness or a
certificate of monotone growth settles it (see :func:`_fate`); no float
and no cutoff.
:func:`shift_relation` is the digit-shift relation the paper's
synchronizers are written over, and :func:`fibonacci_word` a word automaton.
Anything composed from these atoms, the floor synchronizers of
:mod:`obd.beatty` included, is written as a formula and compiled by
:mod:`obd.logic`.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from . import _kernels as K
from .automata import Automaton, _Raw, edge_sources, letter_code, pad_closed
from .numeration import NumerationSystem

__all__ = [
    "canonical_recognizer",
    "linear_relation",
    "inequality_relation",
    "shift_relation",
    "fibonacci_word",
]


# ---------------------------------------------------------------------------
# canonical recognizer


def canonical_recognizer(system: NumerationSystem, arity: int = 1) -> Automaton:
    """Recognizer of k-tuples whose tracks are all zero-padded canonical.

    canon(1) is the linear walk's zero window, ``0 <= 0*x <= 0``
    (:func:`_linear_machine`): every pair is live, so the walk's own digit
    rows and its empty-mask acceptance keep exactly the canonical strings.
    canon(k) is canon(k-1) on the first k-1 tracks intersected with
    canon(1) on the last, one product per arity, each cached; the walk
    would spell out every letter of every mask row of k tracks."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    if arity == 0:
        return Automaton.universal(0, system.dmax)
    if arity == 1:
        return _linear_machine(system, (0,), 0, 0)
    key = ("canon", arity)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    head = canonical_recognizer(system, arity - 1).lift(arity, range(arity - 1))
    out = head.intersect(canonical_recognizer(system, 1).lift(arity, [arity - 1]))
    system._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# linear relations


_DEAD, _LIVE, _DONE = 0, 1, 2


def _never_falls(g0: int, g1: int, g2: int) -> bool:
    """Whether g(k), g(k+1), g(k+2) certify g(j) >= g(k) for every j >= k.

    g is an affine form in (q_i, q_{i-1}) along one residue of depths (see
    :func:`_fate`), so its differences x obey x_{k+2} = tau*x_{k+1} -
    (-1)^m x_k with tau >= 1, and tau >= 3 for even m: from
    0 <= x_k <= x_{k+1} on, x stays nonnegative and nondecreasing.
    """
    return g0 <= g1 and g1 - g0 <= g2 - g1


def _fate(system: NumerationSystem, r: int, s: int, t: int, lo: int | None,
          hi: int, c_min: int, c_max: int) -> int:
    """Exact viability verdict on the pair (s, t) at phase r for the
    window ``lo <= sum <= hi`` (``lo is None``: ``sum <= hi``).

    The canonical strings of length i are worth exactly 0 .. q_i - 1
    (Ostrowski), so with c_min and c_max the sums of the negative and of
    the positive coefficients, the suffixes still to come at depth i put
    the sum between ``V_min = v + c_min*(q_i - 1)`` and
    ``V_max = v + c_max*(q_i - 1)``, where ``v = s*q_i + t*q_{i-1}`` and
    i = r + k*m.  For a window the pair is _LIVE iff some k has
    V_min <= hi and V_max >= lo, and _DEAD otherwise; ``lo == hi`` is
    ``==``.  For ``<=`` it can exceed iff some V_max > hi and can fit iff
    some V_min <= hi; it is _DONE when it cannot exceed, _DEAD when it
    cannot fit, else _LIVE.  The range bounds each track on its own, so
    the verdict over-approximates what canonical tuples can reach: DEAD
    and DONE are never wrong, and a LIVE pair that reaches nothing is
    trimmed with the raw piece.
    The walk over k stops on such a witness or on a certificate of
    :func:`_never_falls` that ``V_min - hi`` stays above 0, or that
    ``lo - V_max`` (``hi + 1 - V_max`` for ``<=``) does.  It always
    stops: the differences of either form are
    alpha*lambda^k + beta*lambda'^k with |lambda'| < 1 < lambda, and
    alpha = 0 only when they all vanish, since the expanding eigenvector
    has irrational slope; so each form turns monotone and a certificate
    comes.
    """
    m = system.period_length
    qs = system.q_list(0)  # entry i + 1 is q_i
    # the sum falls short when it stays below lo, or for <= at or below hi
    bottom = hi + 1 if lo is None else lo
    can_exceed = can_fit = False
    over1 = under1 = None
    i = r
    k = 0
    while True:
        if i + 1 >= len(qs):
            system.q(2 * i + m)  # grows qs in place
        qi = qs[i + 1]
        v = s * qi + t * qs[i]
        over = v + c_min * (qi - 1) - hi  # > 0: every completion lies above hi
        under = bottom - v - c_max * (qi - 1)  # > 0: every one falls short
        if lo is None:
            can_exceed = can_exceed or under <= 0
            can_fit = can_fit or over <= 0
            if can_exceed and can_fit:
                return _LIVE
        elif over <= 0 and under <= 0:
            return _LIVE
        # No depth so far was a witness, or the walk would have ended; in
        # <= mode over0 > 0 forces under0 <= 0, so none could fit, and
        # under0 > 0 forces over0 <= 0, so none could exceed.  A certified
        # trend then carries that to every later depth.
        if k >= 2:
            if over0 > 0 and _never_falls(over0, over1, over):
                return _DEAD
            if under0 > 0 and _never_falls(under0, under1, under):
                return _DONE if lo is None else _DEAD
        over0, under0, over1, under1 = over1, under1, over, under
        i += m
        k += 1


def linear_relation(system: NumerationSystem, coefficients, constant: int,
                    upper: int | None = None) -> Automaton:
    """Automaton for ``constant <= sum(c_j * value(track_j)) <= upper``,
    and for ``sum == constant`` when upper is None.

    Reading msd-first, the sum accumulated so far is kept as an integer
    pair ``(s, t)`` meaning ``s*q_i + t*q_{i-1}`` if the word ends i letters
    from now.  Walking words whose length is a multiple of the period length
    m, it knows i mod m; each step rebases the pair one position down using
    ``q_i = a_i q_{i-1} + q_{i-2}`` and discards a pair from which no depth
    of that residue can still reach the window, decided in integers (see
    :func:`_fate`).  Such a word is accepted exactly when the pair
    lands in the window and every track is canonical; leading zeros give
    the other lengths.  A window is one walk, where the intersection of
    its two ``<=`` atoms would be two walks and a product.
    """
    coefficients = tuple(int(c) for c in coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    constant = int(constant)
    upper = constant if upper is None else int(upper)
    return _linear_machine(system, coefficients, constant, upper)


def _linear_machine(system: NumerationSystem, coefficients: tuple,
                    lo: int | None, hi: int) -> Automaton:
    """Shared machine for ``lo <= sum <= hi`` and (lo None) ``sum <= hi``.

    Each successor pair is kept, dropped, or (lo None) collapsed to one
    DONE marker by the exact verdict of :func:`_fate`, walked once per
    pair.  No cutoff is needed to keep the pairs finite.  The stable
    coordinate of (s, t) contracts over each period and is driven only by
    the bounded letter weights, so it stays bounded on every reachable
    pair.  A kept pair has a depth i with V_min <= hi and one with
    V_max >= lo (the same i for a window, and hi + 1 for lo in ``<=``
    mode); divided by q_i, with (q_i - 1)/q_i < 1, they bound the
    expanding coordinate s + t*rho (rho = lim q_{i-1}/q_i along the
    residue) from above and below.  Both bounds leave finitely many
    integer pairs.

    One piece, the words of length == 0 (mod m), is walked by
    :func:`_linear_piece`, which keeps it inside canon(k), the recognizer
    of canonical k-tuples, by the digit rules at each position residue
    (:func:`_canonical_letters`).  With m = 1 the piece is the whole
    relation, and ``_canonical`` takes its rows as they are (a ``_Raw``
    machine).  With m > 1 the relation is padding closed, so closing the
    raw piece under leading zeros (:func:`~obd.automata.pad_closed`)
    gives every other length, in the one subset construction that also
    gives the canonical form.  The machine is cached on the system per
    (coefficients, lo, hi); canon(1) is the zero window ``(0,), 0, 0``.
    """
    key = ("linear", coefficients, lo, hi)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    arity, dmax = len(coefficients), system.dmax
    indptr, rows, succ, acc = _linear_piece(system, coefficients, lo, hi)
    if system.period_length == 1:
        out = _Raw(arity, dmax, indptr, rows, succ, acc)._canonical()
    else:  # rows are letter sorted, so csr_from_edges keeps the edge order
        letters, targets = (np.fromiter(itertools.chain.from_iterable(lists),
                                        np.int32, indptr[-1]) for lists in (rows, succ))
        out = pad_closed(arity, dmax, acc.size, edge_sources(indptr), letters,
                         targets, acc, 0)
    system._cache[key] = out
    return out


def _canonical_letters(system: NumerationSystem, arity: int, residue: int,
                       mask: int) -> list:
    """The letters a k-tuple of canonical strings may read at a digit
    position i >= 1 with i % m == residue, after the tracks in `mask` (bit j
    for track j) read a saturated digit at position i + 1, as (code,
    digits, next mask) in code order.

    Rules (a) and (b) are local in msd order once the residue is known: a
    digit is at most a_{i+1}, the bound ``period[residue]``, a masked track
    reads 0, and the next mask holds the tracks whose digit meets the bound.
    Rule (c) at the units digit, which this residue-0 row also serves, is
    the caller's: a word may end only with an empty mask.  Each row is
    built on first use and cached on the system, as canon(k) is.
    """
    key = ("canonical letters", arity, residue, mask)
    letters = system._cache.get(key)
    if letters is None:
        bound = system.period[residue]
        tracks = [(0,) if mask >> j & 1 else range(bound + 1) for j in range(arity)]
        letters = system._cache[key] = [
            (letter_code(digits, system.dmax), digits,
             sum(1 << j for j, d in enumerate(digits) if d == bound))
            for digits in itertools.product(*tracks)]
    return letters


def _linear_piece(system: NumerationSystem, coefficients: tuple,
                  lo: int | None, hi: int):
    """The raw phase-0 piece of :func:`_linear_machine` as rows, (indptr,
    rows, succ, acc), under the invariant ``K.canonical_rows`` trusts.

    The states are numbered in BFS discovery order from the start state,
    state 0, so every state is reachable.  Each row follows the letter
    order of :func:`_canonical_letters` and only skips the letters whose
    pair is dead, so it is strictly increasing; succ[s] holds the targets
    of rows[s], states with equal rows share one tuple, indptr (int64,
    n + 1) gives the row offsets and acc (uint8, n) the accepting flags.
    """
    arity = len(coefficients)
    m = system.period_length
    period = system.period
    c_max = sum(c for c in coefficients if c > 0)
    c_min = sum(c for c in coefficients if c < 0)
    # A pair born at phase r drops one phase per letter and is evaluated
    # at phase 0, so the one-pair machine (state = phase plus pair, a
    # decided-true pair collapsed to DONE in <= mode) started at
    # phase r accepts the words of the relation L of length == r (mod m).
    # L is padding closed, since an all-zero leading letter keeps every
    # track canonical and every value; so the piece for r is the piece
    # for 0 with m - r leading zeros removed, and L is the phase-0 piece
    # closed under leading zeros.  The phase also fixes the residue of
    # each digit's position, so canonicity is checked on the way: a state
    # is a pair id and the mask of tracks whose last digit was saturated,
    # only the letters :func:`_canonical_letters` allows are followed, and
    # acceptance also asks for an empty mask, so the piece and its closure
    # lie inside canon(k).
    DONE = None  # s and t of the decided-true pair

    # pairs[p] is the (phase, s, t) of pair id p, and steps[p] maps a
    # letter weight to the successor pair id (-1: dead); the pair
    # arithmetic and its viability test do not depend on the mask, so
    # every mask reads the same memo.  pair_id maps a pair to its id,
    # and also a successor judged DONE to the DONE pair's id and a dead
    # one to -1, since many (pair, weight) steps land on one pair, whose
    # fate is then walked once.  row_key[p] names the letter row of the
    # next digit, at position residue phase - 1.
    pair_id: dict[tuple, int] = {}
    pairs: list[tuple] = []
    steps: list[dict] = []
    row_key: list[int] = []
    n_masks = 1 << arity

    def intern(pair: tuple) -> int:
        p = pair_id.get(pair)
        if p is None:
            p = pair_id[pair] = len(pairs)
            pairs.append(pair)
            steps.append({})
            row_key.append((pair[0] - 1) % m * n_masks)
        return p

    def step(p: int, weighted: int) -> int:
        phase, s, t = pairs[p]
        nphase = (phase - 1) % m
        if s is DONE:
            return intern((nphase, DONE, DONE))
        nxt = (nphase, s * period[nphase] + t + weighted, s)
        q = pair_id.get(nxt)
        if q is None:
            fate = _fate(system, *nxt, lo, hi, c_min, c_max)
            if fate == _LIVE:
                q = intern(nxt)
            elif fate == _DONE:
                q = pair_id[nxt] = intern((nphase, DONE, DONE))
            else:
                q = pair_id[nxt] = -1
        return q

    # each (residue, mask) row as (letter, its weight, next mask), built
    # when a state first reaches it
    letter_rows: dict[int, list] = {}

    def letter_row(key: int) -> list:
        residue, mask = divmod(key, n_masks)
        row = letter_rows[key] = [
            (code, sum(map(operator.mul, coefficients, digits)), nmask)
            for code, digits, nmask in _canonical_letters(system, arity, residue, mask)]
        return row

    # a state is the integer p * n_masks + mask
    start = intern((0, 0, 0)) * n_masks
    index = {start: 0}
    order = [start]
    index_get = index.get
    rows_get = letter_rows.get
    rows, succ, shared = [], [], {}
    for state in order:  # the loop visits states appended while it runs
        p, mask = divmod(state, n_masks)
        memo = steps[p]
        memo_get = memo.get
        key = row_key[p] + mask
        row, out = [], []
        for code, weighted, nmask in rows_get(key) or letter_row(key):
            q = memo_get(weighted)
            if q is None:
                q = memo[weighted] = step(p, weighted)
            if q < 0:
                continue
            target = q * n_masks + nmask
            nxt = index_get(target)
            if nxt is None:
                nxt = index[target] = len(order)
                order.append(target)
            row.append(code)
            out.append(nxt)
        row = tuple(row)
        rows.append(shared.setdefault(row, row))  # states with equal rows share one
        succ.append(out)

    # a state accepts when its pair lands in the window at phase 0 and its
    # mask is empty, so the units digit is below a_1 (rule (c)); only
    # <= pairs are ever DONE, and DONE is true
    lands = np.array([phase == 0 and (s is DONE or (lo is None or lo <= s) and s <= hi)
                      for phase, s, _t in pairs], np.uint8)
    p, mask = np.divmod(np.array(order, np.int64), n_masks)
    accepting = lands[p] & (mask == 0)
    return K._offsets(rows), rows, succ, accepting


def inequality_relation(system: NumerationSystem, coefficients, constant: int,
                        op: str) -> Automaton:
    """Automaton for ``sum(c_j * n_j) <op> constant`` with op in <,<=,>,>=.

    All four comparisons are rewritten to a single native ``<=`` machine,
    the window walk of :func:`linear_relation` with no lower edge, whose
    pairs that can no longer exceed the constant collapse to one marker
    (see :func:`_fate`); :func:`_linear_machine` says why it stays finite
    without a slack track or a depth cutoff.
    """
    coefficients = tuple(int(c) for c in coefficients)
    constant = int(constant)
    if op == "<":
        constant -= 1
    elif op == ">":
        coefficients, constant = tuple(-c for c in coefficients), -constant - 1
    elif op == ">=":
        coefficients, constant = tuple(-c for c in coefficients), -constant
    elif op != "<=":
        raise ValueError(f"unknown inequality {op!r}")
    return _linear_machine(system, coefficients, None, constant)


# ---------------------------------------------------------------------------
# shift relation and the Fibonacci word


def shift_relation(system: NumerationSystem) -> Automaton:
    """Pairs of parallel digit strings ``(0^m y, y 0^m)``, m = period length.

    The state is the window of m digits that the first track still owes; a
    letter ``[f, g]`` is legal when f matches the oldest owed digit, and g is
    queued.  Start and accept at the all-zero window.  The language is a
    relation on raw digit strings; intersect with the canonical recognizer to
    get the value-level shift map of the core identity
    ``value(w 0^m) = q_m * value(w) + q_{m-1} * floor((value(w)+1) * gamma)``.
    """
    key = ("shift",)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    m = system.period_length
    dmax = system.dmax
    states = {(0,) * m: 0}
    order = [(0,) * m]
    transitions = []
    at = 0
    while at < len(order):
        window = order[at]
        for g in range(dmax + 1):
            succ = window[1:] + (g,)
            nxt = states.get(succ)
            if nxt is None:
                nxt = len(order)
                states[succ] = nxt
                order.append(succ)
            transitions.append((at, (window[0], g), nxt))
        at += 1
    out = Automaton.from_transitions(2, dmax, len(order), 0, [0], transitions)
    system._cache[key] = out
    return out


def fibonacci_word(system: NumerationSystem) -> Automaton:
    """Word automaton for the Fibonacci word, fixed point of 0->01, 1->0.

    Only defined over the [1] system.  The native encoding of n is the
    Zeckendorf form with one forced trailing zero, so the n-th letter is the
    next-to-last digit read: the automaton remembers the last two digits and
    outputs the older one.
    """
    if tuple(system.period) != (1,):
        raise ValueError("the Fibonacci word lives in the [1] numeration system")
    key = ("fibword",)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {pc: i for i, pc in enumerate(pairs)}
    transitions = [(i, (d,), index[(c, d)])
                   for (p, c), i in index.items() for d in (0, 1)]
    out = Automaton.from_transitions(
        1, system.dmax, len(pairs), 0, range(len(pairs)), transitions,
        outputs=[p for p, _ in pairs])
    system._cache[key] = out
    return out
