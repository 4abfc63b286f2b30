"""Atom builders for synchronized relations over one Ostrowski numeration system.

Everything here returns an :class:`~obd.automata.Automaton` whose tracks read
digit tuples msd-first.  Unless a docstring says otherwise the language lies
inside the canonical-word recognizer canon(k), so accepted words are
zero-padded canonical representations and the automaton denotes a relation on
natural numbers.

The central construction is :func:`linear_relation`, which recognizes
``sum(c_j * n_j) == c0`` by tracking the running imbalance in a rolling basis
of consecutive convergent denominators; :func:`inequality_relation` is its
``<=`` twin, and every comparison atom of a formula compiles to one of the
two.  Both build every atom, whatever its coefficients, by walking the
imbalance in step with canon(k) over the words whose length is a multiple
of the period length m, then closing that piece under leading zeros, which
gives every other length; no product with canon(k) follows.  Whether an
imbalance can still reach the constant is decided in exact integers: the
canonical suffixes of length i are worth 0 .. q_i - 1, which bounds what
the digits still to come can add, and the depths it could end at are
walked until a witness or a certificate of monotone growth settles it
(see :func:`_fate`); no float and no cutoff.
:func:`shift_relation` is the digit-shift relation the paper's
synchronizers are written over, and :func:`fibonacci_word` a word automaton.
Anything composed from these atoms, the floor synchronizers of
:mod:`obd.beatty` included, is written as a formula and compiled by
:mod:`obd.logic`.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as K
from .automata import Automaton, _Raw, csr_from_edges, determinized, letter_digits
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


def _canon_1(system: NumerationSystem) -> Automaton:
    """Single-track recognizer of zero-padded canonical digit strings.

    Built least-significant-digit first, where the validity rules are local
    (position mod m picks the digit bound, a saturated digit forces the
    previous one to zero); its edges, reversed into msd reading order, go
    straight to the subset construction.
    """
    key = ("canon", 1)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    m = system.period_length
    dmax = system.dmax
    period = system.period
    # state 0: nothing read yet (about to read the units digit)
    # state 1 + r*(dmax+1) + p: about to read position i with i % m == r,
    # previous digit was p
    def pos_state(r: int, p: int) -> int:
        return 1 + r * (dmax + 1) + p

    edges = [(0, d, pos_state(1 % m, d))  # units digit strictly below a_1
             for d in range(period[0])]
    for r in range(m):
        bound = period[r]  # digit bound at positions i % m == r, i >= 1
        for p in range(dmax + 1):
            for d in range(bound + 1):
                if d == bound and p != 0:
                    continue  # saturated digit demands a zero below it
                edges.append((pos_state(r, p), d, pos_state((r + 1) % m, d)))
    n_states = 1 + m * (dmax + 1)
    src, digits, dst = np.array(edges, np.int64).T
    # every lsd state accepts, so the reversed machine starts in all of them
    acc = np.zeros(n_states, np.uint8)
    acc[0] = 1
    canon = determinized(1, dmax, *csr_from_edges(n_states, dst, digits, src),
                         acc, np.arange(n_states))
    system._cache[key] = canon
    return canon


def canonical_recognizer(system: NumerationSystem, arity: int = 1) -> Automaton:
    """Recognizer of k-tuples whose tracks are all zero-padded canonical.

    canon(k) is canon(k-1) on the first k-1 tracks intersected with
    canon(1) on the last, one product per arity, each cached."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    if arity == 0:
        return Automaton.universal(0, system.dmax)
    if arity == 1:
        return _canon_1(system)
    key = ("canon", arity)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    head = canonical_recognizer(system, arity - 1).lift(arity, range(arity - 1))
    out = head.intersect(_canon_1(system).lift(arity, [arity - 1]))
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


def _fate(system: NumerationSystem, r: int, s: int, t: int, constant: int,
          c_min: int, c_max: int, le: bool) -> int:
    """Exact viability verdict on the pair (s, t) at phase r.

    The canonical strings of length i are worth exactly 0 .. q_i - 1
    (Ostrowski), so with c_min and c_max the sums of the negative and of
    the positive coefficients, the suffixes still to come at depth i add
    between c_min*(q_i - 1) and c_max*(q_i - 1).  With
    ``g_c(k) = s*q_i + t*q_{i-1} + c*(q_i - 1) - constant`` at the depth
    i = r + k*m, the pair is _LIVE for ``==`` iff some k has
    g_min(k) <= 0 <= g_max(k), and _DEAD otherwise.  For ``<=`` it can
    exceed iff some g_max(k) > 0 and can fit iff some g_min(k) <= 0; it is
    _DONE when it cannot exceed, _DEAD when it cannot fit, else _LIVE.
    The range bounds each track on its own, so the verdict over-approximates
    what canonical tuples can reach: DEAD and DONE are never wrong, and a
    LIVE pair that reaches nothing is trimmed with the raw piece.
    The walk over k stops on such a witness or on a certificate of
    :func:`_never_falls` that g_min stays above 0 or g_max stays at or
    below it.  It always stops: the differences of g are
    alpha*lambda^k + beta*lambda'^k with |lambda'| < 1 < lambda, and
    alpha = 0 only when they all vanish, since the expanding eigenvector
    has irrational slope; so g turns monotone and a certificate comes.
    """
    m = system.period_length
    qs = system.q_list(0)  # entry i + 1 is q_i
    can_exceed = can_fit = False
    lo1 = hi1 = None
    i = r
    k = 0
    while True:
        if i + 1 >= len(qs):
            system.q(2 * i + m)  # grows qs in place
        qi = qs[i + 1]
        head = s * qi + t * qs[i] - constant
        lo = head + c_min * (qi - 1)
        hi = head + c_max * (qi - 1)
        if le:
            can_exceed = can_exceed or hi > 0
            can_fit = can_fit or lo <= 0
            if can_exceed and can_fit:
                return _LIVE
        elif lo <= 0 <= hi:
            return _LIVE
        # No depth so far was a witness, or the walk would have ended; in
        # <= mode lo0 > 0 forces hi0 > 0, so none could fit, and hi0 <= 0
        # forces lo0 <= 0, so none could exceed.  A certified trend then
        # carries that to every later depth.
        if k >= 2:
            if lo0 > 0 and _never_falls(lo0, lo1, lo):
                return _DEAD
            if hi0 <= 0 and _never_falls(-hi0, -hi1, -hi):
                return _DONE if le else _DEAD
        lo0, hi0, lo1, hi1 = lo1, hi1, lo, hi
        i += m
        k += 1


def linear_relation(system: NumerationSystem, coefficients, constant: int) -> Automaton:
    """Automaton for ``sum(c_j * value(track_j)) == constant``.

    Reading msd-first, the imbalance accumulated so far is kept as an integer
    pair ``(s, t)`` meaning ``s*q_i + t*q_{i-1}`` if the word ends i letters
    from now.  Walking words whose length is a multiple of the period length
    m, it knows i mod m; each step rebases the pair one position down using
    ``q_i = a_i q_{i-1} + q_{i-2}`` and discards a pair from which no depth
    of that residue can still reach the constant, decided in integers (see
    :func:`_fate`).  Such a word is accepted exactly when the pair
    lands on the constant and every track is canonical; leading zeros give
    the other lengths.
    """
    coefficients = tuple(int(c) for c in coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    return _linear_machine(system, coefficients, int(constant), le=False)


def _linear_machine(system: NumerationSystem, coefficients: tuple,
                    constant: int, le: bool) -> Automaton:
    """Shared machine for ``sum == constant`` and (le=True) ``sum <= constant``.

    Each successor pair is kept, dropped, or (le=True) collapsed to one
    DONE marker by the exact verdict of :func:`_fate`, walked once per
    pair.  No cutoff is needed to keep the pairs finite.  The stable
    coordinate of (s, t) contracts over each period and is driven only by
    the bounded letter weights, so it stays bounded on every reachable
    pair.  A kept pair has a depth i with g_min <= 0 and one with
    g_max >= 0 (the same i for ``==``); divided by q_i, with
    (q_i - 1)/q_i < 1, they bound the expanding coordinate s + t*rho
    (rho = lim q_{i-1}/q_i along the residue) from above and below.
    Both bounds leave finitely many integer pairs.

    One piece, the words of length == 0 (mod m), is walked in step with
    the CSR rows of canon(k), the recognizer of canonical k-tuples, by
    :func:`_linear_piece`, whose rows ``_canonical`` takes as they are
    (a ``_Raw`` machine).  The relation is padding closed, so with m > 1
    closing the canonical piece under leading zeros
    (:meth:`Automaton.pad_normalized`) gives every other length; with
    m = 1 the piece is the whole relation.  The machine is cached on the
    system per (coefficients, constant, le).
    """
    key = ("linear", coefficients, constant, le)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    out = _Raw(len(coefficients), system.dmax,
               *_linear_piece(system, coefficients, constant, le))._canonical()
    if system.period_length > 1:
        out = out.pad_normalized()
    system._cache[key] = out
    return out


def _linear_piece(system: NumerationSystem, coefficients: tuple,
                  constant: int, le: bool):
    """The raw phase-0 piece of :func:`_linear_machine` as rows, (indptr,
    rows, succ, acc), under the invariant ``K.canonical_rows`` trusts.

    The states are numbered in BFS discovery order from the start state,
    state 0, so every state is reachable.  Each row follows its canon
    state's letter-sorted CSR row and only skips the letters whose pair
    is dead, so it is strictly increasing; succ[s] holds the targets of
    rows[s], states with equal rows share one tuple, indptr (int64,
    n + 1) gives the row offsets and acc (uint8, n) the accepting flags.
    """
    arity = len(coefficients)
    dmax = system.dmax
    m = system.period_length
    period = system.period
    c_max = sum(c for c in coefficients if c > 0)
    c_min = sum(c for c in coefficients if c < 0)
    # A pair born at phase r drops one phase per letter and is evaluated
    # at phase 0, so the one-pair machine (state = phase plus pair, a
    # decided-true pair collapsed to DONE in comparison mode) started at
    # phase r accepts the words of the relation L of length == r (mod m).
    # L is padding closed, since an all-zero leading letter keeps every
    # track canonical and every value; so the piece for r is the piece
    # for 0 with m - r leading zeros removed, and L is the phase-0 piece
    # closed under leading zeros.  It is walked in step with canon(k): a
    # state is a pair id and a canon state c, only the letters of c's row
    # are followed, and acceptance also asks that c accepts, so the piece
    # and its closure lie inside canon(k).
    DONE = None  # s and t of the decided-true pair
    weight_of = [sum(c * d for c, d in zip(coefficients,
                                           letter_digits(code, arity, dmax)))
                 for code in range((dmax + 1) ** arity)]
    canon = canonical_recognizer(system, arity)
    c_indptr = canon.indptr.tolist()
    c_letters, c_targets = canon.letters.tolist(), canon.targets.tolist()
    # canon(k)'s rows, each edge as (letter, its weight, target)
    c_rows = [list(zip(c_letters[lo:hi], map(weight_of.__getitem__, c_letters[lo:hi]),
                       c_targets[lo:hi])) for lo, hi in zip(c_indptr, c_indptr[1:])]
    nc = canon.n_states

    # pairs[p] is the (phase, s, t) of pair id p, and steps[p] maps a
    # letter weight to the successor pair id (-1: dead); the pair
    # arithmetic and its viability test do not depend on c, so every
    # canon state reads the same memo.  pair_id maps a pair to its id,
    # and also a successor judged DONE to the DONE pair's id and a dead
    # one to -1, since many (pair, weight) steps land on one pair, whose
    # fate is then walked once.
    pair_id: dict[tuple, int] = {}
    pairs: list[tuple] = []
    steps: list[dict] = []

    def intern(pair: tuple) -> int:
        p = pair_id.get(pair)
        if p is None:
            p = pair_id[pair] = len(pairs)
            pairs.append(pair)
            steps.append({})
        return p

    def step(p: int, weighted: int) -> int:
        phase, s, t = pairs[p]
        nphase = (phase - 1) % m
        if s is DONE:
            return intern((nphase, DONE, DONE))
        nxt = (nphase, s * period[nphase] + t + weighted, s)
        q = pair_id.get(nxt)
        if q is None:
            fate = _fate(system, *nxt, constant, c_min, c_max, le)
            if fate == _LIVE:
                q = intern(nxt)
            elif fate == _DONE:
                q = pair_id[nxt] = intern((nphase, DONE, DONE))
            else:
                q = pair_id[nxt] = -1
        return q

    # a state is the integer p * nc + c
    start = intern((0, 0, 0)) * nc + canon.initial
    index = {start: 0}
    order = [start]
    index_get = index.get
    rows, succ, shared = [], [], {}
    for state in order:  # the loop visits states appended while it runs
        p, c = divmod(state, nc)
        memo = steps[p]
        memo_get = memo.get
        row, out = [], []
        for code, weighted, ct in c_rows[c]:
            q = memo_get(weighted)
            if q is None:
                q = memo[weighted] = step(p, weighted)
            if q < 0:
                continue
            target = q * nc + ct
            nxt = index_get(target)
            if nxt is None:
                nxt = index[target] = len(order)
                order.append(target)
            row.append(code)
            out.append(nxt)
        row = tuple(row)
        rows.append(shared.setdefault(row, row))  # states with equal rows share one
        succ.append(out)

    # a state accepts when its pair lands on the constant at phase 0 and
    # its canon state accepts; only comparison pairs are ever DONE, and
    # DONE is true
    lands = np.array([phase == 0 and (s is DONE or (s <= constant if le else s == constant))
                      for phase, s, _t in pairs], np.uint8)
    p, c = np.divmod(np.array(order, np.int64), nc)
    accepting = lands[p] & canon.accepting[c]
    return K._offsets(rows), rows, succ, accepting


def inequality_relation(system: NumerationSystem, coefficients, constant: int,
                        op: str) -> Automaton:
    """Automaton for ``sum(c_j * n_j) <op> constant`` with op in <,<=,>,>=.

    All four comparisons are rewritten to a single native ``<=`` machine,
    whose pairs that can no longer exceed the constant collapse to one
    marker (see :func:`_fate`); :func:`_linear_machine` says why it stays
    finite without a slack track or a depth cutoff.
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
    return _linear_machine(system, coefficients, constant, le=True)


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
