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
gives every other length; no product with canon(k) follows.
:func:`shift_relation` is the digit-shift relation the paper's
synchronizers are written over, and :func:`fibonacci_word` a word automaton.
Anything composed from these atoms, the floor synchronizers of
:mod:`obd.beatty` included, is written as a formula and compiled by
:mod:`obd.logic`.
"""

from __future__ import annotations

from array import array

import numpy as np

from .automata import Automaton, letter_digits
from .numeration import NumerationSystem

__all__ = [
    "canonical_recognizer",
    "linear_relation",
    "pruning_bound",
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
    previous one to zero), then reversed into msd reading order.
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

    transitions = []
    first_bound = period[0] - 1  # units digit is strictly below a_1
    for d in range(first_bound + 1):
        transitions.append((0, (d,), pos_state(1 % m, d)))
    for r in range(m):
        bound = period[r]  # digit bound at positions i % m == r, i >= 1
        for p in range(dmax + 1):
            src = pos_state(r, p)
            for d in range(bound + 1):
                if d == bound and p != 0:
                    continue  # saturated digit demands a zero below it
                transitions.append((src, (d,), pos_state((r + 1) % m, d)))
    n_states = 1 + m * (dmax + 1)
    lsd = Automaton.from_transitions(
        1, dmax, n_states, 0, range(n_states), transitions)
    canon = lsd.reverse_determinized()
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


def pruning_bound(system: NumerationSystem, coefficients, constant: int) -> int:
    """Viability cutoff for the rolling-basis imbalance.

    A hypothesis holding partial value ``s*q_i + t*q_{i-1}`` can still reach
    the constant only if that value is within what the remaining digits can
    contribute, which is at most ``W*dmax*(q_0+...+q_{i-1}) <= 4*W*dmax*q_i``
    with W the sum of absolute coefficients.  Dividing out q_i, the pair must
    satisfy ``|s + t*rho| <= M`` for the current convergent ratio
    ``rho = q_{i-1}/q_i`` in (0, 1].  The bound returned here exceeds that M
    with room to spare; it is validated against a doubled bound in the test
    suite and can simply be raised if a counterexample ever shows up.
    """
    weight = sum(abs(c) for c in coefficients)
    return weight * (system.dmax + 2) * (max(system.period) + 1) + abs(constant)


def _depth_bands(system: NumerationSystem):
    """Per-residue viability data for the rolling-basis machines.

    A hypothesis pair is judged against every depth i it could still end
    at (i = letters yet to come, i == r mod m for slot r).  Small depths
    get exact integer triples ``(q_i, q_{i-1}, q_0+...+q_{i-1})``; past
    the settling point the convergent ratio ``q_{i-1}/q_i`` and the
    cancelation mass ``(q_0+...+q_{i-1})/q_i`` have converged, so the tail
    is covered by one tight bracket per residue plus the smallest tail
    denominator (which brackets the scaled target ``constant/q_i``).
    Returns (depth_table, rho_lo, rho_hi, mass_hi, q_min), all by residue.
    """
    key = ("depth_bands",)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    m = system.period_length
    exact_until = 3 * m + 3
    depth_table = [[] for _ in range(m)]
    mass = 0
    for i in range(exact_until + 1):
        qi = system.q(i)
        depth_table[i % m].append((qi, system.q(i - 1) if i else 0, mass))
        mass += qi
    rho_lo = [2.0] * m
    rho_hi = [-1.0] * m
    mass_hi = [0.0] * m
    q_min = [0] * m
    for i in range(exact_until + 1, exact_until + 8 * m + 120):
        qi = system.q(i)
        r = i % m
        rho = system.q(i - 1) / qi
        rho_lo[r] = min(rho_lo[r], rho)
        rho_hi[r] = max(rho_hi[r], rho)
        mass_hi[r] = max(mass_hi[r], mass / qi)
        if not q_min[r]:
            q_min[r] = qi
        mass += qi
    out = (depth_table, [x - 1e-9 for x in rho_lo],
           [x + 1e-9 for x in rho_hi],
           [x * 1.001 + 1e-9 for x in mass_hi], q_min)
    system._cache[key] = out
    return out


def linear_relation(system: NumerationSystem, coefficients, constant: int,
                    *, bound: int | None = None) -> Automaton:
    """Automaton for ``sum(c_j * value(track_j)) == constant``.

    Reading msd-first, the imbalance accumulated so far is kept as an integer
    pair ``(s, t)`` meaning ``s*q_i + t*q_{i-1}`` at the current position
    ``i``.  Walking words whose length is a multiple of the period length
    m, it knows the current position mod m; each step rebases the pair one
    position down using ``q_i = a_i q_{i-1} + q_{i-2}`` and discards a pair
    that drifts outside the still-cancelable band (see
    :func:`pruning_bound`).  Such a word is accepted exactly when the pair
    lands on the constant and every track is canonical; leading zeros give
    the other lengths (see :func:`_linear_machine`).
    """
    coefficients = tuple(int(c) for c in coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    return _linear_machine(system, coefficients, int(constant), bound, le=False)


def _linear_machine(system: NumerationSystem, coefficients: tuple,
                    constant: int, bound: int | None, le: bool) -> Automaton:
    """Shared machine for ``sum == constant`` and (le=True) ``sum <= constant``.

    The equality machine keeps a hypothesis pair only while the band test
    says the constant is still reachable.  The comparison machine has no
    lower cliff: a pair that can no longer exceed the constant is decided
    and collapses to a single DONE marker, so the live band has the same
    width in both modes.

    One piece, the words of length == 0 (mod m), is walked in step with
    the CSR rows of canon(k), the recognizer of canonical k-tuples.  The
    relation is padding closed, so with m > 1 closing the piece under
    leading zeros (:meth:`Automaton.pad_normalized`) gives every other
    length; with m = 1 the piece is the whole relation.  The machine is
    cached on the system per (coefficients, constant, bound, le).
    """
    key = ("linear", coefficients, constant, bound, le)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    arity = len(coefficients)
    dmax = system.dmax
    m = system.period_length
    period = system.period
    cutoff = pruning_bound(system, coefficients, constant) if bound is None else bound
    # termination backstop, far beyond anything the depth tests let survive
    hard = 64 * cutoff + 64
    depth_table, rho_lo, rho_hi, mass_hi, q_min = _depth_bands(system)

    # The slot pair (s, t) stands for the value s*q_i + t*q_{i-1} if the
    # word ends i letters from now; the digits still to come then add
    # between d_min and d_max times the mass q_0+...+q_{i-1}.  Small i are
    # tested exactly, the converged tail through the scaled windows below.
    d_max = sum(c for c in coefficients if c > 0) * dmax
    d_min = sum(c for c in coefficients if c < 0) * dmax
    twin_lo = [min(constant / q_min[r], 0.0) - d_max * mass_hi[r] - 0.5
               for r in range(m)]
    twin_hi = [max(constant / q_min[r], 0.0) - d_min * mass_hi[r] + 0.5
               for r in range(m)]

    DEAD, LIVE, DONE_CODE = 0, 1, 2

    def viable(r: int, s: int, t: int) -> int:
        for qi, qim1, mass in depth_table[r]:
            head = s * qi + t * qim1
            if head + d_min * mass <= constant <= head + d_max * mass:
                return LIVE
        if abs(s) > hard or abs(t) > hard:
            return DEAD
        a, b = s + t * rho_lo[r], s + t * rho_hi[r]
        if a > b:
            a, b = b, a
        return LIVE if a <= twin_hi[r] and b >= twin_lo[r] else DEAD

    def viable_le(r: int, s: int, t: int) -> int:
        can_exceed = False  # some completion ends above the constant
        can_fit = False     # some completion ends at or below it
        for qi, qim1, mass in depth_table[r]:
            head = s * qi + t * qim1
            if head + d_max * mass > constant:
                can_exceed = True
            if head + d_min * mass <= constant:
                can_fit = True
            if can_exceed and can_fit:
                return LIVE
        a, b = s + t * rho_lo[r], s + t * rho_hi[r]
        if a > b:
            a, b = b, a
        if b > twin_lo[r]:
            can_exceed = True
        if a <= twin_hi[r]:
            can_fit = True
        if not can_exceed:
            return DONE_CODE
        if not can_fit:
            return DEAD
        if abs(s) > hard or abs(t) > hard:  # termination backstop
            return DEAD
        return LIVE

    if le:
        viable = viable_le

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
    DONE = -(8 * hard + 9)
    weight_of = [sum(c * d for c, d in zip(coefficients,
                                           letter_digits(code, arity, dmax)))
                 for code in range((dmax + 1) ** arity)]
    canon = canonical_recognizer(system, arity)
    c_indptr = canon.indptr.tolist()
    c_letters = canon.letters.tolist()
    c_targets = canon.targets.tolist()
    c_accepting = canon.accepting.tolist()
    nc = canon.n_states

    # pairs[p] is the (phase, s, t) of pair id p, and steps[p] maps a
    # letter weight to the successor pair id (-1: dead); the pair
    # arithmetic and its viability test do not depend on c, so every
    # canon state reads the same memo
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
        if s == DONE:
            return intern((nphase, DONE, DONE))
        ns, nt = s * period[nphase] + t + weighted, s
        fate = viable(nphase, ns, nt)
        if fate == LIVE:
            return intern((nphase, ns, nt))
        if fate == DONE_CODE:
            return intern((nphase, DONE, DONE))
        return -1

    # a state is the integer p * nc + c
    start = intern((0, 0, 0)) * nc + canon.initial
    index = {start: 0}
    order = [start]
    edge_src = array("q")
    edge_letter = array("i")
    edge_dst = array("i")
    index_get = index.get
    at = 0
    while at < len(order):
        p, c = divmod(order[at], nc)
        memo = steps[p]
        memo_get = memo.get
        for j in range(c_indptr[c], c_indptr[c + 1]):
            code = c_letters[j]
            weighted = weight_of[code]
            q = memo_get(weighted)
            if q is None:
                q = memo[weighted] = step(p, weighted)
            if q < 0:
                continue
            succ = q * nc + c_targets[j]
            nxt = index_get(succ)
            if nxt is None:
                nxt = len(order)
                index[succ] = nxt
                order.append(succ)
            edge_src.append(at)
            edge_letter.append(code)
            edge_dst.append(nxt)
        at += 1

    n_states = len(order)
    accepting = np.zeros(n_states, np.uint8)
    for i, state in enumerate(order):
        p, c = divmod(state, nc)
        phase, s, _t = pairs[p]
        # DONE (very negative) passes <= and can never equal the constant
        if phase == 0 and c_accepting[c] and (
                s <= constant if le else s == constant):
            accepting[i] = 1
    src = np.frombuffer(edge_src, np.int64)
    lets = np.frombuffer(edge_letter, np.int32)
    targets = np.frombuffer(edge_dst, np.int32)
    indptr = np.zeros(n_states + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n_states), out=indptr[1:])
    out = Automaton(arity, dmax, indptr, lets, targets, accepting, 0)._canonical()
    if m > 1:
        out = out.pad_normalized()
    system._cache[key] = out
    return out


def inequality_relation(system: NumerationSystem, coefficients, constant: int,
                        op: str) -> Automaton:
    """Automaton for ``sum(c_j * n_j) <op> constant`` with op in <,<=,>,>=.

    All four comparisons are rewritten to a single native ``<=`` machine;
    see :func:`_linear_machine` for how it stays finite without a slack
    track.
    """
    coefficients = tuple(int(c) for c in coefficients)
    constant = int(constant)
    if op in ("<", "lt"):
        coefficients, constant, op = coefficients, constant - 1, "<="
    elif op in (">", "gt"):
        coefficients, constant, op = tuple(-c for c in coefficients), -constant - 1, "<="
    elif op in (">=", "ge", "geq"):
        coefficients, constant, op = tuple(-c for c in coefficients), -constant, "<="
    elif op in ("<=", "le", "leq"):
        op = "<="
    else:
        raise ValueError(f"unknown inequality {op!r}")
    return _linear_machine(system, coefficients, constant, None, le=True)


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
