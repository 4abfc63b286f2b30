"""Kernels for the automaton algebra.

CSR contract.  An automaton with n states and m transitions is stored as
indptr (int64, n+1), letters (int32, m) and targets (int32, m), sorted by
(state, letter) with at most one transition per (state, letter); an
accepting mask (uint8, n) and a single initial state.  Missing transitions
go to an implicit dead sink.  Kernels never write into their inputs,
except that ``canonical_rows`` takes over the lists it is given, and may
return a read-only array, so callers must not write into automaton
arrays.

Canonical form has one tail, over Python lists: the co-reach cut
(relations only: the states that reach no accepting state go, with the
edges into them), ``min_blocks``, ``quotient`` and ``bfs_renumber``,
each a loop with ``dict`` interning, and the output arrays built once.
It has two entries.  ``canonical_rows`` takes rows from three
producers, ``pair_product``, ``determinize`` and the linear atoms' walk
over period length 1 (``relations._linear_piece``; a longer period's
piece goes to ``determinize`` for its leading-zero closure), and trusts
their invariant: states numbered in BFS discovery order from state 0,
so every state is reachable, and each row letter sorted.  So it runs no
forward pass and remaps no target, unless the co-reach cuts a state.
``canonical`` takes CSR arrays from every other producer
(``Automaton.from_transitions``, ``permute_tracks`` and word automata),
converts them to lists once and runs ``trim``, the forward pass, first.
A small machine needs many BFS levels and Moore rounds for few edges,
and a numpy call costs microseconds however little it does, so on the
machines the benchmark's scripts canonicalise (at most about 8 000
edges) the lists win by far.  On much larger machines (s11's 24 407-state
subset construction) a whole-array chain was about three times faster,
but no benchmark workload reached it, so it was not worth a second
implementation.

``pair_product`` has one path too: a loop over pairs in BFS order that
builds a state's row, letter -> target, the first time a pair reaches
that state, so a large input costs only its reached rows.  Whole-array
passes win only on products of at least about 4 000 input edges, a few
per benchmark pass, by a few milliseconds per pass: not worth a second
implementation.  ``determinize`` is a list loop too and has one caller,
``automata.determinized``, through which every subset construction goes;
``walk`` reads one word through a dense successor table (see
``Automaton.successors``).

Memory.  Arrays kept per edge are int32; int64 appears only where numpy
needs it.  A product, a subset construction or a period-1 linear atom's
raw piece is handed on as lists, a letter row and a target row per
state, never as flat arrays, since the canonical tail reads lists, and
states with equal letter rows share one tuple.  The product's working set is
its pair index and the rows of the states its pairs reach, so it grows
with the reached part of each input, not with the whole input.  The
co-reach cut keeps one set of the states known to reach acceptance, and
predecessor lists only for the states two sweeps leave open, not a
predecessor list per state; it renumbers the kept target rows in place.
"""
from __future__ import annotations

from array import array
from operator import itemgetter

import numpy as np

HAVE_NUMBA = False  # the kernels are numpy and plain Python only


def _offsets(rows):
    """Row offsets (int64, n + 1) of per-state rows."""
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=indptr[1:])
    return indptr


# ---------------------------------------------------------------------------
# pairwise product  (mode: 0 and, 1 or, 2 xor, 3 andnot)
# ---------------------------------------------------------------------------

def pair_product(ia, la, ta, aa, inita, ib, lb, tb, ab, initb, mode):
    """Reachable part of the product as rows: (indptr, rows, succ, acc).

    States are pairs numbered in BFS discovery order from the initial
    pair, state 0, so every state is reachable; rows[s] lists state s's
    letters in increasing order and succ[s] their targets, indptr
    (int64, n + 1) gives the row offsets and acc (uint8, n) the accepting
    flags.  ``canonical_rows`` trusts this.  A side that has fallen into
    the dead sink is -1 in the pair; modes 0 and 3 drop pairs whose left
    side is dead, mode 0 also the right side.
    """
    width = ib.size  # pair key: (a + 1) * width + b + 1
    # each target as its part of the pair key, one int per state that all
    # the edges into it share
    part_a = list(range(width, ia.size * width, width))
    part_b = list(range(1, width))
    ip_a, lt_a, tg_a = ia.tolist(), la.tolist(), list(map(part_a.__getitem__, ta.tolist()))
    ip_b, lt_b, tg_b = ib.tolist(), lb.tolist(), list(map(part_b.__getitem__, tb.tolist()))
    # a side's row maps a letter to its target's part of the pair key; rows
    # are built on first use, and row 0 is the dead side -1's, empty
    rows_a, rows_b = [None] * len(ip_a), [None] * len(ip_b)
    rows_a[0] = rows_b[0] = {}
    start = (int(inita) + 1) * width + int(initb) + 1
    index, pairs, n = {start: 0}, [start], 1
    rows, succ, shared = [], [], {}
    for key in pairs:  # the loop visits pairs appended while it runs
        a, b = divmod(key, width)
        ra = rows_a[a]
        if ra is None:
            lo, hi = ip_a[a - 1], ip_a[a]
            ra = rows_a[a] = dict(zip(lt_a[lo:hi], tg_a[lo:hi]))
        rb = rows_b[b]
        if rb is None:
            lo, hi = ip_b[b - 1], ip_b[b]
            rb = rows_b[b] = dict(zip(lt_b[lo:hi], tg_b[lo:hi]))
        if mode == 0:  # the shorter row's letters that the other row has
            short, other = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
            row = tuple([c for c in short if c in other])
        elif mode == 3:
            row = tuple(ra)
        else:
            row = tuple(sorted(ra.keys() | rb.keys()))
        row = shared.setdefault(row, row)  # states with equal rows share one
        out = [0] * len(row)  # at its final size
        for i, c in enumerate(row):
            k = ra.get(c, 0) + rb.get(c, 0)
            t = out[i] = index.setdefault(k, n)
            if t == n:
                pairs.append(k)
                n += 1
        rows.append(row)
        succ.append(out)
    a, b = np.divmod(np.fromiter(pairs, np.int64, len(pairs)), width)
    fa, fb = np.append(0, aa)[a] != 0, np.append(0, ab)[b] != 0  # -1 reads False
    return (_offsets(rows), rows, succ,
            (fa & fb, fa | fb, fa != fb, fa & ~fb)[mode].astype(np.uint8))


# ---------------------------------------------------------------------------
# canonical form: trim (array entry only), the co-reach cut, Moore
# minimization, quotient and BFS numbering, over Python lists.  trim,
# min_blocks, quotient and bfs_renumber are module-level functions, called
# through the module's globals, so that each can be timed on its own.
# ---------------------------------------------------------------------------

def trim(ip, lt, tg, initial):
    """The part of a machine, given as CSR lists, reachable from `initial`:
    its states in discovery order (`initial` first), and the letter row
    and target row of each, targets as positions in that order."""
    at = [-1] * (len(ip) - 1)  # input state -> position in `states`
    at[initial] = 0
    states = [initial]
    for s in states:  # the loop visits states appended while it runs
        for t in tg[ip[s]:ip[s + 1]]:
            if at[t] < 0:
                at[t] = len(states)
                states.append(t)
    remap = at.__getitem__
    return (states, [lt[ip[s]:ip[s + 1]] for s in states],
            [list(map(remap, tg[ip[s]:ip[s + 1]])) for s in states])


def _cut_dead(rows, succ, accepting, states):
    """The states of a relation reachable from state 0 that also reach
    an accepting state, in order, as (rows, succ, accepting, states)
    with edges into the other states dropped; None when state 0 reaches
    no accepting state.  `states` names the input state of each position
    (None: the position itself).  The kept target rows are renumbered in
    place."""
    live = {s for s, f in enumerate(accepting) if f}
    isdisjoint, keep = live.isdisjoint, live.add
    # a sweep down from the last state, then one up over what is left: in
    # BFS order most edges point forward, so the sweeps find most of the
    # states that reach acceptance.  A state leaves `pending` when it has
    # an edge into a state known to reach it (keep returns None).
    pending = range(len(succ) - 1, -1, -1) if live else ()
    for _ in range(2):
        pending = [s for s in pending
                   if s not in live and (isdisjoint(succ[s]) or keep(s))][::-1]
    # the rest by a backward search over the pending states' edges only
    preds: dict = {}
    for s in pending:
        for t in succ[s]:
            preds.setdefault(t, []).append(s)
    stack = list(live.intersection(preds))
    while stack:
        for p in preds.get(stack.pop(), ()):
            if p not in live:
                keep(p)
                stack.append(p)
    if 0 not in live:
        return None
    if len(live) == len(succ):
        return rows, succ, accepting, states
    kept = sorted(live)
    at = [-1] * len(succ)  # position -> position among the kept, -1 when cut
    for i, s in enumerate(kept):
        at[s] = i
    remap = at.__getitem__
    rows, succ = list(map(rows.__getitem__, kept)), list(map(succ.__getitem__, kept))
    for i, out in enumerate(succ):
        out[:] = map(remap, out)  # in place: the lists are handed over
        if -1 in out:  # edges into cut states go too
            rows[i] = [c for c, t in zip(rows[i], out) if t >= 0]
            succ[i] = [t for t in out if t >= 0]
    return (rows, succ, list(map(accepting.__getitem__, kept)),
            kept if states is None else list(map(states.__getitem__, kept)))


def _no_targets(block):
    return None


def min_blocks(rows, succ, labels):
    """Block of each state under the Nerode congruence, by Moore rounds
    from the partition by (label, letter row), numbered by first
    occurrence.  States with different rows are never equivalent, so
    starting there gives the same fixpoint.  The machine must be trimmed;
    the implicit sink is its own class."""
    ids: dict = {}
    block = [ids.setdefault((label, *row), len(ids)) for label, row in zip(labels, rows)]
    nblocks = len(ids)
    # a state's target blocks, read in one call: states of one block have
    # one row, so their keys have one shape
    reads = [itemgetter(*out) if out else _no_targets for out in succ]
    while nblocks < len(block):  # singletons cannot split
        ids = {}
        new = [ids.setdefault((b, read(block)), len(ids))
               for b, read in zip(block, reads)]
        if len(ids) == nblocks:
            break
        block, nblocks = new, len(ids)
    return block


def quotient(block):
    """One state of each block, by block (blocks are numbered by first
    occurrence).  Equivalent states have equal rows up to blocks, so any
    one will do."""
    return list(dict(zip(block, range(len(block)))).values())


def bfs_renumber(rows, succ, block, rep):
    """CSR lists of the machine on blocks, the blocks numbered in BFS
    discovery order from state 0's, and the state `rep` gives for each
    output state.  Each block reads the row of its state in `rep`, its
    targets through `block`.  Rows are letter sorted, so the numbering is
    canonical for isomorphic machines.  Unreachable blocks are dropped."""
    pos = [-1] * len(rep)
    pos[block[0]] = 0
    order = [block[0]]
    indptr, letters, targets = [0], [], []
    for b in order:  # the loop visits blocks appended while it runs
        s = rep[b]
        for t in succ[s]:
            t = block[t]
            if pos[t] < 0:
                pos[t] = len(order)
                order.append(t)
            targets.append(pos[t])
        letters += rows[s]
        indptr.append(len(targets))
    return indptr, letters, targets, [rep[b] for b in order]


def _tail(rows, succ, labels, relation, acc, states=None):
    """The co-reach cut (relations only), min_blocks, quotient and
    bfs_renumber in turn, on a machine reachable from its initial state
    0, as ``canonical`` returns them.  `states` names the input state of
    each position (None: the position itself)."""
    if relation:
        cut = _cut_dead(rows, succ, labels, states)
        if cut is None:
            return (np.zeros(2, np.int64), np.empty(0, np.int32),
                    np.empty(0, np.int32), np.zeros(1, np.uint8), np.zeros(1, np.int32))
        rows, succ, labels, states = cut
    block = min_blocks(rows, succ, labels)
    indptr, letters, targets, kept = bfs_renumber(rows, succ, block, quotient(block))
    if states is not None:
        kept = [states[s] for s in kept]
    return (np.array(indptr, np.int64), np.array(letters, np.int32),
            np.array(targets, np.int32), acc[kept], np.array(kept, np.int32))


def canonical_rows(rows, succ, acc):
    """``canonical`` of a relation that ``pair_product``, ``determinize``
    or the linear atoms' walk returned as rows: BFS numbered from state
    0, every state reachable, each row letter sorted, so no trim is
    needed.  It takes the lists over: the co-reach cut renumbers target
    rows in place."""
    return _tail(rows, succ, acc.tolist(), True, acc)


def canonical(indptr, letters, targets, acc, initial, labels=None):
    """What trim, the co-reach cut, min_blocks, quotient and bfs_renumber
    give in turn, as arrays, and an input state of each output state.
    With `labels` None the machine is a relation: states that reach no
    accepting state are cut (a dead initial state gives the one-state
    empty machine) and the rest refined by acceptance.  Otherwise it is a
    word automaton: nothing is cut but the unreachable states, and states
    are refined by `labels`."""
    states, rows, succ = trim(indptr.tolist(), letters.tolist(), targets.tolist(),
                              initial)
    relation = labels is None
    label = (acc if relation else labels).tolist()
    return _tail(rows, succ, [label[s] for s in states], relation, acc, states)

# ---------------------------------------------------------------------------
# subset construction (also handles projection via letter_map and the
# leading-zero closure that keeps projected languages padding closed)
# ---------------------------------------------------------------------------

def determinize(indptr, letters, targets, acc, init_states, letter_map, zero_close):
    """Subset construction as rows, (indptr, rows, succ, acc), numbered
    and ordered as ``pair_product`` gives them: subsets in BFS discovery
    order from the start set, state 0, every state reachable, each row
    letter sorted."""
    ip, lt, tg = indptr.tolist(), letters.tolist(), targets.tolist()
    lmap = letter_map.tolist()
    root = set(init_states.tolist())
    stack = list(root) if zero_close else []
    while stack:
        s = stack.pop()
        for e in range(ip[s], ip[s + 1]):
            if lmap[lt[e]] == 0 and tg[e] not in root:
                root.add(tg[e])
                stack.append(tg[e])
    accepting = acc.tolist()
    start = tuple(sorted(root))
    index = {start: 0}
    sets = [start]
    rows, succ, shared = [], [], {}
    out_acc = array("B", [any(accepting[s] for s in start)])
    for members in sets:
        moves: dict = {}
        for s in members:
            for e in range(ip[s], ip[s + 1]):
                moves.setdefault(lmap[lt[e]], set()).add(tg[e])
        row = tuple(sorted(moves))
        row = shared.setdefault(row, row)  # states with equal rows share one
        out = [0] * len(row)  # at its final size
        for i, letter in enumerate(row):
            key = tuple(sorted(moves[letter]))
            sid = out[i] = index.setdefault(key, len(sets))
            if sid == len(sets):
                sets.append(key)
                out_acc.append(any(accepting[s] for s in key))
        rows.append(row)
        succ.append(out)
    return _offsets(rows), rows, succ, np.frombuffer(out_acc, np.uint8)


def walk(delta, nletters, state, word):
    """State reached from `state` on the letter codes of `word`.

    delta is a dense successor table, delta[s * nletters + code], in which
    a missing edge leads to the sink, the last state, whose row points back
    to itself.  A code outside 0..nletters-1 labels no edge, so a word that
    holds one also ends in the sink."""
    if word and (min(word) < 0 or max(word) >= nletters):
        return len(delta) // nletters - 1
    for code in word:
        state = delta[state * nletters + code]
    return state
