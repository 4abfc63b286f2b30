"""Kernels for the automaton algebra.

Rows contract.  A machine with n states is a list of n letter rows and n
target rows: rows[s] is the tuple of state s's letters in strictly
increasing order, succ[s] the list of their targets, and the accepting
flags are a list of n ints 0 or 1.  Missing transitions go to an implicit
dead sink.  States with equal rows share one tuple, so a row costs its
letters once however many states read it.  Kernels never write into
their inputs, except that ``canonical`` takes over the lists it is
given.

``pair_product`` and ``determinize`` return their states numbered in
BFS discovery order from state 0, so every state is reachable, as the
linear atoms' walk (``relations._linear_piece``) does too.  Each returns
(indptr, rows, succ, acc), with indptr (int64, n + 1) the row offsets,
which a tracer reads as the count of states built; numpy is used for
nothing else.

Canonical form is one tail, ``canonical``: the co-reach cut (relations
only: the states that reach no accepting state go, with the edges into
them), ``min_blocks``, ``quotient`` and ``bfs_renumber``, each a loop
with ``dict`` interning.  It takes a machine whose every state is
reachable from state 0 and runs no forward pass; a machine numbered any
other way (``Automaton.from_transitions``, ``permute_tracks``) goes
through ``trim`` first.  A small machine needs many BFS levels and Moore
rounds for few edges, and a numpy call costs microseconds however little
it does, so on the machines the benchmark's scripts canonicalise (at
most about 8 000 edges) the lists win by far.  On much larger machines
(s11's 24 407-state subset construction) a whole-array chain was about
three times faster, but no benchmark workload reached it, so it was not
worth a second implementation.

``pair_product`` is a loop over pairs in BFS order that builds a side's
row, letter -> target, the first time a pair reaches that state, so a
large input costs only its reached rows.  ``determinize`` is a list loop
too and has one caller, ``automata.determinized``, through which every
subset construction goes; ``walk`` reads one word through a dense
successor table (see ``Automaton.successors``).

Memory.  The product's working set is its pair index and the rows of
the states its pairs reach, so it grows with the reached part of each
input, not with the whole input.  The co-reach cut keeps one set of the
states known to reach acceptance, and predecessor lists only for the
states two sweeps leave open, not a predecessor list per state; it
renumbers the kept target rows in place.
"""
from __future__ import annotations

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

def pair_product(rows_a, succ_a, acc_a, init_a, rows_b, succ_b, acc_b, init_b,
                 mode):
    """Reachable part of the product as rows: (indptr, rows, succ, acc).

    States are pairs numbered in BFS discovery order from the initial
    pair, state 0, under the rows contract (module docstring); indptr
    (int64, n + 1) gives the row offsets, which the benchmark's tracer
    reads.  A side that has fallen into the dead sink is -1 in the pair;
    modes 0 and 3 drop pairs whose left side is dead, mode 0 also the
    right side.
    """
    width = len(succ_b) + 1  # pair key: (a + 1) * width + b + 1
    # each target as its part of the pair key
    part_a = range(width, (len(succ_a) + 1) * width, width)
    part_b = range(1, width)
    # a side's row maps a letter to its target's part of the pair key; rows
    # are built on first use, and row 0 is the dead side -1's, empty
    dict_a, dict_b = [None] * (len(succ_a) + 1), [None] * width
    dict_a[0] = dict_b[0] = {}
    start = (init_a + 1) * width + init_b + 1
    index, pairs, n = {start: 0}, [start], 1
    rows, succ, acc, shared = [], [], [], {}
    for key in pairs:  # the loop visits pairs appended while it runs
        a, b = divmod(key, width)
        ra = dict_a[a]
        if ra is None:
            ra = dict_a[a] = dict(zip(rows_a[a - 1], map(part_a.__getitem__, succ_a[a - 1])))
        rb = dict_b[b]
        if rb is None:
            rb = dict_b[b] = dict(zip(rows_b[b - 1], map(part_b.__getitem__, succ_b[b - 1])))
        fa = acc_a[a - 1] if a else 0
        fb = acc_b[b - 1] if b else 0
        if mode == 0:  # the shorter row's letters that the other row has
            short, other = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
            row = tuple([c for c in short if c in other])
            acc.append(fa & fb)
        elif mode == 3:
            row = tuple(ra)
            acc.append(fa & ~fb)
        else:
            row = tuple(sorted(ra.keys() | rb.keys()))
            acc.append(fa | fb if mode == 1 else fa ^ fb)
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
    return _offsets(rows), rows, succ, acc


# ---------------------------------------------------------------------------
# canonical form: trim (for machines not numbered from a reachable state
# 0), the co-reach cut, Moore minimization, quotient and BFS numbering,
# over Python lists.  trim, min_blocks, quotient and bfs_renumber are
# module-level functions, called through the module's globals, so that
# each can be timed on its own.
# ---------------------------------------------------------------------------

def trim(rows, succ, initial):
    """The part of a machine reachable from `initial`: its states in
    discovery order (`initial` first), and the row and target row of
    each, targets as positions in that order."""
    at = [-1] * len(succ)  # input state -> position in `states`
    at[initial] = 0
    states = [initial]
    for s in states:  # the loop visits states appended while it runs
        for t in succ[s]:
            if at[t] < 0:
                at[t] = len(states)
                states.append(t)
    remap = at.__getitem__
    return (states, [rows[s] for s in states],
            [list(map(remap, succ[s])) for s in states])


def _cut_dead(rows, succ, accepting):
    """The states of a relation reachable from state 0 that also reach
    an accepting state, in order, as (rows, succ, accepting, kept) with
    edges into the other states dropped and `kept` the input state of
    each (None when every state is kept); None when state 0 reaches no
    accepting state.  The kept target rows are renumbered in place."""
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
        return rows, succ, accepting, None
    kept = sorted(live)
    at = [-1] * len(succ)  # position -> position among the kept, -1 when cut
    for i, s in enumerate(kept):
        at[s] = i
    remap = at.__getitem__
    rows, succ = list(map(rows.__getitem__, kept)), list(map(succ.__getitem__, kept))
    for i, out in enumerate(succ):
        out[:] = map(remap, out)  # in place: the lists are handed over
        if -1 in out:  # edges into cut states go too
            rows[i] = tuple([c for c, t in zip(rows[i], out) if t >= 0])
            succ[i] = [t for t in out if t >= 0]
    return rows, succ, list(map(accepting.__getitem__, kept)), kept


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
    """Rows and target rows of the machine on blocks, the blocks numbered
    in BFS discovery order from state 0's, and the state `rep` gives for
    each output state.  Each block reads the row of its state in `rep`,
    its targets through `block`.  Rows are letter sorted, so the
    numbering is canonical for isomorphic machines.  Unreachable blocks
    are dropped."""
    pos = [-1] * len(rep)
    pos[block[0]] = 0
    order = [block[0]]
    out_rows, out_succ = [], []
    for b in order:  # the loop visits blocks appended while it runs
        s = rep[b]
        out = []
        for t in succ[s]:
            t = block[t]
            if pos[t] < 0:
                pos[t] = len(order)
                order.append(t)
            out.append(pos[t])
        out_rows.append(rows[s])
        out_succ.append(out)
    return out_rows, out_succ, [rep[b] for b in order]


def canonical(rows, succ, acc, labels=None):
    """What the co-reach cut, min_blocks, quotient and bfs_renumber give
    in turn, as (rows, succ, acc, states), `states` an input state of each
    output state, on a machine whose every state is reachable from state
    0, each row letter sorted.  With `labels` None the machine is a
    relation: states that reach no accepting state are cut (a dead
    initial state gives the one-state empty machine) and the rest refined
    by acceptance.  Otherwise it is a word automaton: nothing is cut, and
    states are refined by `labels`.  It takes the lists over: the
    co-reach cut renumbers target rows in place."""
    cut = None
    if labels is None:
        found = _cut_dead(rows, succ, acc)
        if found is None:
            return [()], [[]], [0], [0]
        rows, succ, acc, cut = found
        labels = acc
    block = min_blocks(rows, succ, labels)
    rows, succ, kept = bfs_renumber(rows, succ, block, quotient(block))
    acc = list(map(acc.__getitem__, kept))
    return rows, succ, acc, kept if cut is None else list(map(cut.__getitem__, kept))

# ---------------------------------------------------------------------------
# subset construction (also handles projection via letter_map and the
# leading-zero closure that keeps projected languages padding closed)
# ---------------------------------------------------------------------------

def determinize(rows, succ, acc, init_states, letter_map):
    """Subset construction as rows, (indptr, rows, succ, acc), numbered
    and ordered as ``pair_product`` gives them.  The input may have any
    number of edges per (state, letter), in any order; its letters are
    read through `letter_map`, and the start set, `init_states`, is
    closed under the edges whose mapped letter is 0, so leading zeros can
    be dropped."""
    root = set(init_states)
    stack = list(root)
    while stack:
        s = stack.pop()
        for c, t in zip(rows[s], succ[s]):
            if letter_map[c] == 0 and t not in root:
                root.add(t)
                stack.append(t)
    start = tuple(sorted(root))
    index = {start: 0}
    sets = [start]
    out_rows, out_succ, shared = [], [], {}
    out_acc = [int(any(acc[s] for s in start))]
    for members in sets:
        moves: dict = {}
        for s in members:
            for c, t in zip(rows[s], succ[s]):
                moves.setdefault(letter_map[c], set()).add(t)
        row = tuple(sorted(moves))
        row = shared.setdefault(row, row)  # states with equal rows share one
        out = [0] * len(row)  # at its final size
        for i, letter in enumerate(row):
            key = tuple(sorted(moves[letter]))
            sid = out[i] = index.setdefault(key, len(sets))
            if sid == len(sets):
                sets.append(key)
                out_acc.append(int(any(acc[s] for s in key)))
        out_rows.append(row)
        out_succ.append(out)
    return _offsets(out_rows), out_rows, out_succ, out_acc


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
