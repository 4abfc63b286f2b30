"""Kernels for the automaton algebra.

CSR contract.  An automaton with n states and m transitions is stored as
indptr (int64, n+1), letters (int32, m) and targets (int32, m), sorted by
(state, letter) with at most one transition per (state, letter); an
accepting mask (uint8, n) and a single initial state.  Missing transitions
go to an implicit dead sink.  Kernels never write into their inputs and
may return a read-only array, so callers must not write into automaton
arrays.

Canonical form has one path.  ``canonical`` converts the arrays to lists
once and calls ``trim``, ``min_blocks``, ``quotient`` and
``bfs_renumber`` in turn, each a loop over lists with ``dict``
interning, then builds the output arrays once.  A small machine needs
many BFS levels and Moore rounds for few edges, and a numpy call costs
microseconds however little it does, so on the machines the benchmark's
scripts canonicalise (at most about 8 000 edges) the lists win by far.
On much larger machines (s11's 24 407-state subset construction) a
whole-array chain was about three times faster, but no benchmark
workload reached it, so it was not worth a second implementation.

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
needs it.  Outputs that can outgrow their input (product, subset
construction) are collected in ``array`` buffers rather than lists of
Python ints.  The product's working set is its pair index and the rows
of the states its pairs reach, so it grows with the reached part of
each input, not with the whole input.
"""
from __future__ import annotations

from array import array
from operator import itemgetter

import numpy as np

HAVE_NUMBA = False  # the kernels are numpy and plain Python only


def _csr(counts):
    indptr = np.zeros(counts.size + 1, np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


# ---------------------------------------------------------------------------
# pairwise product  (mode: 0 and, 1 or, 2 xor, 3 andnot)
# ---------------------------------------------------------------------------

def pair_product(ia, la, ta, aa, inita, ib, lb, tb, ab, initb, mode):
    """Reachable part of the product, pairs numbered in BFS order.

    A side that has fallen into the dead sink is -1 in the pair; modes 0
    and 3 drop pairs whose left side is dead, mode 0 also the right side.
    """
    ip_a, lt_a, tg_a = ia.tolist(), la.tolist(), ta.tolist()
    ip_b, lt_b, tg_b = ib.tolist(), lb.tolist(), tb.tolist()
    # rows are built on first use; the trailing empty row is the dead side -1's
    rows_a, rows_b = [None] * len(ip_a), [None] * len(ip_b)
    rows_a[-1] = rows_b[-1] = {}
    width = len(ip_b)  # pair key: (a + 1) * width + (b + 1)
    pa, pb = array("q", [int(inita)]), array("q", [int(initb)])
    index = {(pa[0] + 1) * width + pb[0] + 1: 0}
    # the output can be far larger than the input: keep it in machine ints
    out_letters, out_targets, counts = array("i"), array("i"), array("q")
    for a, b in zip(pa, pb):  # the loop visits pairs appended while it runs
        ra = rows_a[a]
        if ra is None:
            lo, hi = ip_a[a], ip_a[a + 1]
            ra = rows_a[a] = dict(zip(lt_a[lo:hi], tg_a[lo:hi]))
        rb = rows_b[b]
        if rb is None:
            lo, hi = ip_b[b], ip_b[b + 1]
            rb = rows_b[b] = dict(zip(lt_b[lo:hi], tg_b[lo:hi]))
        if mode == 0:  # walk the shorter row, in letter order
            if len(rb) < len(ra):
                moves = [(c, ra[c], t) for c, t in rb.items() if c in ra]
            else:
                moves = [(c, t, rb[c]) for c, t in ra.items() if c in rb]
        elif mode == 3:
            moves = [(c, t, rb.get(c, -1)) for c, t in ra.items()]
        else:
            moves = [(c, ra.get(c, -1), rb.get(c, -1))
                     for c in sorted(ra.keys() | rb.keys())]
        for letter, next_a, next_b in moves:
            pid = index.setdefault((next_a + 1) * width + next_b + 1, len(pa))
            if pid == len(pa):
                pa.append(next_a)
                pb.append(next_b)
            out_letters.append(letter)
            out_targets.append(pid)
        counts.append(len(moves))
    acc_a, acc_b = np.append(aa, 0) != 0, np.append(ab, 0) != 0  # -1 reads False
    fa, fb = acc_a[np.frombuffer(pa, np.int64)], acc_b[np.frombuffer(pb, np.int64)]
    return (_csr(np.frombuffer(counts, np.int64)), np.frombuffer(out_letters, np.int32),
            np.frombuffer(out_targets, np.int32),
            (fa & fb, fa | fb, fa != fb, fa & ~fb)[mode].astype(np.uint8))


# ---------------------------------------------------------------------------
# canonical form: trim, Moore minimization, quotient and BFS numbering,
# over Python lists.  The four steps are module-level functions, called
# through the module's globals, so that each can be timed on its own.
# ---------------------------------------------------------------------------

def trim(ip, lt, tg, initial, accepting=None):
    """The part of a machine, given as CSR lists, reachable from `initial`:
    its states in discovery order (`initial` first), and the letter row
    and target row of each, targets as positions in that order.  With
    `accepting` (a flag per state), only the states that also reach an
    accepting state are kept, and none when `initial` reaches none."""
    n = len(ip) - 1
    seen = [False] * n
    seen[initial] = True
    states = [initial]
    # the loops visit states appended while they run; only the co-reach
    # pass reads the predecessor lists, so a word automaton builds none
    if accepting is None:
        for s in states:
            for t in tg[ip[s]:ip[s + 1]]:
                if not seen[t]:
                    seen[t] = True
                    states.append(t)
    else:
        preds = [[] for _ in range(n)]
        for s in states:
            for t in tg[ip[s]:ip[s + 1]]:
                preds[t].append(s)
                if not seen[t]:
                    seen[t] = True
                    states.append(t)
    at = [-1] * n  # input state -> position in `states`, -1 when cut
    if accepting is not None:
        stack = [s for s in states if accepting[s]]
        for s in stack:
            at[s] = 0
        while stack:
            for p in preds[stack.pop()]:
                if at[p] < 0:
                    at[p] = 0
                    stack.append(p)
        if at[initial] < 0:
            return [], [], []
        states = [s for s in states if at[s] == 0]
    for i, s in enumerate(states):
        at[s] = i
    tg = [at[t] for t in tg]  # targets as positions, -1 when cut
    rows, succ = [], []
    for s in states:
        lo, hi = ip[s], ip[s + 1]
        row, out = lt[lo:hi], tg[lo:hi]
        if -1 in out:  # edges into cut states go too
            row = [c for c, t in zip(row, out) if t >= 0]
            out = [t for t in out if t >= 0]
        rows.append(row)
        succ.append(out)
    return states, rows, succ


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


def quotient(rows, succ, block):
    """The machine on blocks: the rows and target rows of one state per
    block, targets mapped to their blocks, and that state of each block.
    Equivalent states have equal rows up to blocks, so any one will do."""
    rep = [0] * (max(block) + 1)
    for i, b in enumerate(block):
        rep[b] = i
    return [rows[s] for s in rep], [[block[t] for t in succ[s]] for s in rep], rep


def bfs_renumber(rows, succ, initial):
    """CSR lists of the machine with its states numbered in BFS discovery
    order from `initial`, and the old state of each new one.  Rows are
    letter sorted, so the numbering is canonical for isomorphic machines.
    Unreachable states are dropped."""
    pos = [-1] * len(rows)
    pos[initial] = 0
    order = [initial]
    indptr, letters, targets = [0], [], []
    for s in order:  # the loop visits states appended while it runs
        for t in succ[s]:
            if pos[t] < 0:
                pos[t] = len(order)
                order.append(t)
            targets.append(pos[t])
        letters += rows[s]
        indptr.append(len(targets))
    return indptr, letters, targets, order


def canonical(indptr, letters, targets, acc, initial, labels=None):
    """What trim, min_blocks, quotient and bfs_renumber give in turn, as
    arrays, and an input state of each output state.  With `labels` None
    the machine is a relation: it is trimmed (a dead initial state gives
    the one-state empty machine) and refined by acceptance.  Otherwise it
    is a word automaton: not trimmed, and refined by `labels`.
    Unreachable states take no part: trim drops them in either case."""
    accepting = acc.tolist()
    relation = labels is None
    states, rows, succ = trim(indptr.tolist(), letters.tolist(), targets.tolist(),
                              initial, accepting if relation else None)
    if not states:
        return (np.zeros(2, np.int64), np.empty(0, np.int32),
                np.empty(0, np.int32), np.zeros(1, np.uint8), np.zeros(1, np.int32))
    label = accepting if relation else labels.tolist()
    block = min_blocks(rows, succ, [label[s] for s in states])
    rows, succ, rep = quotient(rows, succ, block)
    indptr, letters, targets, order = bfs_renumber(rows, succ, block[0])
    kept = [states[rep[b]] for b in order]
    return (np.array(indptr, np.int64), np.array(letters, np.int32),
            np.array(targets, np.int32), acc[kept], np.array(kept, np.int32))

# ---------------------------------------------------------------------------
# subset construction (also handles projection via letter_map and the
# leading-zero closure that keeps projected languages padding closed)
# ---------------------------------------------------------------------------

def determinize(indptr, letters, targets, acc, init_states, letter_map, zero_close):
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
    out_letters, out_targets, counts = array("i"), array("i"), array("q")
    out_acc = array("B", [any(accepting[s] for s in start)])
    for members in sets:
        succ: dict = {}
        for s in members:
            for e in range(ip[s], ip[s + 1]):
                succ.setdefault(lmap[lt[e]], set()).add(tg[e])
        for letter in sorted(succ):
            key = tuple(sorted(succ[letter]))
            sid = index.setdefault(key, len(sets))
            if sid == len(sets):
                sets.append(key)
                out_acc.append(any(accepting[s] for s in key))
            out_letters.append(letter)
            out_targets.append(sid)
        counts.append(len(succ))
    return (_csr(np.frombuffer(counts, np.int64)), np.frombuffer(out_letters, np.int32),
            np.frombuffer(out_targets, np.int32), np.frombuffer(out_acc, np.uint8))


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
