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

``pair_product`` has two paths: below SMALL_EDGES input edges a loop of
the same kind, from there on whole-array numpy passes over one BFS level
at a time.  The product's output is several times its input, so the
loop loses early, and both sides carry benchmark load: on the products
of at least 4 096 input edges that compile-small's s10 and the head of
compile-large's s6 make, the array path took 11 ms per pass against the
loop's 24-27 ms, and 9-10 ms against 13-17 ms.  Both paths return
identical arrays.  ``determinize`` has only a list path and one caller,
``automata.determinized``, through which every subset construction goes;
``walk`` reads one word through a dense successor table (see
``Automaton.successors``).

Memory.  Arrays kept per edge are int32; int64 appears only where numpy
needs it (edge positions for gathers, pair keys).  The product's
frontier runs over slices of at most SLICE_EDGES edges, so temporaries
stay bounded however wide a BFS level is.  Outputs that can outgrow
their input (product, subset construction) are collected in ``array``
buffers rather than lists of Python ints.
"""
from __future__ import annotations

from array import array
from operator import itemgetter

import numpy as np

HAVE_NUMBA = False  # the kernels are numpy and plain Python only

SMALL_EDGES = 4096  # pair_product's list loop below this many input edges
SLICE_EDGES = 1 << 14


def _slices(widths):
    """(lo, hi) bounds that cut `widths` into runs whose sum is at most
    SLICE_EDGES; a single wider item is a run of its own."""
    ends = np.cumsum(widths)
    lo = 0
    while lo < widths.size:
        limit = ends[lo] - widths[lo] + SLICE_EDGES
        hi = max(lo + 1, int(np.searchsorted(ends, limit, "right")))
        yield lo, hi
        lo = hi


def _rows(indptr, states):
    """Edge positions of the given states' rows, concatenated in order."""
    starts = indptr[states]
    counts = indptr[states + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


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
    acc_a, acc_b = np.append(aa, 0) != 0, np.append(ab, 0) != 0  # -1 reads False

    def accepting(pa, pb):
        fa, fb = acc_a[pa], acc_b[pb]
        return (fa & fb, fa | fb, fa != fb, fa & ~fb)[mode].astype(np.uint8)

    product = _product_list if la.size + lb.size < SMALL_EDGES else _product_array
    return product(ia, la, ta, ib, lb, tb, (int(inita), int(initb)), mode,
                   accepting)


def _product_list(ia, la, ta, ib, lb, tb, start, mode, accepting):
    def row_maps(indptr, letters, targets):
        ip, lt, tg = indptr.tolist(), letters.tolist(), targets.tolist()
        # one trailing empty row, so that the dead side -1 indexes it
        return [dict(zip(lt[ip[s]:ip[s + 1]], tg[ip[s]:ip[s + 1]]))
                for s in range(len(ip) - 1)] + [{}]

    rows_a, rows_b = row_maps(ia, la, ta), row_maps(ib, lb, tb)
    width = ib.size + 1  # pair key: (a + 1) * width + (b + 1)
    index = {(start[0] + 1) * width + start[1] + 1: 0}
    # the output can be far larger than the input: keep it in machine ints
    pa, pb = array("q", [start[0]]), array("q", [start[1]])
    out_letters, out_targets, counts = array("i"), array("i"), array("q")
    k = 0
    while k < len(pa):
        ra, rb = rows_a[pa[k]], rows_b[pb[k]]
        k += 1
        before = len(out_letters)
        for letter in (ra if mode in (0, 3) else sorted(ra.keys() | rb.keys())):
            a, b = ra.get(letter, -1), rb.get(letter, -1)
            if mode == 0 and b < 0:
                continue
            pid = index.setdefault((a + 1) * width + b + 1, len(pa))
            if pid == len(pa):
                pa.append(a)
                pb.append(b)
            out_letters.append(letter)
            out_targets.append(pid)
        counts.append(len(out_letters) - before)
    return (_csr(np.frombuffer(counts, np.int64)), np.frombuffer(out_letters, np.int32),
            np.frombuffer(out_targets, np.int32),
            accepting(np.frombuffer(pa, np.int64), np.frombuffer(pb, np.int64)))


def _extend(buf, values):
    """Append a contiguous numpy array to an ``array`` of the same item type."""
    buf.frombytes(values.view(np.uint8))


def _lookup(keys, targets, query):
    """targets[i] where keys[i] == query, else -1 (keys sorted ascending)."""
    if keys.size == 0:
        return np.full(query.size, -1, np.int32)
    at = np.searchsorted(keys, query)
    np.minimum(at, keys.size - 1, out=at)
    found = targets[at]
    found[keys[at] != query] = -1
    return found


def _product_array(ia, la, ta, ib, lb, tb, start, mode, accepting):
    nb = ib.size - 1
    width = nb + 2  # pair key: (a + 1) * width + (b + 1)
    nl = int(max(la.max(initial=-1), lb.max(initial=-1))) + 1
    deg_a = np.append(np.diff(ia), 0)  # the dead side -1 has no edges
    deg_b = np.append(np.diff(ib), 0)
    # (state, letter) keys of every edge, ascending because rows are sorted
    key_a = np.repeat(np.arange(ia.size - 1, dtype=np.int64), deg_a[:-1]) * nl + la
    key_b = np.repeat(np.arange(nb, dtype=np.int64), deg_b[:-1]) * nl + lb

    # interned pairs: sorted runs of (keys, ids), each run more than twice
    # the size of the next, so a lookup searches O(log pairs) runs and a
    # pair is merged O(log pairs) times
    runs = [(np.array([(start[0] + 1) * width + start[1] + 1], np.int64),
             np.zeros(1, np.int32))]
    npairs = 1
    frontier = np.array([start], np.int64)
    # outputs grow in place, not as slices joined at the end
    out_letters, out_targets, counts, acc = array("i"), array("i"), array("q"), array("B")
    while frontier.size:
        fa, fb = frontier[:, 0], frontier[:, 1]
        _extend(acc, accepting(fa, fb))
        found = []
        for lo, hi in _slices(deg_a[fa] if mode in (0, 3) else deg_a[fa] + deg_b[fb]):
            a, b = fa[lo:hi], fb[lo:hi]
            live = np.flatnonzero(a >= 0)
            cnt = deg_a[a[live]]
            index = _rows(ia, a[live])
            pos = np.repeat(live.astype(np.int32), cnt)
            letter = la[index]
            succ_a = ta[index]
            # (state, letter) keys; a dead side -1 makes them negative,
            # so they find nothing
            query = np.repeat(b[live], cnt)
            query *= nl
            query += letter
            succ_b = _lookup(key_b, tb, query)
            if mode == 0:
                keep = succ_b >= 0
                pos, letter, succ_a, succ_b = pos[keep], letter[keep], succ_a[keep], succ_b[keep]
            elif mode in (1, 2):
                # letters only the right side reads
                live = np.flatnonzero(b >= 0)
                cnt = deg_b[b[live]]
                index = _rows(ib, b[live])
                letter_b = lb[index]
                query = np.repeat(a[live], cnt)
                query *= nl
                query += letter_b
                miss = _lookup(key_a, ta, query) < 0
                pos = np.concatenate((pos, np.repeat(live.astype(np.int32), cnt)[miss]))
                letter = np.concatenate((letter, letter_b[miss]))
                succ_a = np.concatenate((succ_a, np.full(int(miss.sum()), -1, np.int32)))
                succ_b = np.concatenate((succ_b, tb[index][miss]))
                order = np.argsort(pos.astype(np.int64) * nl + letter)
                pos, letter, succ_a, succ_b = pos[order], letter[order], succ_a[order], succ_b[order]
            keys = succ_a.astype(np.int64)
            keys += 1
            keys *= width
            keys += succ_b
            keys += 1
            uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            ids = np.full(uniq.size, -1, np.int32)
            for run_keys, run_ids in runs:  # a key is in one run at most
                np.maximum(ids, _lookup(run_keys, run_ids, uniq), out=ids)
            fresh = np.flatnonzero(ids < 0)
            born = fresh[np.argsort(first[fresh])]  # number in discovery order
            ids[born] = npairs + np.arange(born.size, dtype=np.int32)
            npairs += born.size
            if fresh.size:
                runs.append((uniq[fresh], ids[fresh]))  # uniq is sorted
                while len(runs) > 1 and runs[-2][0].size <= 2 * runs[-1][0].size:
                    (keys_hi, ids_hi), (keys_lo, ids_lo) = runs.pop(), runs.pop()
                    merged = np.concatenate((keys_lo, keys_hi))
                    order = np.argsort(merged, kind="stable")
                    runs.append((merged[order], np.concatenate((ids_lo, ids_hi))[order]))
            new_keys = uniq[born]
            found.append(np.stack((new_keys // width - 1, new_keys % width - 1), axis=1))
            _extend(out_letters, letter)
            _extend(out_targets, ids[inverse.reshape(-1)])
            _extend(counts, np.bincount(pos, minlength=hi - lo))
        frontier = np.concatenate(found)
    return (_csr(np.frombuffer(counts, np.int64)), np.frombuffer(out_letters, np.int32),
            np.frombuffer(out_targets, np.int32), np.frombuffer(acc, np.uint8))


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
    preds = [[] for _ in range(n)]
    states = [initial]
    for s in states:  # the loop visits states appended while it runs
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
