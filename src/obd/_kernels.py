"""Array kernels for the automaton algebra.

CSR contract.  An automaton with n states and m transitions is stored as
indptr (int64, n+1), letters (int32, m) and targets (int32, m), sorted by
(state, letter) with at most one transition per (state, letter); an
accepting mask (uint8, n) and a single initial state.  Missing transitions
go to an implicit dead sink.  Kernels never write into their inputs and
may return an input array unchanged (``trim`` does when it cuts nothing)
or a read-only one, so callers must not write into automaton arrays.

Two paths.  Below CANONICAL_EDGES input edges, ``canonical`` does trim,
Moore refinement, quotient and BFS renumbering in one pass over
``.tolist()`` lists with ``dict`` interning, and below SMALL_EDGES
``pair_product`` runs a loop of the same kind; from those sizes on,
``trim``, ``min_blocks``, ``quotient``, ``bfs_renumber`` and
``pair_product`` run whole-array numpy passes: frontier searches one BFS
level at a time, and Moore rounds as one sort of the rows [block,
letter-row id, block of each target] per out-degree group.  A numpy call
costs microseconds however little it does, and a small machine needs many
BFS levels and Moore rounds for few edges, so there the loops win; on
large machines their per-edge interpreter cost loses by far.  On the
machines the packaged scripts and the linear atoms canonicalise, the list
pass wins up to about 12 500 edges (3.4 against 13.2 ms at 4 899 edges,
5.4 against 9.6 ms at 9 372) and loses from about 27 000 (0.30 against
0.11 s on s11's 24 407-state subset construction); pair_product's loop,
whose output is several times its input, loses from 1 024 to 2 048 edges
on.  Each constant sits below its own crossover.  The two paths return
identical arrays.  ``bfs_renumber`` runs only in that array chain.
``determinize`` (at most 910 input edges on compile-small and 2 024 on
compile-large) has only a list path and one caller,
``automata.determinized``, through which every subset construction goes;
``walk`` reads one word through a dense successor table (see
``Automaton.successors``).

Memory.  Arrays kept per edge are int32; int64 appears only where numpy
needs it (edge positions for gathers, pair keys).  Every per-edge gather
and the product's frontier run over slices of at most SLICE_EDGES edges,
so temporaries stay bounded however wide a BFS level is.  Value-only
``np.unique`` is avoided: it builds a hash set whose many small
allocations are left behind in the process heap.  Outputs that can
outgrow their input (product, subset construction) are collected in
``array`` buffers rather than lists of Python ints.
"""
from __future__ import annotations

from array import array
from operator import itemgetter

import numpy as np

HAVE_NUMBA = False  # the kernels are numpy and plain Python only

SMALL_EDGES = 4096  # pair_product's list loop below this many input edges
CANONICAL_EDGES = 12288  # canonical's list pass below this many edges
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


def _gather(indptr, letters, targets, states, relabel=None):
    """CSR of the rows of `states`, in that order, targets mapped through
    `relabel`; built a slice at a time."""
    counts = indptr[states + 1] - indptr[states]
    out_indptr = _csr(counts)
    out_letters = np.empty(int(out_indptr[-1]), np.int32)
    out_targets = np.empty(int(out_indptr[-1]), np.int32)
    for lo, hi in _slices(counts):
        index = _rows(indptr, states[lo:hi])
        at = slice(out_indptr[lo], out_indptr[hi])
        out_letters[at] = letters[index]
        out_targets[at] = targets[index] if relabel is None else relabel[targets[index]]
    return out_indptr, out_letters, out_targets


def _successors(indptr, targets, states):
    """Targets of the rows of `states`, in order, a slice at a time."""
    counts = indptr[states + 1] - indptr[states]
    for lo, hi in _slices(counts):
        yield targets[_rows(indptr, states[lo:hi])]


def _distinct(values):
    """Sorted distinct values.  (np.unique would build a hash set here,
    whose many small allocations stay behind in the process heap.)"""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])] if values.size else values


def _reach(indptr, targets, seen):
    """Close the boolean mask `seen` under successors, a level at a time."""
    frontier = np.flatnonzero(seen)
    while frontier.size:
        found = []
        for succ in _successors(indptr, targets, frontier):
            succ = _distinct(succ[~seen[succ]])
            seen[succ] = True
            found.append(succ)
        frontier = np.concatenate(found)
    return seen


def _reverse(indptr, targets):
    """Reversed edges as CSR: sources grouped by target, in source order.
    A counting sort, one slice of edges at a time."""
    n = indptr.size - 1
    deg = np.diff(indptr)
    rev_indptr = _csr(np.bincount(targets, minlength=n))
    sources = np.empty(targets.size, np.int32)
    fill = rev_indptr[:-1].copy()  # next free slot of each target
    for lo, hi in _slices(deg):
        succ = targets[indptr[lo]:indptr[hi]]
        if succ.size == 0:
            continue
        order = np.argsort(succ, kind="stable")
        succ = succ[order]
        rank = np.arange(succ.size) - np.searchsorted(succ, succ)
        sources[fill[succ] + rank] = np.repeat(
            np.arange(lo, hi, dtype=np.int32), deg[lo:hi])[order]
        last = np.flatnonzero(np.append(succ[1:] != succ[:-1], True))
        fill[succ[last]] += rank[last] + 1
    return rev_indptr, sources


def _row_counts(indptr, flags):
    """Per-row count of the set per-edge flags; rows may be empty."""
    deg = np.diff(indptr)
    counts = np.zeros(deg.size, np.int64)
    rows = deg > 0
    if flags.size:
        counts[rows] = np.add.reduceat(flags, indptr[:-1][rows], dtype=np.int64)
    return counts


def _first_occurrence(values):
    """Dense ids numbered by first occurrence; values may be any ints."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(first.size, np.int32)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int32)
    return rank[inverse.reshape(-1)]


def _row_ids(table):
    """Ids of the distinct rows of a 2-d int32 table (any numbering)."""
    if table.shape[1] == 0:
        return np.zeros(table.shape[0], np.int32)
    rows = np.ascontiguousarray(table).view(
        np.dtype((np.void, table.dtype.itemsize * table.shape[1]))).reshape(-1)
    order = np.argsort(rows)
    rows = rows[order]
    fresh = np.empty(rows.size, bool)
    fresh[:1] = True
    fresh[1:] = rows[1:] != rows[:-1]
    ids = np.empty(rows.size, np.int32)
    ids[order] = np.cumsum(fresh) - 1
    return ids


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
# trim: keep states reachable from the initial state and co-reachable
# from an accepting state
# ---------------------------------------------------------------------------

def trim(indptr, letters, targets, acc, initial):
    initial = int(initial)
    seen = np.zeros(acc.size, bool)
    seen[initial] = True
    seen = _reach(indptr, targets, seen)
    rev_indptr, sources = _reverse(indptr, targets)
    keep = _reach(rev_indptr, sources, seen & (acc != 0)) & seen
    if keep.all():
        return indptr, letters, targets, acc, initial, True
    if not keep[initial]:
        return (np.zeros(1, np.int64), np.empty(0, np.int32), np.empty(0, np.int32),
                np.zeros(0, np.uint8), 0, False)
    remap = np.cumsum(keep, dtype=np.int32) - 1
    edge = np.repeat(keep, np.diff(indptr)) & keep[targets]
    return (_csr(_row_counts(indptr, edge)[keep]), letters[edge],
            remap[targets[edge]], acc[keep], int(remap[initial]), True)


# ---------------------------------------------------------------------------
# Moore minimization: refine a labelled partition to the Nerode congruence.
# Input must already be trimmed; the implicit sink is its own class.  Each
# round gives state s the record [block[s], letters of s, block of each
# target of s]; states stay together while their records agree.  The
# result is numbered by first occurrence.
# ---------------------------------------------------------------------------

def min_blocks(indptr, letters, targets, labels):
    block = _first_occurrence(labels)
    deg = np.diff(indptr)
    groups = []  # per out-degree: states, letter-row ids, target table
    for d in _distinct(deg).tolist():
        states = np.flatnonzero(deg == d)
        _, row, succ = _gather(indptr, letters, targets, states)
        shape = (states.size, d)
        groups.append((states, _row_ids(row.reshape(shape)), succ.reshape(shape)))
    nblocks = int(block.max()) + 1
    while True:
        new = np.empty_like(block)
        base = 0
        for states, row, succ in groups:
            table = np.empty((states.size, succ.shape[1] + 2), np.int32)
            table[:, 0] = block[states]
            table[:, 1] = row
            table[:, 2:] = block[succ]
            ids = _row_ids(table)
            new[states] = base + ids
            base += int(ids.max()) + 1
        if base == nblocks:
            return _first_occurrence(block)
        block, nblocks = new, base


# ---------------------------------------------------------------------------
# quotient by a stable partition, then canonical BFS numbering
# ---------------------------------------------------------------------------

def quotient(indptr, letters, targets, acc, block, nblocks, initial):
    """Keep the first state of each block as its representative."""
    _, rep = np.unique(block, return_index=True)
    rep = rep[:nblocks].astype(np.int32)
    return (*_gather(indptr, letters, targets, rep, block), acc[rep],
            int(block[initial]), rep)


def bfs_renumber(indptr, letters, targets, acc, initial):
    """Relabel states in BFS discovery order (rows are letter sorted, so
    the numbering is canonical for isomorphic automata).  Unreachable
    states are dropped."""
    # one level at a time; a level keeps the order in which the previous
    # level's rows first name its states, as a queue would
    seen = np.zeros(acc.size, bool)
    seen[initial] = True
    levels = [np.array([initial], np.int32)]
    while levels[-1].size:
        found = []
        for succ in _successors(indptr, targets, levels[-1]):
            succ = succ[~seen[succ]]
            _, first = np.unique(succ, return_index=True)
            succ = succ[np.sort(first)]
            seen[succ] = True
            found.append(succ)
        levels.append(np.concatenate(found))
    order = np.concatenate(levels)
    pos = np.empty(acc.size, np.int32)
    pos[order] = np.arange(order.size, dtype=np.int32)
    return (*_gather(indptr, letters, targets, order, pos), acc[order], order)


# ---------------------------------------------------------------------------
# the four steps above in one pass over lists, for small machines
# ---------------------------------------------------------------------------

def _no_targets(block):
    return None


def canonical(indptr, letters, targets, acc, initial, labels=None):
    """What trim, min_blocks, quotient and bfs_renumber give in turn, and
    an input state of each output state.  With `labels` None the machine
    is a relation: it is trimmed (a dead initial state gives the one-state
    empty machine) and refined by acceptance.  Otherwise it is a word
    automaton: not trimmed, and refined by `labels`.  Unreachable states
    take no part: they cannot split a block, and BFS drops them anyway."""
    ip, lt, tg = indptr.tolist(), letters.tolist(), targets.tolist()
    label = (acc if labels is None else labels).tolist()
    n = len(label)
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
    if labels is None:
        stack = [s for s in states if label[s]]
        for s in stack:
            at[s] = 0
        while stack:
            for p in preds[stack.pop()]:
                if at[p] < 0:
                    at[p] = 0
                    stack.append(p)
        if at[initial] < 0:
            return (np.zeros(2, np.int64), np.empty(0, np.int32),
                    np.empty(0, np.int32), np.zeros(1, np.uint8), np.zeros(1, np.int32))
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
    # Moore rounds from the partition by (label, letter row): states with
    # different rows are never equivalent, so the fixpoint is the same
    ids: dict = {}
    block = [ids.setdefault((label[s], *row), len(ids)) for s, row in zip(states, rows)]
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
    # equivalent states have equal rows up to blocks, so any one will do
    rep = [0] * nblocks
    for i, b in enumerate(block):
        rep[b] = i
    pos = [-1] * nblocks
    pos[block[0]] = 0
    order = [block[0]]
    out_indptr, out_letters, out_targets = [0], [], []
    for b in order:  # BFS over blocks, in the same order as bfs_renumber
        s = rep[b]
        for t in succ[s]:
            t = block[t]
            if pos[t] < 0:
                pos[t] = len(order)
                order.append(t)
            out_targets.append(pos[t])
        out_letters += rows[s]
        out_indptr.append(len(out_targets))
    kept = [states[rep[b]] for b in order]
    return (np.array(out_indptr, np.int64), np.array(out_letters, np.int32),
            np.array(out_targets, np.int32), acc[kept], np.array(kept, np.int32))


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
