"""Differential tests of the kernels' two paths, and their memory bounds.

Canonicalisation and pair_product have a list path for small inputs and
a whole-array path for large ones, chosen by edge count against
``SMALL_EDGES``: below it ``canonical`` does in one pass what the array
kernels trim, min_blocks, quotient and bfs_renumber do in turn.  Here
both paths run on the same random CSR machines (forced by moving the
constant) and must return identical arrays.  trim, min_blocks and
bfs_renumber each keep only their array path; the plain loops that were
their list paths live on here as references, and each kernel must return
what its loop returns.  quotient is checked against a scalar loop too,
and walk over the dense successor table against a binary search in the
CSR rows.
"""
import tracemalloc

import numpy as np
import pytest

from obd import _kernels as K
from obd.automata import Automaton


def csr(n, letters_per_state, targets):
    """CSR arrays from a boolean (n, nl) letter mask and a target list."""
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(letters_per_state.sum(axis=1), out=indptr[1:])
    letters = np.nonzero(letters_per_state)[1].astype(np.int32)
    return indptr, letters, np.asarray(targets, np.int32)


def random_machine(rng, n, nl, density=0.6, classes=None, acc_p=0.3,
                   reach=None):
    """Random deterministic machine.

    With `classes`, state s behaves like class s % classes: its row and
    acceptance are the class's, and each target is a random state of the
    target class, so Moore rounds have many states to merge.  Without,
    targets are drawn below `reach`, leaving higher states unreachable.
    """
    k = classes or n
    cls = np.arange(n) % k
    mask = (rng.random((k, nl)) < density)[cls]
    if classes:
        target_cls = rng.integers(0, k, size=(k, nl))[cls][mask]
        copies = (n - 1 - target_cls) // k + 1
        targets = target_cls + k * (rng.random(target_cls.size) * copies).astype(np.int64)
    else:
        targets = rng.integers(0, reach or n, size=int(mask.sum()))
    indptr, letters, targets = csr(n, mask, targets)
    acc = (rng.random(k) < acc_p)[cls].astype(np.uint8)
    return indptr, letters, targets, acc


def shapes(seed):
    """Machines covering the edge cases both paths must agree on."""
    rng = np.random.default_rng(seed)
    out = []
    for n, nl, kw in [(1, 1, {}), (7, 2, {}), (40, 3, {"density": 0.0}),
                      (40, 3, {"classes": 5}),
                      (300, 4, {"density": 0.5}), (900, 4, {"classes": 60}),
                      (3000, 4, {"classes": 200, "density": 0.7}),
                      (2500, 8, {"density": 0.3, "reach": 2000}),
                      (500, 4, {"acc_p": 0.0}), (500, 2, {"acc_p": 1.0, "density": 1.0})]:
        indptr, letters, targets, acc = random_machine(rng, n, nl, **kw)
        out.append((indptr, letters, targets, acc))
    # the last state has no out-edges and is the only accepting one
    indptr, letters, targets, acc = random_machine(rng, 1200, 4)
    keep = np.ones(letters.size, bool)
    keep[indptr[-2]:] = False
    counts = np.diff(indptr)
    counts[-1] = 0
    acc = np.zeros_like(acc)
    acc[-1] = 1
    out.append((np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
                letters[keep], targets[keep], acc))
    return out


def both_paths(monkeypatch, fn, *args):
    monkeypatch.setattr(K, "SMALL_EDGES", 1 << 62)
    small = fn(*args)
    monkeypatch.setattr(K, "SMALL_EDGES", 0)
    large = fn(*args)
    return small, large


def assert_same(small, large):
    if not isinstance(small, tuple):
        small, large = (small,), (large,)
    assert len(small) == len(large)
    for x, y in zip(small, large):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


def trim_reference(indptr, letters, targets, acc, initial):
    """Useful states by plain graph search, then the scalar compaction loop."""
    n = acc.size
    succ = [targets[indptr[s]:indptr[s + 1]].tolist() for s in range(n)]
    fwd, todo = {initial}, [initial]
    while todo:
        for t in succ[todo.pop()]:
            if t not in fwd:
                fwd.add(t)
                todo.append(t)
    useful = {s for s in fwd if acc[s]}
    grew = True
    while grew:
        grew = False
        for s in fwd - useful:
            if useful.intersection(succ[s]):
                useful.add(s)
                grew = True
    if initial not in useful:
        return (np.zeros(1, np.int64), np.empty(0, np.int32), np.empty(0, np.int32),
                np.zeros(0, np.uint8), 0, False)
    keep = sorted(useful)
    remap = {s: i for i, s in enumerate(keep)}
    new_indptr, new_letters, new_targets = [0], [], []
    for s in keep:
        for e in range(indptr[s], indptr[s + 1]):
            if targets[e] in remap:
                new_letters.append(letters[e])
                new_targets.append(remap[targets[e]])
        new_indptr.append(len(new_letters))
    return (np.array(new_indptr, np.int64), np.array(new_letters, np.int32),
            np.array(new_targets, np.int32), acc[keep], remap[initial], True)


def walk_reference(indptr, letters, targets, initial, word):
    """Scalar walk by binary search in each CSR row; -1 on a dead end."""
    s = initial
    for code in word:
        lo, hi = int(indptr[s]), int(indptr[s + 1])
        while lo < hi:
            mid = (lo + hi) // 2
            if letters[mid] < code:
                lo = mid + 1
            else:
                hi = mid
        if lo == int(indptr[s + 1]) or letters[lo] != code:
            return -1
        s = int(targets[lo])
    return s


@pytest.mark.parametrize("seed", [1, 2])
def test_walk_matches_binary_search(seed):
    rng = np.random.default_rng(seed)
    for indptr, letters, targets, acc in shapes(seed):
        n, nl = acc.size, int(letters.max(initial=0)) + 1
        delta = Automaton(1, nl - 1, indptr, letters, targets, acc).successors()
        assert len(delta) == (n + 1) * nl
        words = [[]] + [rng.integers(0, nl, size=rng.integers(1, 40)).tolist()
                        for _ in range(60)]
        # a code no edge can carry, at the start, in the middle and at the end
        words += [[nl], [0, nl + 3, 0], [-1], words[1] + [nl]]
        for initial in (0, n - 1):
            for word in words:
                want = walk_reference(indptr, letters, targets, initial, word)
                got = K.walk(delta, nl, initial, word)
                assert got == (n if want < 0 else want), (initial, word)


def sized(rng, edges):
    """A random machine cut down to exactly `edges` edges."""
    indptr, letters, targets, acc = random_machine(rng, edges // 2 + 1, 4,
                                                   density=0.8, classes=40)
    assert letters.size >= edges
    return np.minimum(indptr, edges), letters[:edges], targets[:edges], acc


def canonical_machines(seed):
    """shapes(seed), a dead initial state and the two sizes either side of
    SMALL_EDGES, each with initial state 0 and n - 1."""
    rng = np.random.default_rng(seed)
    machines = shapes(seed)
    # state 0 has no edges and does not accept
    indptr, letters, targets, acc = random_machine(rng, 200, 3, acc_p=0.5)
    acc = acc.copy()
    acc[0] = 0
    machines.append((np.maximum(indptr - indptr[1], 0), letters[indptr[1]:],
                     targets[indptr[1]:], acc))
    machines += [sized(rng, K.SMALL_EDGES - 1), sized(rng, K.SMALL_EDGES)]
    for indptr, letters, targets, acc in machines:
        for initial in (0, acc.size - 1):
            yield indptr, letters, targets, acc, initial


def canonical_arrays(aut):
    out = aut._canonical()
    return (out.indptr, out.letters, out.targets, out.accepting, out.initial,
            out.outputs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonical_paths_agree(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    machines = list(canonical_machines(seed))
    assert [m[1].size for m in machines[-4:]] == \
        [K.SMALL_EDGES - 1] * 2 + [K.SMALL_EDGES] * 2
    dead = 0
    for indptr, letters, targets, acc, initial in machines:
        nl = int(letters.max(initial=0)) + 1
        relation = Automaton(1, nl - 1, indptr, letters, targets, acc, initial)
        # word automaton: no trim, labels from negative outputs too
        word = Automaton(1, nl - 1, indptr, letters, targets, acc, initial,
                         rng.integers(-3, 2, acc.size))
        for aut in (relation, word):
            small, large = both_paths(monkeypatch, canonical_arrays, aut)
            assert_same(small, large)
            monkeypatch.undo()  # and the path SMALL_EDGES itself picks
            assert_same(small, canonical_arrays(aut))
        if not trim_reference(indptr, letters, targets, acc, initial)[5]:
            dead += 1  # no accepting state in reach: the empty machine
            assert_same(canonical_arrays(relation),
                        canonical_arrays(Automaton.empty(1, nl - 1)))
    assert dead >= 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trim_paths_agree(seed):
    for indptr, letters, targets, acc in shapes(seed):
        for initial in (0, acc.size - 1):
            assert_same(K.trim(indptr, letters, targets, acc, np.int64(initial)),
                        trim_reference(indptr, letters, targets, acc, initial))


def test_trim_keeps_everything_unchanged(monkeypatch):
    # every state reaches the accepting state 0 and is reached from it
    n = 5000
    indptr = np.arange(n + 1, dtype=np.int64)
    letters = np.zeros(n, np.int32)
    targets = ((np.arange(n) + 1) % n).astype(np.int32)
    acc = np.zeros(n, np.uint8)
    acc[0] = 1
    for out in both_paths(monkeypatch, K.trim, indptr, letters, targets, acc, 0):
        assert out[0] is indptr and out[1] is letters and out[2] is targets
        assert out[3] is acc and out[4:] == (0, True)


def test_trim_nothing_useful(monkeypatch):
    indptr, letters, targets, acc = random_machine(np.random.default_rng(5), 800, 4,
                                                   acc_p=0.0)
    small, large = both_paths(monkeypatch, K.trim, indptr, letters, targets, acc, 0)
    assert_same(small, large)
    assert small[0].tolist() == [0] and small[5] is False


def min_blocks_reference(indptr, letters, targets, labels):
    """Moore rounds over lists, blocks numbered by first occurrence."""
    ip, lt, tg = indptr.tolist(), letters.tolist(), targets.tolist()
    n = len(ip) - 1
    row_ids: dict = {}
    row_of = [row_ids.setdefault(tuple(lt[ip[s]:ip[s + 1]]), len(row_ids))
              for s in range(n)]
    succ = [tg[ip[s]:ip[s + 1]] for s in range(n)]
    ids: dict = {}
    block = [ids.setdefault(b, len(ids)) for b in labels.tolist()]
    nblocks = len(ids)
    while True:
        ids = {}
        new = [ids.setdefault((b, r, *[block[t] for t in ts]), len(ids))
               for b, r, ts in zip(block, row_of, succ)]
        if len(ids) == nblocks:
            return np.array(block, np.int32)
        block, nblocks = new, len(ids)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_min_blocks_paths_agree(seed):
    rng = np.random.default_rng(seed)
    for indptr, letters, targets, acc in shapes(seed):
        # negative labels, as word automata give for negative outputs
        for labels in (acc.astype(np.int64),
                       rng.integers(-3, 2, acc.size).astype(np.int64)):
            got = K.min_blocks(indptr, letters, targets, labels)
            assert_same(got, min_blocks_reference(indptr, letters, targets, labels))
            assert got.max() + 1 == np.unique(got).size


def quotient_reference(indptr, letters, targets, acc, block, nblocks, initial):
    """The scalar loop the numpy quotient replaced."""
    rep = [-1] * nblocks
    for s in range(acc.size):
        if rep[block[s]] < 0:
            rep[block[s]] = s
    new_indptr, new_letters, new_targets = [0], [], []
    for s in rep:
        for e in range(indptr[s], indptr[s + 1]):
            new_letters.append(letters[e])
            new_targets.append(block[targets[e]])
        new_indptr.append(len(new_letters))
    return (np.array(new_indptr, np.int64), np.array(new_letters, np.int32),
            np.array(new_targets, np.int32), acc[rep], int(block[initial]),
            np.array(rep, np.int32))


@pytest.mark.parametrize("seed", [1, 2])
def test_quotient_matches_reference(seed):
    for indptr, letters, targets, acc in shapes(seed):
        block = K.min_blocks(indptr, letters, targets, acc.astype(np.int64))
        nblocks = int(block.max()) + 1
        for initial in (0, acc.size - 1):
            got = K.quotient(indptr, letters, targets, acc, block, nblocks, initial)
            assert_same(got, quotient_reference(indptr, letters, targets, acc,
                                                block, nblocks, initial))


def bfs_renumber_reference(indptr, letters, targets, acc, initial):
    """Queue BFS over lists, then the rows copied in discovery order."""
    ip, lt, tg = indptr.tolist(), letters.tolist(), targets.tolist()
    pos = {initial: 0}
    order = [initial]
    for s in order:  # the loop visits states appended while it runs
        for t in tg[ip[s]:ip[s + 1]]:
            if t not in pos:
                pos[t] = len(order)
                order.append(t)
    new_indptr, new_letters, new_targets = [0], [], []
    for s in order:
        new_letters += lt[ip[s]:ip[s + 1]]
        new_targets += [pos[t] for t in tg[ip[s]:ip[s + 1]]]
        new_indptr.append(len(new_letters))
    return (np.array(new_indptr, np.int64), np.array(new_letters, np.int32),
            np.array(new_targets, np.int32), acc[order], np.array(order, np.int32))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bfs_renumber_paths_agree(seed):
    for indptr, letters, targets, acc in shapes(seed):
        for initial in (0, acc.size - 1):
            got = K.bfs_renumber(indptr, letters, targets, acc, np.int64(initial))
            assert_same(got, bfs_renumber_reference(indptr, letters, targets, acc,
                                                    initial))


def dead_machine():
    return (np.zeros(2, np.int64), np.empty(0, np.int32), np.empty(0, np.int32),
            np.zeros(1, np.uint8))


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_pair_product_paths_agree(monkeypatch, mode):
    rng = np.random.default_rng(10 + mode)
    machines = [random_machine(rng, 60, 4, density=0.5),
                random_machine(rng, 700, 4, classes=30, density=0.7),
                random_machine(rng, 400, 8, density=0.3),
                dead_machine()]
    for a in machines:
        for b in machines:
            args = (*a, np.int64(0), *b, np.int64(0), mode)
            small, large = both_paths(monkeypatch, K.pair_product, *args)
            assert_same(small, large)


def test_pair_product_slices(monkeypatch):
    # a level wider than one slice must give the same machine
    rng = np.random.default_rng(7)
    a = random_machine(rng, 3000, 4, density=0.8)
    b = random_machine(rng, 20, 4, density=0.9)
    args = (*a, np.int64(0), *b, np.int64(0), 1)
    small, large = both_paths(monkeypatch, K.pair_product, *args)
    monkeypatch.setattr(K, "SLICE_EDGES", 64)
    assert_same(small, large)
    assert_same(small, K.pair_product(*args))


# -- memory -----------------------------------------------------------------

# Peak traced allocation inside an array-path kernel, as a multiple of the
# bytes of the call's input and output arrays, on a machine of about 95 k
# edges.  Measured with numpy 2.4: trim 1.30, min_blocks 2.35, quotient
# 0.41, bfs_renumber 1.10, pair_product 1.71; each bound is that, rounded
# up to the next half.
PEAK_MULTIPLE = {"trim": 1.5, "min_blocks": 2.5, "quotient": 0.5,
                 "bfs_renumber": 1.5, "pair_product": 2.0}


def nbytes(values):
    seen, total = set(), 0
    for v in values:
        if isinstance(v, np.ndarray) and id(v) not in seen:
            seen.add(id(v))
            total += v.nbytes
    return total


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out if isinstance(out, tuple) else (out,)


def test_array_path_memory(monkeypatch):
    monkeypatch.setattr(K, "SMALL_EDGES", 0)
    rng = np.random.default_rng(3)
    indptr, letters, targets, acc = random_machine(rng, 25_000, 4, classes=400,
                                                   density=0.95)
    small = random_machine(rng, 6, 4, density=0.9)
    block = K.min_blocks(indptr, letters, targets, acc.astype(np.int64))
    nblocks = int(block.max()) + 1
    calls = {
        "trim": (K.trim, (indptr, letters, targets, acc, 0)),
        "min_blocks": (K.min_blocks, (indptr, letters, targets, acc.astype(np.int64))),
        "quotient": (K.quotient, (indptr, letters, targets, acc, block, nblocks, 0)),
        "bfs_renumber": (K.bfs_renumber, (indptr, letters, targets, acc, 0)),
        "pair_product": (K.pair_product, (indptr, letters, targets, acc, 0,
                                          *small, 0, 1)),
    }
    assert letters.size > 90_000
    ratios = {}
    for name, (fn, args) in calls.items():
        peak, out = traced_peak(fn, *args)
        ratios[name] = round(peak / nbytes(args + out), 2)
    assert all(ratios[name] <= PEAK_MULTIPLE[name] for name in calls), ratios
