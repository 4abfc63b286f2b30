"""Kernel tests against plain scalar references, and memory bounds.

The random machines are drawn as CSR arrays, which the references read,
and handed to the kernels as rows (``conftest.csr_rows``); a kernel's
rows are read back as CSR arrays (``csr_of``) to be compared.
Canonical form is one tail, ``canonical``, on rows reachable from state
0, with ``trim`` in front where a machine starts elsewhere
(``Automaton.from_transitions``).  The tail cuts the states that reach
no accepting state (relations only), then runs min_blocks, quotient and
bfs_renumber.  Each step has a plain loop here as its reference, and
``canonical`` must return what the references give in turn, on
relations, word automata, dead initial states and a machine of about
95 k edges.  pair_product must return, row for row,
``oracles.RefDFA.product`` in all four modes, on random machines, a dead
machine and one input of more than 4 096 edges, and determinize a plain
subset construction; both under the rows invariant.  walk over the
dense successor table is checked against a binary search in the CSR
rows.
"""
import numpy as np
import pytest

from obd import _kernels as K
from obd.automata import Automaton
from conftest import assert_offsets, assert_rows_invariant, csr_rows, traced_peak
from oracles import RefDFA


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
    """Machines covering the edge cases every kernel must handle."""
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
        delta = Automaton(1, nl - 1, *csr_rows(indptr, letters, targets),
                          acc.tolist()).successors()
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


def quotient_reference(indptr, letters, targets, acc, block, nblocks, initial):
    """The first state of each block, targets mapped to their blocks."""
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


def large_machine(rng):
    """About 95 k edges, 25 000 states in 400 classes."""
    return random_machine(rng, 25_000, 4, classes=400, density=0.95)


def canonical_machines(seed):
    """shapes(seed) and a dead initial state, each with initial state 0
    and n - 1; seed 0 gives large_machine alone."""
    rng = np.random.default_rng(seed)
    if seed == 0:
        machines = [large_machine(rng)]
    else:
        machines = shapes(seed)
        # state 0 has no edges and does not accept
        indptr, letters, targets, acc = random_machine(rng, 200, 3, acc_p=0.5)
        acc = acc.copy()
        acc[0] = 0
        machines.append((np.maximum(indptr - indptr[1], 0), letters[indptr[1]:],
                         targets[indptr[1]:], acc))
    for indptr, letters, targets, acc in machines:
        for initial in (0, acc.size - 1):
            yield indptr, letters, targets, acc, initial


def references_in_turn(indptr, letters, targets, acc, initial, labels):
    """The four references in turn, as ``canonical`` returns them: the
    last array names a state of each output state's block, a state of the
    trimmed machine for a relation."""
    if labels is None:  # a relation: trimmed, refined by acceptance
        *machine, alive = trim_reference(indptr, letters, targets, acc, initial)
        if not alive:
            return (np.zeros(2, np.int64), np.empty(0, np.int32),
                    np.empty(0, np.int32), np.zeros(1, np.uint8), np.zeros(1, np.int32))
        indptr, letters, targets, acc, initial = machine
        labels = acc.astype(np.int64)
    block = min_blocks_reference(indptr, letters, targets, labels)
    *machine, rep = quotient_reference(indptr, letters, targets, acc, block,
                                       int(block.max()) + 1, initial)
    *machine, order = bfs_renumber_reference(*machine)
    return (*machine, rep[order])


def csr_of(rows, succ):
    """CSR arrays from per-state letter rows and target rows."""
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return (indptr, np.array([c for r in rows for c in r], np.int32),
            np.array([t for out in succ for t in out], np.int32))


def csr_machine(rows, succ, acc):
    """CSR arrays and the accepting mask of a rows machine."""
    return (*csr_of(rows, succ), np.array(acc, np.uint8))


def transitions(indptr, letters, targets):
    """The (src, letter, dst) triples of a CSR machine."""
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return list(zip(src.tolist(), letters.tolist(), targets.tolist()))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_canonical_paths_agree(seed):
    """Automaton.from_transitions, K.trim then K.canonical, and the four
    references in turn give the same machine."""
    rng = np.random.default_rng(seed)
    dead = 0
    for indptr, letters, targets, acc, initial in canonical_machines(seed):
        nl = int(letters.max(initial=0)) + 1
        triples = transitions(indptr, letters, targets)
        # word automaton: no co-reach cut, labels from negative outputs too
        outputs = rng.integers(-3, 2, acc.size)
        for labels in (None, outputs * 2 + acc):
            states, rows, succ = K.trim(*csr_rows(indptr, letters, targets), initial)
            *got, kept = K.canonical(rows, succ, acc[states].tolist(),
                                     None if labels is None else labels[states].tolist())
            *want, rep = references_in_turn(indptr, letters, targets, acc,
                                            initial, labels)
            assert_same(csr_machine(*got), tuple(want))
            aut = Automaton.from_transitions(
                1, nl - 1, acc.size, initial, np.flatnonzero(acc).tolist(), triples,
                None if labels is None else outputs.tolist())
            assert_same(csr_machine(aut.rows, aut.succ, aut.accepting), tuple(want[:4]))
            assert aut.initial == 0
            if labels is not None:  # equivalent states share their label
                kept = [states[k] for k in kept]
                assert np.array_equal(labels[kept], labels[rep])
                assert aut.outputs == outputs[rep].tolist()
        if not trim_reference(indptr, letters, targets, acc, initial)[5]:
            dead += 1  # no accepting state in reach: the empty machine
            out = Automaton.from_transitions(1, nl - 1, acc.size, initial,
                                             np.flatnonzero(acc).tolist(), triples)
            empty = Automaton.empty(1, nl - 1)
            assert (out.rows, out.succ, out.accepting) == \
                (empty.rows, empty.succ, empty.accepting)
    assert seed == 0 or dead >= 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trim_paths_agree(seed):
    """The list trim keeps the states reachable from `initial`, in BFS
    discovery order, with the rows and target rows of the reference's
    BFS renumbering."""
    for indptr, letters, targets, acc in shapes(seed):
        for initial in (0, acc.size - 1):
            *machine, order = bfs_renumber_reference(indptr, letters, targets,
                                                     acc, initial)
            states, rows, succ = K.trim(*csr_rows(indptr, letters, targets), initial)
            assert states == order.tolist()
            assert_same(csr_of(rows, succ), tuple(machine[:3]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_min_blocks_paths_agree(seed):
    rng = np.random.default_rng(seed)
    for indptr, letters, targets, acc in shapes(seed):
        rows, succ = csr_rows(indptr, letters, targets)
        # negative labels, as word automata give for negative outputs
        for labels in (acc.astype(np.int64),
                       rng.integers(-3, 2, acc.size).astype(np.int64)):
            got = K.min_blocks(rows, succ, labels.tolist())
            assert_same(np.array(got, np.int32),
                        min_blocks_reference(indptr, letters, targets, labels))
            assert max(got) + 1 == len(set(got))


@pytest.mark.parametrize("seed", [1, 2])
def test_quotient_matches_reference(seed):
    """One state per block, in block order, with its block's acceptance;
    its rows with targets read through `block` are quotient_reference's
    machine.  The state kept for a block may differ from the reference's."""
    for indptr, letters, targets, acc in shapes(seed):
        rows, succ = csr_rows(indptr, letters, targets)
        block = K.min_blocks(rows, succ, acc.tolist())
        nblocks = max(block) + 1
        rep = K.quotient(block)
        want = quotient_reference(indptr, letters, targets, acc, block, nblocks, 0)
        assert [block[s] for s in rep] == list(range(nblocks))
        assert_same(csr_of([rows[s] for s in rep],
                           [[block[t] for t in succ[s]] for s in rep]), want[:3])
        assert_same(acc[rep], want[3])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bfs_renumber_paths_agree(seed):
    """On the blocks of min_blocks, and on every state as its own block,
    of the machine trim gives from either end: the reference's BFS
    renumbering of the quotient, from state 0's block."""
    for indptr, letters, targets, acc in shapes(seed):
        for initial in (0, acc.size - 1):
            states, rows, succ = K.trim(*csr_rows(indptr, letters, targets), initial)
            t_acc = acc[states]
            singletons = list(range(len(states)))
            for block in (singletons, K.min_blocks(rows, succ, t_acc.tolist())):
                rep = K.quotient(block)
                q_ip, q_lt, q_tg = csr_of([rows[s] for s in rep],
                                          [[block[t] for t in succ[s]] for s in rep])
                *want, order = bfs_renumber_reference(q_ip, q_lt, q_tg, t_acc[rep],
                                                      block[0])
                rows_, succ_, kept = K.bfs_renumber(rows, succ, block, rep)
                assert_same((*csr_of(rows_, succ_), t_acc[kept]), tuple(want))
                assert kept == [rep[b] for b in order.tolist()]


def test_trim_keeps_everything_unchanged():
    # every state reaches the accepting state 0 and is reached from it,
    # around one cycle
    n = 5000
    targets = list(range(1, n)) + [0]
    states, rows, succ = K.trim([(0,)] * n, [[t] for t in targets], 0)
    assert states == list(range(n))
    assert rows == [(0,)] * n and succ == [[t] for t in targets]
    acc = [1] + [0] * (n - 1)
    *cut, kept = K._cut_dead(rows, succ, acc)
    assert all(x is y for x, y in zip(cut, (rows, succ, acc))) and kept is None


def test_co_reach_cut_past_the_sweeps():
    """A path to the accepting state 3 that turns at every step, so that
    the two sweeps leave most of it to the backward search, and a dead
    state 8 behind state 3, whose edge into it goes."""
    path = [7, 0, 6, 1, 5, 2, 4, 3]
    succ = [[] for _ in range(9)]
    for s, t in zip(path, path[1:]):
        succ[s] = [t]
    succ[3], succ[8] = [8], [8]
    rows = [(0,) if out else () for out in succ]
    rows[3] = (1,)
    acc = [0] * 9
    acc[3] = 1
    cut = K._cut_dead(rows, [list(out) for out in succ], acc)
    kept = list(range(8))
    assert cut == ([() if s == 3 else rows[s] for s in kept],
                   [[] if s == 3 else succ[s] for s in kept], acc[:8], kept)


def test_trim_nothing_useful():
    indptr, letters, targets, acc = random_machine(np.random.default_rng(5), 800, 4,
                                                   acc_p=0.0)
    states, rows, succ = K.trim(*csr_rows(indptr, letters, targets), 0)
    assert K._cut_dead(rows, succ, acc[states].tolist()) is None


def dead_machine():
    return (np.zeros(2, np.int64), np.empty(0, np.int32), np.empty(0, np.int32),
            np.zeros(1, np.uint8))


def ref_dfa(indptr, letters, targets, acc, nl):
    """The CSR machine as a RefDFA over the letters 0..nl-1."""
    trans = {(s, int(letters[e])): int(targets[e])
             for s in range(acc.size) for e in range(indptr[s], indptr[s + 1])}
    return RefDFA(acc.size, 0, np.flatnonzero(acc).tolist(), trans, range(nl))


def csr_of_ref(dfa):
    """CSR arrays of a RefDFA, rows in letter order."""
    rows = [[c for c in dfa.alphabet if (s, c) in dfa.trans] for s in range(dfa.n)]
    acc = np.zeros(dfa.n, np.uint8)
    acc[sorted(dfa.accepting)] = 1
    return (*csr_of(rows, [[dfa.trans[s, c] for c in row] for s, row in enumerate(rows)]),
            acc)


def rows_machine(indptr, letters, targets, acc):
    """A CSR machine as rows, target rows and accepting flags."""
    return (*csr_rows(indptr, letters, targets), acc.tolist())


def assert_rows_result(indptr, rows, succ, acc):
    """What pair_product and determinize return: the rows invariant and
    the row offsets."""
    assert_rows_invariant(rows, succ, acc)
    assert_offsets(indptr, rows)


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_pair_product_matches_reference(mode):
    """pair_product returns, as rows, the CSR of RefDFA.product, which
    numbers the pairs in the same BFS order and drops the same dead sides,
    and its rows meet the invariant the rows entry trusts.  Rows of
    unequal length on either side make mode 0 walk either row.  The
    1500-state machine has more than 4 096 edges; it meets only small
    machines, as in the compiler's large products, since the reference
    is slow on a product of two large ones."""
    rng = np.random.default_rng(10 + mode)
    machines = [random_machine(rng, 60, 4, density=0.5),
                random_machine(rng, 700, 4, classes=30, density=0.7),
                random_machine(rng, 400, 8, density=0.3),
                dead_machine()]
    large, tiny = random_machine(rng, 1500, 4, density=0.8), random_machine(rng, 6, 4)
    assert large[1].size >= 4096
    pairs = [(a, b) for a in machines for b in machines]
    pairs += [(large, tiny), (tiny, large), (large, dead_machine()), (dead_machine(), large)]
    op = ("and", "or", "xor", "andnot")[mode]
    for a, b in pairs:
        nl = int(max(a[1].max(initial=0), b[1].max(initial=0))) + 1
        got = K.pair_product(*rows_machine(*a), 0, *rows_machine(*b), 0, mode)
        assert_rows_result(*got)
        want = csr_of_ref(RefDFA.product(ref_dfa(*a, nl), ref_dfa(*b, nl), op))
        assert_same(csr_machine(*got[1:]), want)


def determinize_reference(indptr, letters, targets, acc, inits, letter_map):
    """Subset construction by plain search over frozensets, letters in
    increasing order, as a RefDFA: the start set, closed under mapped
    zero letters, is state 0."""
    moves = {}
    for s in range(acc.size):
        for e in range(indptr[s], indptr[s + 1]):
            moves.setdefault(s, []).append((int(letter_map[letters[e]]), int(targets[e])))
    start = set(inits)
    while True:
        grown = {t for s in start for c, t in moves.get(s, ()) if c == 0} - start
        if not grown:
            break
        start |= grown
    sets = [frozenset(start)]
    index, trans = {sets[0]: 0}, {}
    for i, members in enumerate(sets):  # the loop visits sets appended while it runs
        step = {}
        for s in members:
            for c, t in moves.get(s, ()):
                step.setdefault(c, set()).add(t)
        for c in sorted(step):
            key = frozenset(step[c])
            if key not in index:
                index[key] = len(sets)
                sets.append(key)
            trans[i, c] = index[key]
    accepting = [i for i, m in enumerate(sets) if any(acc[s] for s in m)]
    return RefDFA(len(sets), 0, accepting, trans, sorted(set(letter_map)))


@pytest.mark.parametrize("seed", [1, 2])
def test_determinize_matches_reference(seed):
    """determinize returns, as rows, the CSR of determinize_reference and
    meets the rows invariant: letters merged by a map (so the input is
    nondeterministic), one or several start states, and a dead machine."""
    rng = np.random.default_rng(seed)
    machines = [random_machine(rng, n, 4, **kw) for n, kw in
                [(1, {}), (6, {}), (12, {"density": 0.4}), (14, {"acc_p": 0.0}),
                 (60, {"classes": 6})]]
    for indptr, letters, targets, acc in machines + [dead_machine()]:
        nl = int(letters.max(initial=0)) + 1
        for letter_map in (tuple(range(nl)), tuple(c // 2 for c in range(nl))):
            for inits in ([0], sorted({0, acc.size - 1, int(rng.integers(acc.size))})):
                got = K.determinize(*rows_machine(indptr, letters, targets, acc),
                                    inits, letter_map)
                assert_rows_result(*got)
                assert_same(csr_machine(*got[1:]), csr_of_ref(determinize_reference(
                    indptr, letters, targets, acc, inits, letter_map)))


def one_state_machines():
    """A one-state machine that accepts with a loop on each letter, one
    that accepts the empty word alone, and the dead machine."""
    loop = (np.array([0, 2], np.int64), np.array([0, 1], np.int32),
            np.array([0, 0], np.int32), np.ones(1, np.uint8))
    empty_word = (np.zeros(2, np.int64), np.empty(0, np.int32),
                  np.empty(0, np.int32), np.ones(1, np.uint8))
    return [loop, empty_word, dead_machine()]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_canonical_entries_agree(seed):
    """The one entry, K.canonical, gives what the references give in turn
    on machines BFS numbered from a reachable state 0, as pair_product,
    determinize and the linear atoms' walk hand them over: ones with
    states that reach no accepting state, a dead initial state (the
    one-state empty machine) and one-state machines."""
    cut = dead = 0
    machines = list(canonical_machines(seed))
    machines += [(*m, 0) for m in one_state_machines()]
    for indptr, letters, targets, acc, initial in machines:
        # the part reachable from `initial`, numbered in BFS order
        *bfs, acc, _ = bfs_renumber_reference(indptr, letters, targets, acc, initial)
        rows, succ, flags = rows_machine(*bfs, acc)
        assert_rows_invariant(rows, succ, flags)
        *got, kept = K.canonical(rows, succ, flags)
        *want, rep = references_in_turn(*bfs, acc, 0, None)
        assert_same(csr_machine(*got), tuple(want))
        live = trim_reference(*bfs, acc, 0)
        if not live[5]:
            dead += 1
            assert (got, kept) == ([[()], [[]], [0]], [0])
        elif live[3].size < acc.size:
            cut += 1
    assert seed == 0 or (cut >= 3 and dead >= 3)


# -- memory -----------------------------------------------------------------

# Peak traced allocation of Automaton.product, in bytes, on a machine of
# about 95 k edges and a 6-state one: 116 690 product states in mode
# "or", 94 429 in mode "and", which accepts nothing.  The ceilings are the
# peaks of the path this one replaced, measured with Python 3.11 and
# numpy 2.4, where pair_product returned arrays that the canonical form
# converted back to lists and trimmed with a predecessor list per state.
# The rows hand-off reads 45.5 MB and 33.6 MB: equal letter rows share one
# tuple, and the co-reach cut keeps no predecessor list per state and
# renumbers the kept target rows in place.
PEAK_BYTES = {"or": 63.3e6, "and": 36.9e6}


def test_pair_product_memory():
    rng = np.random.default_rng(3)
    indptr, letters, targets, acc = large_machine(rng)
    small = random_machine(rng, 6, 4, density=0.9)
    assert letters.size > 90_000
    big = Automaton(1, 3, *rows_machine(indptr, letters, targets, acc))
    small = Automaton(1, 3, *rows_machine(*small))
    for mode, states in (("or", 390), ("and", 0)):
        peak, out = traced_peak(big.product, small, mode)
        assert out.live_states == states
        assert peak <= PEAK_BYTES[mode], mode
