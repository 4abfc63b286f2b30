"""Synchronized automata over tuples of digit strings.

A k-track automaton reads words whose letters are k-tuples of digits in
0..dmax, packed into a single integer code with track 0 most significant:
code = sum d_j * (dmax+1)**(k-1-j). Tracks are padded with leading zeros
to a common length, and every language handled here is padding closed
(w is accepted iff 0w is), so the padding length never matters.

Storage is CSR: indptr / letters / targets sorted by (state, letter),
one initial state, an accepting mask and optionally a per-state output
(for word automata built with combine). Every machine built from edges
goes through the one edge constructor ``csr_from_edges``, and every
letter remap between track layouts (lift, projection, permutation)
reads the one memoised track table ``_track_table``. Every subset
construction (projection, reversal, leading-zero closure, the regex
compiler and the canonical recognizer) goes through the one builder
``determinized``, leading-zero closure through ``pad_closed`` on top of
it. All public operations return canonical machines: trimmed, minimized
and BFS renumbered, so equal languages give byte-identical arrays. The
empty language is stored as a single dead state and reports
live_states == 0.
"""
from __future__ import annotations

import functools
import hashlib
from collections import deque

import numpy as np

from . import _kernels as K


class NoOutput(ValueError):
    """A 2-track relation pairs no z with the n that ``function_value`` read."""


def nletters(arity: int, dmax: int) -> int:
    return (dmax + 1) ** arity


def letter_code(digits, dmax: int) -> int:
    code = 0
    for d in digits:
        if d < 0 or d > dmax:
            raise ValueError(f"digit {d} out of range 0..{dmax}")
        code = code * (dmax + 1) + d
    return code


def letter_digits(code: int, arity: int, dmax: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        out.append(code % (dmax + 1))
        code //= dmax + 1
    return tuple(reversed(out))


def csr_from_edges(n_states: int, src, letters, targets):
    """The edges src -> targets on `letters`, given in any order, as CSR
    (indptr, letters, targets): rows sorted by (state, letter), edges with
    equal (state, letter) in their given order.  Edges that already come
    in that order are neither sorted nor copied."""
    src = np.asarray(src, np.int64)
    letters = np.asarray(letters, np.int32)
    targets = np.asarray(targets, np.int32)
    in_order = src[1:] == src[:-1]  # built in place: 1 byte per edge
    in_order &= letters[1:] >= letters[:-1]
    in_order |= src[1:] > src[:-1]
    if not in_order.all():
        order = np.lexsort((letters, src))
        src, letters, targets = src[order], letters[order], targets[order]
    indptr = np.zeros(n_states + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n_states), out=indptr[1:])
    return indptr, letters, targets


def edge_sources(indptr) -> np.ndarray:
    """Source state of each edge of a CSR machine."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


@functools.cache
def _track_table(arity: int, dmax: int, positions: tuple,
                 arity_new: int) -> np.ndarray:
    """Row `code` lists, in increasing order, every code over `arity_new`
    tracks whose track positions[i] holds digit i of `code`; the other
    tracks range over all digits.  Memoised, so read-only."""
    if len(positions) != arity or len(set(positions)) != arity \
            or not all(0 <= p < arity_new for p in positions):
        raise ValueError(f"bad track embedding {list(positions)} into "
                         f"{arity_new} tracks")
    base = dmax + 1
    wide = np.arange(nletters(arity_new, dmax))
    code = np.zeros_like(wide)
    for p in positions:
        code = code * base + wide // base ** (arity_new - 1 - p) % base
    table = np.argsort(code, kind="stable").astype(np.int32)
    table = table.reshape(nletters(arity, dmax), -1)
    table.flags.writeable = False
    return table


def project_letter_map(arity: int, dmax: int, drop) -> np.ndarray:
    """Old letter code -> code with the tracks in `drop` removed.

    Memoised by its arguments; the table is shared, so it is read-only."""
    return _project_table(arity, dmax, frozenset(drop))


@functools.cache
def _project_table(arity: int, dmax: int, drop: frozenset) -> np.ndarray:
    if not all(0 <= t < arity for t in drop):
        raise ValueError("track index out of range")
    keep = tuple(t for t in range(arity) if t not in drop)
    table = _track_table(len(keep), dmax, keep, arity)
    out = np.empty(nletters(arity, dmax), np.int32)
    out[table] = np.arange(table.shape[0], dtype=np.int32)[:, None]
    out.flags.writeable = False
    return out


def lift_codes(arity_old: int, dmax: int, positions, arity_new: int) -> np.ndarray:
    """Matrix of letter expansions for embedding tracks into a wider tuple.

    positions[i] is the new index of old track i (strictly increasing).
    Row `code` lists every new-alphabet code whose mapped tracks spell out
    `code`; free tracks range over all digits.  Memoised by its arguments;
    the table is shared, so it is read-only.
    """
    positions = tuple(positions)
    if sorted(set(positions)) != list(positions):
        raise ValueError("positions must be strictly increasing")
    return _track_table(arity_old, dmax, positions, arity_new)


def determinized(arity, dmax, indptr, letters, targets, acc, inits,
                 letter_map=None, zero_close=False) -> "Automaton":
    """Canonical DFA of a CSR machine with any number of edges per (state,
    letter), started in the set `inits`, its letters read through
    `letter_map` (old code -> code over `arity` tracks; None keeps them).
    With `zero_close` the start set is closed under mapped zero letters, so
    leading zeros can be dropped.  ``K.determinize`` returns the subsets as
    rows, which ``_canonical`` takes as they are (a ``_Raw`` machine)."""
    if letter_map is None:
        letter_map = np.arange(nletters(arity, dmax), dtype=np.int32)
    return _Raw(arity, dmax, *K.determinize(
        indptr, letters, targets, acc, np.asarray(inits, np.int64), letter_map,
        zero_close))._canonical()


def pad_closed(arity, dmax, n_states, src, letters, targets, acc,
               initial) -> "Automaton":
    """Smallest padding-closed language with the same stripped words as the
    machine of edges src -> targets on `letters` (any order, any number per
    (state, letter)) started in `initial`: {u : strip(u) = strip(w) for
    some accepted w}, built as 0* . L with leading-zero closure folded in,
    in one subset construction."""
    src = np.asarray(src, np.int64)
    letters = np.asarray(letters, np.int32)
    targets = np.asarray(targets, np.int32)
    # a fresh state n reads a zero letter to itself, then the initial row
    n, first = n_states, src == initial
    return determinized(arity, dmax, *csr_from_edges(
        n + 1, np.concatenate([src, np.full(1 + first.sum(), n)]),
        np.concatenate([letters, [0], letters[first]]),
        np.concatenate([targets, [n], targets[first]])),
        np.append(acc, acc[initial]), [n], zero_close=True)


_MODES = {"and": 0, "or": 1, "xor": 2, "andnot": 3}


class Automaton:
    """A deterministic automaton in the CSR form the module docstring gives.

    Every read (walks, membership, ``function_value``, word automata)
    goes through one dense successor table, ``successors()``: entry
    ``s * nletters + code`` is the target of state s on letter `code`, and
    a missing edge leads to the sink, state id ``n_states``, whose row
    points back to itself.  It holds (n_states + 1) * (dmax + 1)**arity
    entries, which is small for the machines read here: the packaged
    scripts and the benchmark read machines of at most 2 tracks.
    ``walk`` and ``accepts_word`` read explicit letter codes through
    ``_kernels.walk``.

    Reads of values (``run_values``, hence ``accepts_values`` and
    ``session.word_value``, and ``function_value``) take each value's
    blocks from ``NumerationSystem.greedy_blocks`` and never spell out
    its digits: a block is (table t, pattern index k) in the system's
    tables (``numeration`` module docstring), and a value shorter than
    the read has index 0, all zeros, in the blocks above its own.  The
    top block, of which the read may cover only the low digits, has a
    cut table, whose patterns hold just those digits.  Every block steps
    through a memo keyed by the block: ``_walks[(t, k_1..k_arity)][state]``
    is the state after it.  ``function_value`` keeps in ``_suffixes`` the
    suffix sets B it meets (its docstring), the dict from each set to its
    int id b, the steps ``[key][b]`` -> b' and the picks
    ``[key][b * n_states + state]``, where key is one digit d of n or a
    block (t, k) of n's digits: a pick is the z digit dz (-1 where not
    functional) for a digit, and (state', z digits) ((-1, ()) where not
    functional) for a block.  A miss is filled by the per-letter steps,
    so every read sees the letters it would read digit by digit.
    ``_walks`` holds at most one entry per state and block, so at most
    states x tables x patterns**arity over the tables the machine has
    been read through, a system's cut tables among them (at most w - 1
    per table); the steps hold one per suffix set and block, the picks
    one per state, suffix set and block.  The memos are built on the
    first read and the table on the first read or ``combine``
    (``session._combine_outputs``), and both are kept, which is safe
    because an automaton's arrays are never written after construction.
    """

    __slots__ = ("arity", "dmax", "indptr", "letters", "targets",
                 "accepting", "initial", "outputs", "_delta", "_walks",
                 "_suffixes")

    def __init__(self, arity, dmax, indptr, letters, targets, accepting,
                 initial=0, outputs=None):
        self.arity = int(arity)
        self.dmax = int(dmax)
        self.indptr = np.asarray(indptr, np.int64)
        self.letters = np.asarray(letters, np.int32)
        self.targets = np.asarray(targets, np.int32)
        self.accepting = np.asarray(accepting, np.uint8)
        self.initial = int(initial)
        self.outputs = None if outputs is None else np.asarray(outputs, np.int32)
        self._delta = None
        self._walks = None
        self._suffixes = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty(arity: int, dmax: int) -> "Automaton":
        return Automaton(arity, dmax, np.zeros(2, np.int64), [], [], [0])

    @staticmethod
    def universal(arity: int, dmax: int) -> "Automaton":
        """Accepts every word, including the empty one."""
        nl = nletters(arity, dmax)
        return Automaton(arity, dmax, *csr_from_edges(
            1, np.zeros(nl, np.int64), np.arange(nl), np.zeros(nl, np.int32)), [1])

    @staticmethod
    def from_transitions(arity, dmax, n_states, initial, accepting, transitions,
                         outputs=None) -> "Automaton":
        """Build from (src, letter, dst) triples; letters may be digit tuples.

        The result is canonicalized. Duplicate (src, letter) pairs are an
        error: this constructor is for deterministic machines only.
        """
        nl = nletters(arity, dmax)
        triples = []
        for src, letter, dst in transitions:
            code = letter_code(letter, dmax) if isinstance(letter, (tuple, list)) else int(letter)
            if not 0 <= code < nl:
                raise ValueError(f"letter code {code} out of range")
            triples.append((src, code, dst))
        triples.sort()
        for i in range(1, len(triples)):
            if triples[i][:2] == triples[i - 1][:2]:
                raise ValueError(f"duplicate transition {triples[i][:2]}")
        acc = np.zeros(n_states, np.uint8)
        acc[list(accepting)] = 1
        return Automaton(arity, dmax, *csr_from_edges(
            n_states, *np.array(triples, np.int64).reshape(-1, 3).T),
            acc, initial, outputs)._canonical()

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.accepting.size

    @property
    def live_states(self) -> int:
        if self.n_states == 1 and not self.accepting[0] and self.letters.size == 0 \
                and self.outputs is None:
            return 0
        return self.n_states

    @property
    def transition_count(self) -> int:
        return self.letters.size

    def is_empty(self) -> bool:
        return not bool(self.accepting.any())

    def decide(self) -> bool:
        """Language nonempty? (Sentences compile to 0-track automata.)"""
        return not self.is_empty()

    def validate(self) -> None:
        nl = nletters(self.arity, self.dmax)
        n = self.n_states
        assert self.indptr.size == n + 1 and self.indptr[0] == 0
        assert self.indptr[-1] == self.letters.size == self.targets.size
        assert 0 <= self.initial < n
        for s in range(n):
            row = self.letters[self.indptr[s]:self.indptr[s + 1]]
            assert np.all(row[1:] > row[:-1]), f"row {s} not strictly letter-sorted"
            assert row.size == 0 or (row[0] >= 0 and row[-1] < nl)
        assert np.all(self.targets >= 0) and np.all(self.targets < n)
        if self.outputs is not None:
            assert self.outputs.size == n

    # -- canonical form ----------------------------------------------------

    def _canonical(self) -> "Automaton":
        """Trimmed, minimal and BFS numbered: by ``K.canonical_rows`` for
        a product, subset construction or linear atom's raw piece (a
        ``_Raw`` machine), by ``K.canonical`` otherwise.  A word automaton
        (one with outputs) is not trimmed; its states are refined by
        outputs * 2 + acc."""
        word = self.outputs is not None
        if isinstance(self, _Raw):
            indptr, letters, targets, acc, states = K.canonical_rows(
                self.rows, self.succ, self.accepting)
        else:
            labels = self.outputs.astype(np.int64) * 2 + self.accepting if word else None
            indptr, letters, targets, acc, states = K.canonical(
                self.indptr, self.letters, self.targets, self.accepting,
                self.initial, labels)
        return Automaton(self.arity, self.dmax, indptr, letters, targets, acc,
                         0, self.outputs[states] if word else None)

    # -- boolean algebra ----------------------------------------------------

    def _check_compatible(self, other: "Automaton") -> None:
        if self.arity != other.arity or self.dmax != other.dmax:
            raise ValueError(
                f"incompatible automata: {self.arity}/{self.dmax} vs "
                f"{other.arity}/{other.dmax}")

    def product(self, other: "Automaton", mode: str) -> "Automaton":
        """Canonical product in `mode` ("and", "or", "xor", "andnot").
        ``K.pair_product`` returns the reachable pairs as rows, which
        ``_canonical`` takes as they are (a ``_Raw`` machine)."""
        self._check_compatible(other)
        return _Raw(self.arity, self.dmax, *K.pair_product(
            self.indptr, self.letters, self.targets, self.accepting, np.int64(self.initial),
            other.indptr, other.letters, other.targets, other.accepting, np.int64(other.initial),
            _MODES[mode]))._canonical()

    def intersect(self, other):
        return self.product(other, "and")

    def union(self, other):
        return self.product(other, "or")

    def xor(self, other):
        return self.product(other, "xor")

    def andnot(self, other):
        return self.product(other, "andnot")

    def complement_within(self, universe: "Automaton") -> "Automaton":
        """Words of `universe` not accepted here (universe = canonical words)."""
        return universe.andnot(self)

    # -- track surgery -------------------------------------------------------

    def project(self, tracks) -> "Automaton":
        """Existentially quantify `tracks` away in one subset construction.

        The image is closed under stripping leading zeros (initial-state
        zero closure) so the result is padding closed again.  Dropping the
        tracks one at a time gives the same language, since dropping a
        track keeps a zero letter zero.
        """
        tracks = set(tracks)
        return determinized(
            self.arity - len(tracks), self.dmax, self.indptr, self.letters,
            self.targets, self.accepting, [self.initial],
            project_letter_map(self.arity, self.dmax, tracks), zero_close=True)

    def lift(self, arity_new: int, positions) -> "Automaton":
        """Spread tracks out into a wider tuple; new tracks are unconstrained.

        The caller is expected to intersect with the canonical-word automaton
        of the wider arity to restore digit bounds on the fresh tracks.
        A canonical machine stays canonical: distinct state languages stay
        distinct under the expansion, and each old letter's smallest new
        code (free digits 0) keeps the old letter order, so BFS discovers
        the states in the same order as before.
        """
        table = lift_codes(self.arity, self.dmax, positions, arity_new)
        n_free = table.shape[1]
        return Automaton(arity_new, self.dmax, *csr_from_edges(
            self.n_states, np.repeat(edge_sources(self.indptr), n_free),
            table[self.letters].reshape(-1), np.repeat(self.targets, n_free)),
            self.accepting, self.initial, self.outputs)

    def permute_tracks(self, perm) -> "Automaton":
        """Reorder tracks: old track i becomes track perm[i].

        The letters are relabelled and the machine canonicalised again."""
        perm = list(perm)
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of the tracks")
        table = _track_table(self.arity, self.dmax, tuple(perm), self.arity)[:, 0]
        return Automaton(self.arity, self.dmax, *csr_from_edges(
            self.n_states, edge_sources(self.indptr), table[self.letters],
            self.targets), self.accepting, self.initial, self.outputs)._canonical()

    def pad_normalized(self) -> "Automaton":
        """Smallest padding-closed language with the same stripped words
        (``pad_closed``).  The linear atom builder
        (``relations._linear_machine``, which builds only the words of one
        length residue) calls it.
        """
        return pad_closed(self.arity, self.dmax, self.n_states,
                          edge_sources(self.indptr), self.letters, self.targets,
                          self.accepting, self.initial)

    # -- running words -------------------------------------------------------

    def successors(self) -> list[int]:
        """The dense successor table (class docstring), built on first use."""
        if self._delta is None:
            nl = nletters(self.arity, self.dmax)
            n = self.n_states
            table = np.full((n + 1) * nl, n, np.int64)
            table[edge_sources(self.indptr) * nl + self.letters] = self.targets
            self._delta = table.tolist()
        return self._delta

    def walk(self, word) -> int:
        """Final state after reading letter codes (a tuple, list or array),
        or -1 on a dead end."""
        if isinstance(word, np.ndarray):
            word = word.tolist()
        s = K.walk(self.successors(), nletters(self.arity, self.dmax),
                   self.initial, word)
        return -1 if s == self.n_states else s

    def accepts_word(self, word) -> bool:
        s = self.walk(word)
        return s >= 0 and bool(self.accepting[s])

    def accepts_values(self, values, system) -> bool:
        """Encode a tuple of naturals in the given numeration system and run
        (``run_values``)."""
        state = self.run_values(values, system)
        return state >= 0 and bool(self.accepting[state])

    def run_values(self, values, system) -> int:
        """Final state after reading `values`, one per track, encoded in
        `system` and padded with leading zeros to one length; -1 on a dead
        end.  Each block steps through ``_walks`` (class docstring)."""
        if len(values) != self.arity:
            raise ValueError("wrong number of values")
        if self.arity == 0:
            return self.walk([])
        delta, nl, sink = self.successors(), nletters(self.arity, self.dmax), self.n_states
        if self._walks is None:
            self._walks = {}
        walks, state = self._walks, self.initial
        for block in self._value_blocks(values, system):
            if state == sink:
                break
            try:
                state = walks[block][state]
            except KeyError:
                state = walks.setdefault(block, {}).setdefault(
                    state, K.walk(delta, nl, state, self._block_codes(block)))
        return -1 if state == sink else state

    def _value_blocks(self, values, system, pad=0):
        """The blocks (table, k_1..k_arity) of `values` encoded in
        `system`, one track each, top block first, over the longest
        value's digits and `pad` leading zeros more, the top table cut to
        them (``NumerationSystem.block_tables``).  A digit above the
        machine's dmax raises, naming the first such digit of the first
        track that holds one."""
        reads = [system.greedy_blocks(v) for v in values]
        if system.dmax > self.dmax:
            for length, ks in reads:
                digits = system.block_digits(length, ks)
                if max(digits) > self.dmax:
                    letter_code(digits, self.dmax)  # raises, naming the digit
        tables = system.block_tables(pad + max(length for length, _ in reads))
        return list(zip(tables, *([0] * (len(tables) - len(ks)) + ks
                                  for _, ks in reads)))

    def _block_codes(self, block):
        """Letter codes of the block (t, k_1..k_arity): track j reads
        pattern k_j of table t."""
        table, base = block[0], self.dmax + 1
        codes = table[block[1]]
        for k in block[2:]:
            codes = [c * base + d for c, d in zip(codes, table[k])]
        return codes

    # -- enumeration -----------------------------------------------------------

    def is_value_finite(self) -> bool:
        """Finitely many accepted value tuples?  Leading all-zero letters
        only pad, so the search leaves the initial state on other letters;
        the machine is trimmed, so any cycle it then reaches pumps values."""
        color = np.zeros(self.n_states, np.uint8)  # 0 new, 1 on stack, 2 done
        stack = [(self.initial, 0)]
        while stack:
            state, ei = stack[-1]
            if ei == 0:
                color[state] = 1
            e = self.indptr[state] + ei
            if e < self.indptr[state + 1]:
                stack[-1] = (state, ei + 1)
                if state == self.initial and self.letters[e] == 0:
                    continue
                t = self.targets[e]
                if color[t] == 1:
                    return False
                if color[t] == 0:
                    stack.append((int(t), 0))
            else:
                color[state] = 2
                stack.pop()
        return True

    def enumerate_values(self, system, count: int):
        """First `count` accepted value tuples, by representation length,
        then numerically.

        The representation length of a tuple is that of its stripped word
        (the padded canonical word without its all-zero leading letters), so
        the words whose first letter is not all zeros are walked one length
        at a time and each length is sorted; ``enum k`` is then a prefix of
        ``enum k+1``.  On one track this is numeric order, since a stripped
        canonical word of length L has a value in [q_{L-1}, q_L).  The walk
        goes on until `count` tuples are found or no word is left to extend,
        so on an infinite language it always finds `count`.
        """
        tuples = []
        if self.accepting[self.initial]:
            tuples.append(tuple([0] * self.arity))
        frontier = [((), self.initial)]
        while len(tuples) < count and frontier:
            level = []
            nxt = []
            for word, state in frontier:
                for e in range(self.indptr[state], self.indptr[state + 1]):
                    if not word and self.letters[e] == 0:
                        continue
                    w = word + (int(self.letters[e]),)
                    t = int(self.targets[e])
                    if self.accepting[t]:
                        level.append(self._decode_word(w, system))
                    nxt.append((w, t))
            tuples += sorted(level)
            frontier = nxt
        return tuples[:count]

    def _decode_word(self, word, system):
        rows = [[] for _ in range(self.arity)]
        for code in word:
            ds = letter_digits(code, self.arity, self.dmax)
            for j in range(self.arity):
                rows[j].append(ds[j])
        return tuple(system.decode(r) if r else 0 for r in rows)

    def function_value(self, system, n: int) -> int:
        """For a 2-track synchronized relation: the unique z with (n, z) accepted.

        Both tracks are read over len(encode(n)) + n_states positions, n's
        track padded with leading zeros.  That is wide enough when both
        tracks hold canonical representations: if z's were longer than n's
        by more than n_states - 1 digits, the run over the positions where
        n's track is still padding would visit some state twice, and
        pumping that loop would give a second accepted z with more digits,
        so the relation would not be functional.  A margin fixed by the
        system is not enough: floor(n phi^4) over msd_fib needs up to 4
        digits more than n, where the period length plus 2 is 3.

        B_i, the states from which some z completes n's padded digits
        d_i .. d_{L-1} to acceptance, depends on (B_{i+1}, d_i) alone: B_L
        is the accepting set, and s is in B_i iff delta(s, (d_i, dz)) is in
        B_{i+1} for some dz.  A backward pass finds each B_i, and a forward
        pass from the initial state takes the one dz into B_{i+1} at each
        position.  The states it visits are reachable on n's prefix, as are
        their successors, so intersecting B with the reachable states would
        change no choice, nor the NoOutput test (initial state not in B_0).
        Both steps are memoised on the automaton (class docstring), per
        block of n's digits.
        """
        if self.arity != 2:
            raise ValueError("function_value needs a 2-track automaton")
        blocks = self._value_blocks((n,), system, self.n_states)
        if self._suffixes is None:
            accepting = frozenset(np.flatnonzero(self.accepting).tolist())
            self._suffixes = ([accepting], {accepting: 0}, {}, {})
        sets, _, steps, picks = self._suffixes
        # backward: the id of B after each block
        b, ends = 0, []
        for block in reversed(blocks):
            ends.append(b)
            try:
                b = steps[block][b]
            except KeyError:
                b = self._block_step(b, block)
        if self.initial not in sets[b]:
            raise NoOutput(f"no output for input {n}")
        # forward: the z digits into each B
        state, zdigits, nstates = self.initial, [], self.n_states
        for block, b in zip(blocks, reversed(ends)):
            try:
                state, zs = picks[block][b * nstates + state]
            except KeyError:
                state, zs = self._block_pick(state, b, block)
            if state < 0:
                raise ValueError(f"relation is not functional at {n}")
            zdigits += zs
        return system.decode(zdigits)

    def _step(self, b: int, d: int) -> int:
        """Id of B_i, from the id b of B_{i+1} and n's digit d_i."""
        sets, ids, steps, _ = self._suffixes
        row = steps.setdefault(d, {})
        before = row.get(b)
        if before is None:
            delta, base, live = self.successors(), self.dmax + 1, sets[b]
            found = frozenset(s for s in range(self.n_states) if not live.isdisjoint(
                delta[(s * base + d) * base:(s * base + d + 1) * base]))
            before = row[b] = ids.setdefault(found, len(sets))
            if before == len(sets):
                sets.append(found)
        return before

    def _block_step(self, b: int, block) -> int:
        """Id of B before the block (t, k) of n's digits, from the id b of
        B after it: the digit steps from the block's lsd up."""
        before = b
        for d in reversed(block[0][block[1]]):
            before = self._step(before, d)
        self._suffixes[2].setdefault(block, {})[b] = before
        return before

    def _pick(self, state: int, b: int, d: int) -> int:
        """The one dz that takes `state` on (d, dz) into the set with id b,
        -1 if more than one does."""
        sets, _, _, picks = self._suffixes
        row = picks.setdefault(d, {})
        key = b * self.n_states + state
        dz = row.get(key)
        if dz is None:
            delta, base = self.successors(), self.dmax + 1
            at = (state * base + d) * base
            choices = [c for c in range(base) if delta[at + c] in sets[b]]
            dz = row[key] = choices[0] if len(choices) == 1 else -1
        return dz

    def _block_pick(self, state: int, b: int, block) -> tuple:
        """(state', z digits) after the block (t, k) of n's digits read from
        `state` into the set with id b, each z digit the one ``_pick``
        gives; (-1, ()) where one is not unique."""
        key = b * self.n_states + state
        pattern = block[0][block[1]]
        ends = [b]  # the id of B after each digit, lsd first
        for d in reversed(pattern[1:]):
            ends.append(self._step(ends[-1], d))
        delta, base, zs = self.successors(), self.dmax + 1, []
        for d, after in zip(pattern, reversed(ends)):
            dz = self._pick(state, after, d)
            if dz < 0:
                state, zs = -1, []
                break
            zs.append(dz)
            state = delta[(state * base + d) * base + dz]
        got = state, tuple(zs)
        self._suffixes[3].setdefault(block, {})[key] = got
        return got

    def output_equals(self, value: int) -> "Automaton":
        """Acceptor for the words this word automaton maps to the value."""
        if self.outputs is None:
            raise ValueError("not a word automaton (no outputs)")
        acc = (self.outputs == value).astype(np.uint8)
        return Automaton(self.arity, self.dmax, self.indptr, self.letters,
                         self.targets, acc, self.initial)._canonical()

    # -- serialization -----------------------------------------------------------

    def to_text(self, system_name: str) -> str:
        lines = [f"system {system_name} arity {self.arity} dmax {self.dmax}",
                 f"states {self.n_states} initial {self.initial}",
                 "accepting " + " ".join(map(str, np.flatnonzero(self.accepting).tolist()))]
        if self.outputs is not None:
            lines.append("outputs " + " ".join(
                f"{i}:{v}" for i, v in enumerate(self.outputs.tolist())))
        lines.append(f"transitions {self.transition_count}")
        # one label per distinct letter, the edges read as lists
        letters = self.letters.tolist()
        labels = {c: "[" + ",".join(map(str, letter_digits(c, self.arity, self.dmax))) + "]"
                  for c in set(letters)}
        lines += [f"{s} {labels[c]} {t}" for s, c, t in
                  zip(edge_sources(self.indptr).tolist(), letters, self.targets.tolist())]
        return "\n".join(lines).rstrip() + "\n"

    @staticmethod
    def from_text(text: str) -> tuple[str, "Automaton"]:
        """Parse ``to_text`` output; ValueError if the text is cut short, has a
        short header line, holds another number of transitions than it
        declares or a state id out of range."""
        lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
        if len(lines) < 4:
            raise ValueError("truncated automaton text: no transition header")
        head, st = lines[0].split(), lines[1].split()
        if head[0] != "system":
            raise ValueError("missing system header")
        if len(head) < 6 or len(st) < 4:
            raise ValueError("short system or states line")
        system_name, arity, dmax = head[1], int(head[3]), int(head[5])
        n, initial = int(st[1]), int(st[3])
        accepting = [int(x) for x in lines[2].split()[1:]]
        idx = 3
        outputs = None
        if lines[idx].startswith("outputs"):
            outputs = np.zeros(n, np.int32)
            for item in lines[idx].split()[1:]:
                i, v = item.split(":")
                if not 0 <= int(i) < n:
                    raise ValueError(f"output for state {i} of {n}")
                outputs[int(i)] = int(v)
            idx += 1
        declared = lines[idx].split() if idx < len(lines) else []
        if len(declared) < 2:
            raise ValueError("truncated automaton text: no transition header")
        m = int(declared[1])
        idx += 1
        if len(lines) - idx != m:
            raise ValueError(f"{m} transitions declared, {len(lines) - idx} given")
        triples = []
        for ln in lines[idx:]:
            src, letter, dst = ln.split()
            digits = [int(x) for x in letter[1:-1].split(",")] if letter != "[]" else []
            if len(digits) != arity:
                raise ValueError(f"letter {letter} on {arity} tracks")
            triples.append((int(src), letter_code(digits, dmax), int(dst)))
        ids = [initial, *accepting, *(t for tr in triples for t in (tr[0], tr[2]))]
        if n < 1 or not all(0 <= s < n for s in ids):
            raise ValueError(f"state id out of range for {n} states")
        # a stored machine is canonical: it is loaded verbatim
        acc = np.zeros(n, np.uint8)
        acc[accepting] = 1
        return system_name, Automaton(arity, dmax, *csr_from_edges(
            n, *np.array(triples, np.int64).reshape(-1, 3).T),
            acc, initial, outputs)

    def canonical_bytes(self) -> bytes:
        return self.to_text("_").encode()

    def sha(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_dot(self, name: str = "aut") -> str:
        lines = [f'digraph "{name}" {{', "  rankdir=LR;",
                 '  __start [shape=point, label=""];']
        for s in range(self.n_states):
            shape = "doublecircle" if self.accepting[s] else "circle"
            label = str(s)
            if self.outputs is not None:
                label = f"{s}/{int(self.outputs[s])}"
            lines.append(f'  {s} [shape={shape}, label="{label}"];')
        lines.append(f"  __start -> {self.initial};")
        # group parallel edges into one arrow per state pair
        grouped: dict[tuple[int, int], list[str]] = {}
        for s in range(self.n_states):
            for e in range(self.indptr[s], self.indptr[s + 1]):
                digits = letter_digits(int(self.letters[e]), self.arity, self.dmax)
                grouped.setdefault((s, int(self.targets[e])), []).append(
                    ",".join(str(d) for d in digits) if digits else "e")
        for (s, t), labels in sorted(grouped.items()):
            lines.append(f'  {s} -> {t} [label="{" | ".join(labels)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        kind = "word automaton" if self.outputs is not None else "automaton"
        return (f"<{kind} arity={self.arity} dmax={self.dmax} "
                f"states={self.live_states} transitions={self.transition_count}>")


class _Raw(Automaton):
    """A machine as one of the three rows producers returns it, before
    ``_canonical``: a product (``K.pair_product``), a subset construction
    (``K.determinize``) or a linear atom's raw piece
    (``relations._linear_piece``).  It holds the rows and target rows of
    its states, under the invariant the ``_kernels`` docstring gives,
    their offsets ``indptr`` and ``accepting``.  It has no letter or
    target arrays, so nothing but ``_canonical`` reads it.  Every other
    machine (``from_transitions``, ``permute_tracks``, word automata)
    takes the array entry, ``K.canonical``."""

    __slots__ = ("rows", "succ")

    def __init__(self, arity, dmax, indptr, rows, succ, accepting):
        self.arity, self.dmax, self.initial, self.outputs = arity, dmax, 0, None
        self.indptr, self.rows, self.succ, self.accepting = indptr, rows, succ, accepting
