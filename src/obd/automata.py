"""Synchronized automata over tuples of digit strings.

A k-track automaton reads words whose letters are k-tuples of digits in
0..dmax, packed into a single integer code with track 0 most significant:
code = sum d_j * (dmax+1)**(k-1-j). Tracks are padded with leading zeros
to a common length, and every language handled here is padding closed
(w is accepted iff 0w is), so the padding length never matters.

Storage is per-state rows, the format every kernel reads and writes
(``_kernels`` module docstring): a letter tuple and a target list per
state, one initial state, accepting flags and optionally a per-state
output (for word automata built with combine). Every letter remap
between track layouts (lift, projection, permutation) reads the one
memoised track table ``_track_table``. Every subset construction goes
through the one builder ``determinized``: projection
(``Automaton.project``) and leading-zero closure (``pad_closed``, for
the regex compiler and the linear atoms of period length > 1). All
public operations return canonical machines: trimmed, minimized and BFS
renumbered, so equal languages give byte-identical text. The empty
language is stored as a single dead state and reports live_states == 0.
"""
from __future__ import annotations

import functools
import hashlib
import itertools

from . import _kernels as K
from .numeration import block_sums


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


def _rows_of(n_states: int, triples):
    """Rows and target rows of `n_states` states from (src, code, dst)
    triples, each row sorted by letter; equal rows share one tuple."""
    rows, succ = [[] for _ in range(n_states)], [[] for _ in range(n_states)]
    for s, c, t in sorted(triples):
        rows[s].append(c)
        succ[s].append(t)
    shared: dict = {}
    return [shared.setdefault(row, row) for row in map(tuple, rows)], succ


def _spread(rows, succ, table):
    """Rows and target rows with each letter l replaced by the letters
    table[l], which are disjoint for distinct l, each row sorted.  Each
    distinct row is spread once: a dict from new letter to old position
    gives its new row and the order its targets are read in."""
    spread: dict = {}
    new_rows, new_succ = [], []
    for row, out in zip(rows, succ):
        got = spread.get(row)
        if got is None:
            owner = {c: i for i, letter in enumerate(row) for c in table[letter]}
            new = tuple(sorted(owner))
            got = spread[row] = new, list(map(owner.__getitem__, new))
        new_rows.append(got[0])
        new_succ.append(list(map(out.__getitem__, got[1])))
    return new_rows, new_succ


@functools.cache
def _track_table(arity: int, dmax: int, positions: tuple,
                 arity_new: int) -> tuple:
    """Row `code` lists, in increasing order, every code over `arity_new`
    tracks whose track positions[i] holds digit i of `code`; the other
    tracks range over all digits.  Memoised, so built of tuples."""
    if len(positions) != arity or len(set(positions)) != arity \
            or not all(0 <= p < arity_new for p in positions):
        raise ValueError(f"bad track embedding {list(positions)} into "
                         f"{arity_new} tracks")
    base = dmax + 1
    table = [[] for _ in range(nletters(arity, dmax))]
    # the digit tuples over arity_new tracks, in code order
    for wide, digits in enumerate(itertools.product(range(base), repeat=arity_new)):
        code = 0
        for p in positions:
            code = code * base + digits[p]
        table[code].append(wide)
    return tuple(map(tuple, table))


def project_letter_map(arity: int, dmax: int, drop) -> tuple:
    """Old letter code -> code with the tracks in `drop` removed, as a
    tuple indexed by the old code.  Memoised by its arguments."""
    return _project_table(arity, dmax, frozenset(drop))


@functools.cache
def _project_table(arity: int, dmax: int, drop: frozenset) -> tuple:
    if not all(0 <= t < arity for t in drop):
        raise ValueError("track index out of range")
    keep = tuple(t for t in range(arity) if t not in drop)
    out = [0] * nletters(arity, dmax)
    for code, wide in enumerate(_track_table(len(keep), dmax, keep, arity)):
        for c in wide:
            out[c] = code
    return tuple(out)


def lift_codes(arity_old: int, dmax: int, positions, arity_new: int) -> tuple:
    """Letter expansions for embedding tracks into a wider tuple, as a
    tuple of tuples.

    positions[i] is the new index of old track i (strictly increasing).
    Row `code` lists every new-alphabet code whose mapped tracks spell out
    `code`; free tracks range over all digits.  Memoised by its arguments.
    """
    positions = tuple(positions)
    if sorted(set(positions)) != list(positions):
        raise ValueError("positions must be strictly increasing")
    return _track_table(arity_old, dmax, positions, arity_new)


def determinized(arity, dmax, rows, succ, acc, inits, letter_map) -> "Automaton":
    """Canonical DFA of a machine given as rows with any number of edges
    per (state, letter), started in the set `inits` closed under mapped
    zero letters, so leading zeros can be dropped; its letters are read
    through `letter_map` (old code -> code over `arity` tracks)."""
    return Automaton(arity, dmax, *K.determinize(
        rows, succ, acc, inits, letter_map)[1:])._canonical()


def pad_closed(arity, dmax, rows, succ, acc, initial) -> "Automaton":
    """Smallest padding-closed language with the same stripped words as the
    machine of rows and target rows `rows` and `succ` (any order, any
    number of edges per (state, letter)) started in `initial`:
    {u : strip(u) = strip(w) for some accepted w}, built as 0* . L with
    leading-zero closure folded in, in one subset construction.  Its
    callers are ``regexlang``'s position automaton and
    ``relations._linear_machine``, which closes a linear atom's raw
    phase-0 piece with it."""
    # a fresh state n reads a zero letter to itself, then the initial row
    n = len(succ)
    return determinized(arity, dmax, [*rows, (0, *rows[initial])],
                        [*succ, [n, *succ[initial]]], [*acc, acc[initial]], [n],
                        range(nletters(arity, dmax)))


_MODES = {"and": 0, "or": 1, "xor": 2, "andnot": 3}


class Automaton:
    """A deterministic automaton as per-state rows (module docstring):
    ``rows[s]`` is the strictly increasing tuple of state s's letters,
    shared by the states with equal rows, ``succ[s]`` the list of their
    targets, ``accepting[s]`` 1 or 0, and ``outputs[s]`` (word automata
    only) an int.  The lists are never written after construction.

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
    functional) for a digit, and for a block (state', C, D), where C and
    D are the sums of the block's z digits over t's coefficient row
    (``numeration.block_sums``), or (-1, 0, 0) where not functional.  A
    miss is filled by the per-letter steps, so every read sees the
    letters it would read digit by digit.
    ``_walks`` holds at most one entry per state and block, so at most
    states x tables x patterns**arity over the tables the machine has
    been read through, a system's cut tables among them (at most w - 1
    per table); the steps hold one per suffix set and block, the picks
    one per state, suffix set and block.  The memos are built on the
    first read and the table on the first read or ``combine``
    (``session._combine_outputs``), and both are kept, which is safe
    because an automaton's lists are never written after construction.
    """

    __slots__ = ("arity", "dmax", "rows", "succ", "accepting", "initial",
                 "outputs", "_delta", "_walks", "_suffixes")

    def __init__(self, arity, dmax, rows, succ, accepting, initial=0,
                 outputs=None):
        self.arity = int(arity)
        self.dmax = int(dmax)
        self.rows = rows
        self.succ = succ
        self.accepting = accepting
        self.initial = int(initial)
        self.outputs = outputs
        self._delta = None
        self._walks = None
        self._suffixes = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty(arity: int, dmax: int) -> "Automaton":
        return Automaton(arity, dmax, [()], [[]], [0])

    @staticmethod
    def universal(arity: int, dmax: int) -> "Automaton":
        """Accepts every word, including the empty one."""
        nl = nletters(arity, dmax)
        return Automaton(arity, dmax, [tuple(range(nl))], [[0] * nl], [1])

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
        acc = [0] * n_states
        for s in accepting:
            acc[s] = 1
        states, rows, succ = K.trim(*_rows_of(n_states, triples), initial)
        return Automaton(arity, dmax, rows, succ, [acc[s] for s in states], 0,
                         None if outputs is None else [int(outputs[s]) for s in states]
                         )._canonical()

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.accepting)

    @property
    def live_states(self) -> int:
        if self.n_states == 1 and not self.accepting[0] and not self.rows[0] \
                and self.outputs is None:
            return 0
        return self.n_states

    @property
    def transition_count(self) -> int:
        return sum(map(len, self.rows))

    def is_empty(self) -> bool:
        return not any(self.accepting)

    def decide(self) -> bool:
        """Language nonempty? (Sentences compile to 0-track automata.)"""
        return not self.is_empty()

    def validate(self) -> None:
        nl = nletters(self.arity, self.dmax)
        n = self.n_states
        assert len(self.rows) == len(self.succ) == n
        assert 0 <= self.initial < n
        for s, (row, out) in enumerate(zip(self.rows, self.succ)):
            assert isinstance(row, tuple) and len(row) == len(out)
            assert all(x < y for x, y in zip(row, row[1:])), \
                f"row {s} not strictly letter-sorted"
            assert not row or (row[0] >= 0 and row[-1] < nl)
            assert all(0 <= t < n for t in out)
        if self.outputs is not None:
            assert len(self.outputs) == n

    # -- canonical form ----------------------------------------------------

    def _canonical(self) -> "Automaton":
        """Trimmed, minimal and BFS numbered, by ``K.canonical``, which
        takes this machine's lists over: every state must be reachable
        from its initial state 0, each row letter sorted.  A word
        automaton (one with outputs) is not trimmed; its states are
        refined by outputs * 2 + acc."""
        word = self.outputs is not None
        labels = [v * 2 + f for v, f in zip(self.outputs, self.accepting)] if word else None
        rows, succ, acc, states = K.canonical(self.rows, self.succ, self.accepting, labels)
        return Automaton(self.arity, self.dmax, rows, succ, acc, 0,
                         list(map(self.outputs.__getitem__, states)) if word else None)

    # -- boolean algebra ----------------------------------------------------

    def _check_compatible(self, other: "Automaton") -> None:
        if self.arity != other.arity or self.dmax != other.dmax:
            raise ValueError(
                f"incompatible automata: {self.arity}/{self.dmax} vs "
                f"{other.arity}/{other.dmax}")

    def product(self, other: "Automaton", mode: str) -> "Automaton":
        """Canonical product in `mode` ("and", "or", "xor", "andnot").
        ``K.pair_product`` returns the reachable pairs as rows numbered
        from state 0, which ``_canonical`` takes as they are."""
        self._check_compatible(other)
        return Automaton(self.arity, self.dmax, *K.pair_product(
            self.rows, self.succ, self.accepting, self.initial,
            other.rows, other.succ, other.accepting, other.initial,
            _MODES[mode])[1:])._canonical()

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
            self.arity - len(tracks), self.dmax, self.rows, self.succ,
            self.accepting, [self.initial],
            project_letter_map(self.arity, self.dmax, tracks))

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
        return Automaton(arity_new, self.dmax, *_spread(self.rows, self.succ, table),
                         self.accepting, self.initial, self.outputs)

    def permute_tracks(self, perm) -> "Automaton":
        """Reorder tracks: old track i becomes track perm[i].

        The letters are relabelled, which reorders the rows, so the
        machine is trimmed and canonicalised again."""
        perm = list(perm)
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of the tracks")
        table = _track_table(self.arity, self.dmax, tuple(perm), self.arity)
        states, rows, succ = K.trim(*_spread(self.rows, self.succ, table), self.initial)
        return Automaton(self.arity, self.dmax, rows, succ,
                         list(map(self.accepting.__getitem__, states)), 0,
                         None if self.outputs is None
                         else list(map(self.outputs.__getitem__, states)))._canonical()

    # -- running words -------------------------------------------------------

    def successors(self) -> list[int]:
        """The dense successor table (class docstring), built on first use."""
        if self._delta is None:
            nl = nletters(self.arity, self.dmax)
            n = self.n_states
            table = [n] * ((n + 1) * nl)
            for s, (row, out) in enumerate(zip(self.rows, self.succ)):
                at = s * nl
                for c, t in zip(row, out):
                    table[at + c] = t
            self._delta = table
        return self._delta

    def walk(self, word) -> int:
        """Final state after reading letter codes (a tuple or list), or -1
        on a dead end."""
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
        them (``NumerationSystem.block_tables``), as an iterator.  A digit
        above the machine's dmax raises, naming the first such digit of
        the first track that holds one."""
        reads = [system.greedy_blocks(v) for v in values]
        if system.dmax > self.dmax:
            for length, ks in reads:
                digits = system.block_digits(length, ks)
                if max(digits) > self.dmax:
                    letter_code(digits, self.dmax)  # raises, naming the digit
        tables = system.block_tables(pad + max(length for length, _ in reads))
        return zip(tables, *([0] * (len(tables) - len(ks)) + ks
                             for _, ks in reads))

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
        color = [0] * self.n_states  # 0 new, 1 on stack, 2 done
        stack = [(self.initial, 0)]
        while stack:
            state, ei = stack[-1]
            if ei == 0:
                color[state] = 1
            if ei < len(self.rows[state]):
                stack[-1] = (state, ei + 1)
                if state == self.initial and self.rows[state][ei] == 0:
                    continue
                t = self.succ[state][ei]
                if color[t] == 1:
                    return False
                if color[t] == 0:
                    stack.append((t, 0))
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
                for c, t in zip(self.rows[state], self.succ[state]):
                    if not word and c == 0:
                        continue
                    w = word + (c,)
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
        block of n's digits.  A block's pick holds its z digits only as
        their sums (C, D) over the block table's coefficient row
        (``numeration`` module docstring), exact for any digits, canonical
        or not.  z is ``system.block_value`` of the picks, sum C_j q_{jw} +
        D_j q_{jw-1}: its digits are never spelled out or decoded.
        """
        if self.arity != 2:
            raise ValueError("function_value needs a 2-track automaton")
        blocks = list(self._value_blocks((n,), system, self.n_states))
        if self._suffixes is None:
            accepting = frozenset(s for s, f in enumerate(self.accepting) if f)
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
        # forward: the z digits into each B, as coefficient sums
        state, cs, ds, nstates = self.initial, [], [], self.n_states
        for block, b in zip(blocks, reversed(ends)):
            try:
                state, c, d = picks[block][b * nstates + state]
            except KeyError:
                state, c, d = self._block_pick(state, b, block)
            if state < 0:
                raise ValueError(f"relation is not functional at {n}")
            cs.append(c)
            ds.append(d)
        return system.block_value(cs, ds)

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
        """(state', C, D) after the block (t, k) of n's digits read from
        `state` into the set with id b, each z digit the one ``_pick``
        gives and (C, D) their coefficient sums in t's row; (-1, 0, 0)
        where one is not unique."""
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
        got = (state, *block_sums(block[0], zs))
        self._suffixes[3].setdefault(block, {})[key] = got
        return got

    def output_equals(self, value: int) -> "Automaton":
        """Acceptor for the words this word automaton maps to the value.
        A word automaton is canonical, numbered from state 0; ``_canonical``
        renumbers target rows in place, so it gets copies of them."""
        if self.outputs is None:
            raise ValueError("not a word automaton (no outputs)")
        return Automaton(self.arity, self.dmax, self.rows, list(map(list, self.succ)),
                         [int(v == value) for v in self.outputs])._canonical()

    # -- serialization -----------------------------------------------------------

    def to_text(self, system_name: str) -> str:
        lines = [f"system {system_name} arity {self.arity} dmax {self.dmax}",
                 f"states {self.n_states} initial {self.initial}",
                 "accepting " + " ".join(str(s) for s, f in enumerate(self.accepting) if f)]
        if self.outputs is not None:
            lines.append("outputs " + " ".join(
                f"{i}:{v}" for i, v in enumerate(self.outputs)))
        lines.append(f"transitions {self.transition_count}")
        # one label per distinct letter
        labels = {c: "[" + ",".join(map(str, letter_digits(c, self.arity, self.dmax))) + "]"
                  for c in set().union(*set(self.rows))}
        for s, (row, out) in enumerate(zip(self.rows, self.succ)):
            lines += [f"{s} {labels[c]} {t}" for c, t in zip(row, out)]
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
            outputs = [0] * n
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
        acc = [0] * n
        for s in accepting:
            acc[s] = 1
        return system_name, Automaton(arity, dmax, *_rows_of(n, triples), acc,
                                      initial, outputs)

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
                label = f"{s}/{self.outputs[s]}"
            lines.append(f'  {s} [shape={shape}, label="{label}"];')
        lines.append(f"  __start -> {self.initial};")
        # group parallel edges into one arrow per state pair
        grouped: dict[tuple[int, int], list[str]] = {}
        for s, (row, out) in enumerate(zip(self.rows, self.succ)):
            for c, t in zip(row, out):
                digits = letter_digits(c, self.arity, self.dmax)
                grouped.setdefault((s, t), []).append(
                    ",".join(str(d) for d in digits) if digits else "e")
        for (s, t), labels in sorted(grouped.items()):
            lines.append(f'  {s} -> {t} [label="{" | ".join(labels)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        kind = "word automaton" if self.outputs is not None else "automaton"
        return (f"<{kind} arity={self.arity} dmax={self.dmax} "
                f"states={self.live_states} transitions={self.transition_count}>")

