"""Synchronized automata over tuples of digit strings.

A k-track automaton reads words whose letters are k-tuples of digits in
0..dmax, packed into a single integer code with track 0 most significant:
code = sum d_j * (dmax+1)**(k-1-j). Tracks are padded with leading zeros
to a common length, and every language handled here is padding closed
(w is accepted iff 0w is), so the padding length never matters.

Storage is CSR: indptr / letters / targets sorted by (state, letter),
one initial state, an accepting mask and optionally a per-state output
(for word automata built with combine). All public operations return
canonical machines: trimmed, minimized and BFS renumbered, so equal
languages give byte-identical arrays. The empty language is stored as a
single dead state and reports live_states == 0.
"""
from __future__ import annotations

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


def project_letter_map(arity: int, dmax: int, drop: int) -> np.ndarray:
    """Old letter code -> code with track `drop` removed."""
    if not 0 <= drop < arity:
        raise ValueError("track index out of range")
    n = nletters(arity, dmax)
    out = np.empty(n, np.int32)
    for code in range(n):
        digits = letter_digits(code, arity, dmax)
        out[code] = letter_code(digits[:drop] + digits[drop + 1:], dmax)
    return out


def lift_codes(arity_old: int, dmax: int, positions, arity_new: int) -> np.ndarray:
    """Matrix of letter expansions for embedding tracks into a wider tuple.

    positions[i] is the new index of old track i (strictly increasing).
    Row `code` lists every new-alphabet code whose mapped tracks spell out
    `code`; free tracks range over all digits.
    """
    positions = list(positions)
    if sorted(positions) != positions or len(set(positions)) != len(positions):
        raise ValueError("positions must be strictly increasing")
    if len(positions) != arity_old or (positions and positions[-1] >= arity_new):
        raise ValueError("bad track embedding")
    free = [j for j in range(arity_new) if j not in positions]
    base = dmax + 1
    n_old = nletters(arity_old, dmax)
    n_free = base ** len(free)
    out = np.empty((n_old, n_free), np.int32)
    for code in range(n_old):
        old = letter_digits(code, arity_old, dmax)
        for fill in range(n_free):
            digits = [0] * arity_new
            for i, p in enumerate(positions):
                digits[p] = old[i]
            rest = fill
            for j in reversed(free):
                digits[j] = rest % base
                rest //= base
            out[code, fill] = letter_code(digits, dmax)
    return out


_MODES = {"and": 0, "or": 1, "xor": 2, "andnot": 3}


class Automaton:
    """A deterministic automaton in the CSR form the module docstring gives.

    Every read (walks, membership, ``function_value``, word automata)
    goes through one dense successor table, ``successors()``: entry
    ``s * nletters + code`` is the target of state s on letter `code`, and
    a missing edge leads to the sink, state id ``n_states``, whose row
    points back to itself.  It holds (n_states + 1) * (dmax + 1)**arity
    entries, which is small for the machines read here: the packaged
    scripts and the benchmark read machines of at most 2 tracks.  It is
    built from the CSR arrays on the first read and cached, which is safe
    because nothing writes into an automaton's arrays after construction.
    Compile paths never build it.
    """

    __slots__ = ("arity", "dmax", "indptr", "letters", "targets",
                 "accepting", "initial", "outputs", "_delta")

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

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty(arity: int, dmax: int) -> "Automaton":
        return Automaton(arity, dmax, np.zeros(2, np.int64), [], [], [0])

    @staticmethod
    def universal(arity: int, dmax: int) -> "Automaton":
        """Accepts every word, including the empty one."""
        nl = nletters(arity, dmax)
        return Automaton(arity, dmax, np.array([0, nl], np.int64),
                         np.arange(nl, dtype=np.int32), np.zeros(nl, np.int32), [1])

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
        src = np.array([t[0] for t in triples], np.int64)
        letters = np.array([t[1] for t in triples], np.int32)
        targets = np.array([t[2] for t in triples], np.int32)
        indptr = np.zeros(n_states + 1, np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        acc = np.zeros(n_states, np.uint8)
        acc[list(accepting)] = 1
        out = None
        if outputs is not None:
            out = np.asarray(outputs, np.int32)
        return Automaton(arity, dmax, indptr, letters, targets, acc,
                         initial, out)._canonical()

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
        """Trimmed, minimal and BFS numbered: below ``K.SMALL_EDGES`` edges
        by the one list pass ``K.canonical``, from there on by the array
        kernels trim, min_blocks, quotient and bfs_renumber in turn, with
        identical arrays.  A word automaton (one with outputs) is not
        trimmed; its states are refined by outputs * 2 + acc."""
        word = self.outputs is not None
        labels = self.outputs.astype(np.int64) * 2 + self.accepting if word else None
        if self.letters.size < K.SMALL_EDGES:
            indptr, letters, targets, acc, states = K.canonical(
                self.indptr, self.letters, self.targets, self.accepting,
                self.initial, labels)
        else:
            indptr, letters, targets, acc, init = (
                self.indptr, self.letters, self.targets, self.accepting, self.initial)
            if not word:
                indptr, letters, targets, acc, init, alive = K.trim(
                    indptr, letters, targets, acc, init)
                if not alive:
                    return Automaton.empty(self.arity, self.dmax)
                labels = acc.astype(np.int64)
            blocks = K.min_blocks(indptr, letters, targets, labels)
            indptr, letters, targets, acc, init, rep = K.quotient(
                indptr, letters, targets, acc, blocks, int(blocks.max()) + 1, init)
            indptr, letters, targets, acc, order = K.bfs_renumber(
                indptr, letters, targets, acc, init)
            states = rep[order]  # input states when nothing was trimmed
        return Automaton(self.arity, self.dmax, indptr, letters, targets, acc,
                         0, self.outputs[states] if word else None)

    # -- boolean algebra ----------------------------------------------------

    def _check_compatible(self, other: "Automaton") -> None:
        if self.arity != other.arity or self.dmax != other.dmax:
            raise ValueError(
                f"incompatible automata: {self.arity}/{self.dmax} vs "
                f"{other.arity}/{other.dmax}")

    def product(self, other: "Automaton", mode: str) -> "Automaton":
        self._check_compatible(other)
        indptr, letters, targets, acc = K.pair_product(
            self.indptr, self.letters, self.targets, self.accepting, np.int64(self.initial),
            other.indptr, other.letters, other.targets, other.accepting, np.int64(other.initial),
            _MODES[mode])
        return Automaton(self.arity, self.dmax, indptr, letters, targets, acc, 0)._canonical()

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

    def project(self, track: int) -> "Automaton":
        """Existentially quantify one track away.

        The image is closed under stripping leading zeros (initial-state
        zero closure) so the result is padding closed again.
        """
        lmap = project_letter_map(self.arity, self.dmax, track)
        inits = np.array([self.initial], np.int64)
        indptr, letters, targets, acc = K.determinize(
            self.indptr, self.letters, self.targets, self.accepting,
            inits, lmap, True)
        return Automaton(self.arity - 1, self.dmax, indptr, letters, targets,
                         acc, 0)._canonical()

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
        src = np.repeat(np.arange(self.n_states, dtype=np.int64),
                        np.diff(self.indptr))
        new_src = np.repeat(src, n_free)
        new_letters = table[self.letters].reshape(-1)
        new_targets = np.repeat(self.targets, n_free)
        order = np.lexsort((new_letters, new_src))
        new_src = new_src[order]
        new_letters = new_letters[order]
        new_targets = new_targets[order]
        indptr = np.zeros(self.n_states + 1, np.int64)
        np.add.at(indptr, new_src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return Automaton(arity_new, self.dmax, indptr, new_letters.astype(np.int32),
                         new_targets.astype(np.int32), self.accepting,
                         self.initial, self.outputs)

    def permute_tracks(self, perm) -> "Automaton":
        """Reorder tracks: old track i becomes track perm[i].

        A bijection on letters keeps a canonical machine trim and minimal,
        so it needs only BFS renumbering."""
        perm = list(perm)
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of the tracks")
        n = nletters(self.arity, self.dmax)
        table = np.empty(n, np.int32)
        for code in range(n):
            digits = letter_digits(code, self.arity, self.dmax)
            moved = [0] * self.arity
            for i, p in enumerate(perm):
                moved[p] = digits[i]
            table[code] = letter_code(moved, self.dmax)
        src = np.repeat(np.arange(self.n_states, dtype=np.int64),
                        np.diff(self.indptr))
        new_letters = table[self.letters]
        rows = np.lexsort((new_letters, src))
        indptr, letters, targets, acc, order = K.bfs_renumber(
            self.indptr, new_letters[rows], self.targets[rows], self.accepting,
            np.int64(self.initial))
        outputs = None if self.outputs is None else self.outputs[order]
        return Automaton(self.arity, self.dmax, indptr, letters, targets, acc,
                         0, outputs)

    def reverse_determinized(self) -> "Automaton":
        """Minimal DFA of the reversed language."""
        n = self.n_states
        src = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.indptr))
        order = np.argsort(self.targets, kind="stable")
        rev_indptr = np.zeros(n + 1, np.int64)
        rev_indptr[1:] = np.cumsum(np.bincount(self.targets, minlength=n))
        rev_letters = self.letters[order]
        rev_targets = src[order]
        acc_rev = np.zeros(n, np.uint8)
        acc_rev[self.initial] = 1
        inits = np.where(self.accepting)[0].astype(np.int64)
        if inits.size == 0:
            return Automaton.empty(self.arity, self.dmax)
        identity = np.arange(nletters(self.arity, self.dmax), dtype=np.int32)
        indptr, letters, targets, acc = K.determinize(
            rev_indptr, rev_letters, rev_targets, acc_rev, inits, identity, False)
        return Automaton(self.arity, self.dmax, indptr, letters, targets, acc, 0)._canonical()

    def pad_normalized(self) -> "Automaton":
        """Smallest padding-closed language with the same stripped words.

        Equals {u : strip(u) = strip(w) for some accepted w}; built as
        0* . L with leading-zero closure folded in.
        """
        n = self.n_states
        q0row = slice(self.indptr[self.initial], self.indptr[self.initial + 1])
        extra_letters = np.concatenate([self.letters[q0row], [np.int32(0)]])
        extra_targets = np.concatenate([self.targets[q0row], [np.int32(n)]])
        indptr = np.concatenate([self.indptr,
                                 [self.indptr[-1] + extra_letters.size]]).astype(np.int64)
        letters = np.concatenate([self.letters, extra_letters]).astype(np.int32)
        targets = np.concatenate([self.targets, extra_targets]).astype(np.int32)
        acc = np.concatenate([self.accepting, [self.accepting[self.initial]]]).astype(np.uint8)
        identity = np.arange(nletters(self.arity, self.dmax), dtype=np.int32)
        inits = np.array([n], np.int64)
        indptr, letters, targets, acc = K.determinize(
            indptr, letters, targets, acc, inits, identity, True)
        return Automaton(self.arity, self.dmax, indptr, letters, targets, acc, 0)._canonical()

    # -- running words -------------------------------------------------------

    def successors(self) -> list[int]:
        """The dense successor table (class docstring), built on first use."""
        if self._delta is None:
            nl = nletters(self.arity, self.dmax)
            n = self.n_states
            table = np.full((n + 1) * nl, n, np.int64)
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
            table[src * nl + self.letters] = self.targets
            self._delta = table.tolist()
        return self._delta

    def walk(self, word) -> int:
        """Final state after reading letter codes, or -1 on a dead end."""
        word = word.tolist() if isinstance(word, np.ndarray) else list(word)
        s = K.walk(self.successors(), nletters(self.arity, self.dmax),
                   self.initial, word)
        return -1 if s == self.n_states else s

    def accepts_word(self, word) -> bool:
        s = self.walk(word)
        return s >= 0 and bool(self.accepting[s])

    def accepts_digit_rows(self, rows) -> bool:
        """rows: one digit sequence per track, already equal length."""
        if len(rows) != self.arity:
            raise ValueError("wrong number of tracks")
        if self.arity == 0:
            return self.accepts_word([])
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("tracks must have equal length")
        for row in rows:
            if width and (min(row) < 0 or max(row) > self.dmax):
                letter_code(row, self.dmax)  # raises, naming the digit
        base = self.dmax + 1
        word = list(rows[0])
        for row in rows[1:]:
            word = [code * base + d for code, d in zip(word, row)]
        return self.accepts_word(word)

    def accepts_values(self, values, system) -> bool:
        """Encode a tuple of naturals in the given numeration system and run."""
        if len(values) != self.arity:
            raise ValueError("wrong number of values")
        if self.arity == 0:
            return self.accepts_word([])
        encs = [system.encode(v) for v in values]
        padded = system.pad_parallel(*encs)
        return self.accepts_digit_rows([p.digits for p in padded])

    # -- enumeration -----------------------------------------------------------

    def _stripped(self) -> "Automaton":
        """Accepted words that do not start with the all-zero letter."""
        nl = nletters(self.arity, self.dmax)
        if nl == 1:
            # 0 tracks: the stripped language is {empty word} or nothing
            if self.is_empty():
                return Automaton.empty(self.arity, self.dmax)
            return Automaton.from_transitions(0, self.dmax, 1, 0, [0], [])
        trans = [(0, code, 1) for code in range(1, nl)]
        trans += [(1, code, 1) for code in range(nl)]
        guard = Automaton.from_transitions(self.arity, self.dmax, 2, 0, [0, 1], trans)
        return self.intersect(guard)

    def is_value_finite(self) -> bool:
        """Finitely many accepted value tuples? (Checks the stripped language.)"""
        s = self._stripped()
        if s.is_empty():
            return True
        # canonical form is trimmed, so any cycle pumps an accepted word
        n = s.n_states
        color = np.zeros(n, np.uint8)  # 0 new, 1 on stack, 2 done
        stack = [(s.initial, 0)]
        while stack:
            state, ei = stack[-1]
            if ei == 0:
                color[state] = 1
            row = range(s.indptr[state], s.indptr[state + 1])
            if ei < len(row):
                stack[-1] = (state, ei + 1)
                t = s.targets[s.indptr[state] + ei]
                if color[t] == 1:
                    return False
                if color[t] == 0:
                    stack.append((int(t), 0))
            else:
                color[state] = 2
                stack.pop()
        return True

    def enumerate_words(self, count: int, max_len: int = 64):
        """Stripped accepted words in (length, lexicographic) order."""
        out = []
        s = self._stripped()
        if s.accepting[s.initial] and not s.is_empty():
            out.append(())
        frontier = [((), s.initial)]
        for _ in range(max_len):
            if len(out) >= count or not frontier:
                break
            nxt = []
            for word, state in frontier:
                for e in range(s.indptr[state], s.indptr[state + 1]):
                    w = word + (int(s.letters[e]),)
                    t = int(s.targets[e])
                    if s.accepting[t]:
                        out.append(w)
                    nxt.append((w, t))
            frontier = nxt
        return out[:count]

    def enumerate_values(self, system, count: int, max_len: int = 64):
        """First `count` accepted value tuples, sorted numerically.

        Levels are explored by word length until enough tuples are found,
        plus two safety levels, so the numeric sort is stable in practice.
        """
        s = self._stripped()
        tuples = []
        if s.accepting[s.initial] and not s.is_empty():
            tuples.append(tuple([0] * self.arity))
        frontier = [((), s.initial)]
        extra = 2
        for _ in range(max_len):
            if not frontier:
                break
            if len(tuples) >= count:
                extra -= 1
                if extra < 0:
                    break
            nxt = []
            for word, state in frontier:
                for e in range(s.indptr[state], s.indptr[state + 1]):
                    w = word + (int(s.letters[e]),)
                    t = int(s.targets[e])
                    if s.accepting[t]:
                        tuples.append(self._decode_word(w, system))
                    nxt.append((w, t))
            frontier = nxt
        tuples.sort()
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

        A forward pass collects the states reachable on the n-track prefix,
        a backward pass keeps those from which acceptance remains, and a
        last forward pass picks the one viable z digit at each position.
        """
        if self.arity != 2:
            raise ValueError("function_value needs a 2-track automaton")
        enc = system.encode(n).digits
        if max(enc) > self.dmax:
            letter_code(enc, self.dmax)  # raises, naming the digit
        sink = self.n_states
        base = self.dmax + 1
        nl = base * base
        delta = self.successors()
        zs = range(base)
        offsets = [0] * sink + [d * base for d in enc]
        # the successors of s on n-digit d are delta[s*nl + d*base :][:base]
        reach = [{self.initial}]
        for off in offsets:
            nxt = set()
            for s in reach[-1]:
                nxt.update(delta[s * nl + off:s * nl + off + base])
            nxt.discard(sink)
            reach.append(nxt)
        live = {s for s in reach[-1] if self.accepting[s]}
        alive = [live]
        for i in range(len(offsets) - 1, -1, -1):
            off = offsets[i]
            live = {s for s in reach[i] if not live.isdisjoint(
                delta[s * nl + off:s * nl + off + base])}
            alive.append(live)
        alive.reverse()
        if self.initial not in alive[0]:
            raise NoOutput(f"no output for input {n}")
        state = self.initial
        zdigits = []
        for off, live in zip(offsets, alive[1:]):
            row = state * nl + off
            choices = [dz for dz in zs if delta[row + dz] in live]
            if len(choices) != 1:
                raise ValueError(f"relation is not functional at {n}")
            zdigits.append(choices[0])
            state = delta[row + choices[0]]
        return system.decode(zdigits)

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
                 "accepting " + " ".join(str(i) for i in np.where(self.accepting)[0])]
        if self.outputs is not None:
            lines.append("outputs " + " ".join(
                f"{i}:{int(v)}" for i, v in enumerate(self.outputs)))
        lines.append(f"transitions {self.transition_count}")
        for s in range(self.n_states):
            for e in range(self.indptr[s], self.indptr[s + 1]):
                digits = letter_digits(int(self.letters[e]), self.arity, self.dmax)
                lines.append(f"{s} [{','.join(str(d) for d in digits)}] {int(self.targets[e])}")
        return "\n".join(lines).rstrip() + "\n"

    @staticmethod
    def from_text(text: str) -> tuple[str, "Automaton"]:
        """Parse ``to_text`` output; ValueError if the text is cut short, holds
        another number of transitions than it declares or a state id out of range."""
        lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
        if len(lines) < 4:
            raise ValueError("truncated automaton text: no transition header")
        head = lines[0].split()
        if head[0] != "system":
            raise ValueError("missing system header")
        system_name, arity, dmax = head[1], int(head[3]), int(head[5])
        st = lines[1].split()
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
        m = int(lines[idx].split()[1])
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
        aut = Automaton._from_sorted_triples(arity, dmax, n, initial, accepting,
                                             triples, outputs)
        return system_name, aut

    @staticmethod
    def _from_sorted_triples(arity, dmax, n, initial, accepting, triples, outputs):
        # loads stored canonical machines verbatim (no re-canonicalization)
        src = np.array([t[0] for t in triples], np.int64)
        letters = np.array([t[1] for t in triples], np.int32)
        targets = np.array([t[2] for t in triples], np.int32)
        order = np.lexsort((letters, src))
        indptr = np.zeros(n + 1, np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        acc = np.zeros(n, np.uint8)
        if accepting:
            acc[accepting] = 1
        return Automaton(arity, dmax, indptr, letters[order], targets[order],
                         acc, initial, outputs)

    def canonical_bytes(self) -> bytes:
        return self.to_text("_").encode()

    def sha(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def equivalent(self, other: "Automaton") -> bool:
        self._check_compatible(other)
        return self.canonical_bytes() == other.canonical_bytes()

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
