"""Compile track-tuple regular expressions to automata.

Letters are bracketed digit tuples "[d1,...,dk]", one digit per track, or
bare digits when there is a single track.  Juxtaposition concatenates,
'*' is Kleene star, parentheses group, and both '|' and '+' denote union:
the scripts this mirrors write "(0+1)*" for "any digit string", so '+'
is alternation here, never one-or-more.

Compilation is the textbook route: Thompson construction, epsilon
removal, subset construction, minimization.  The result is then closed
under leading zero letters so it can take part in synchronized products.
"""
from __future__ import annotations

import numpy as np

from . import _kernels as K
from .automata import Automaton, csr_from_edges, letter_code, nletters
from .numeration import NumerationSystem

__all__ = ["RegexError", "regex_compile"]


class RegexError(ValueError):
    """Malformed pattern; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Builder:
    """Recursive-descent parser emitting a Thompson NFA as it goes.

    Fragments are (start, accept) state pairs with a single accept state
    and no transitions leaving the accept state.
    """

    def __init__(self, text: str, arity: int, dmax: int):
        self.text = text
        self.pos = 0
        self.arity = arity
        self.dmax = dmax
        self.eps: list[tuple[int, int]] = []
        self.steps: list[tuple[int, int, int]] = []
        self.n_states = 0

    # -- NFA assembly ----------------------------------------------------

    def new_state(self) -> int:
        self.n_states += 1
        return self.n_states - 1

    def frag_epsilon(self):
        s = self.new_state()
        t = self.new_state()
        self.eps.append((s, t))
        return s, t

    def frag_letter(self, code: int):
        s = self.new_state()
        t = self.new_state()
        self.steps.append((s, code, t))
        return s, t

    def frag_concat(self, a, b):
        self.eps.append((a[1], b[0]))
        return a[0], b[1]

    def frag_union(self, a, b):
        s = self.new_state()
        t = self.new_state()
        self.eps += [(s, a[0]), (s, b[0]), (a[1], t), (b[1], t)]
        return s, t

    def frag_star(self, a):
        s = self.new_state()
        t = self.new_state()
        self.eps += [(s, a[0]), (s, t), (a[1], a[0]), (a[1], t)]
        return s, t

    # -- scanning ----------------------------------------------------------

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def scan_number(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise RegexError("expected a digit", start)
        return int(self.text[start:self.pos])

    def check_digit(self, d: int, at: int) -> int:
        if d > self.dmax:
            raise RegexError(f"digit {d} exceeds the alphabet bound {self.dmax}", at)
        return d

    # -- grammar -----------------------------------------------------------

    def parse(self):
        frag = self.parse_alt()
        self.skip_ws()
        if self.pos != len(self.text):
            raise RegexError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return frag

    def parse_alt(self):
        frag = self.parse_concat()
        while self.peek() in ("|", "+"):
            self.pos += 1
            frag = self.frag_union(frag, self.parse_concat())
        return frag

    def parse_concat(self):
        frag = None
        while self.peek() not in ("", ")", "|", "+"):
            piece = self.parse_repeat()
            frag = piece if frag is None else self.frag_concat(frag, piece)
        return frag if frag is not None else self.frag_epsilon()

    def parse_repeat(self):
        frag = self.parse_atom()
        while self.peek() == "*":
            self.pos += 1
            frag = self.frag_star(frag)
        return frag

    def parse_atom(self):
        ch = self.peek()
        at = self.pos
        if ch == "(":
            self.pos += 1
            frag = self.parse_alt()
            if self.peek() != ")":
                raise RegexError("unbalanced parenthesis", at)
            self.pos += 1
            return frag
        if ch == "[":
            self.pos += 1
            digits = [self.check_digit(self.scan_number(), self.pos)]
            while self.peek() == ",":
                self.pos += 1
                self.skip_ws()
                digits.append(self.check_digit(self.scan_number(), self.pos))
            if self.peek() != "]":
                raise RegexError("expected ']'", self.pos)
            self.pos += 1
            if len(digits) != self.arity:
                raise RegexError(
                    f"letter has {len(digits)} tracks, expected {self.arity}", at)
            return self.frag_letter(letter_code(digits, self.dmax))
        if ch.isdigit():
            if self.arity != 1:
                raise RegexError(
                    "bare digits need bracketed tuples when arity > 1", at)
            self.pos += 1
            return self.frag_letter(self.check_digit(int(ch), at))
        if ch == "*":
            raise RegexError("nothing to repeat", at)
        if ch == "":
            raise RegexError("unexpected end of pattern", at)
        raise RegexError(f"unexpected {ch!r}", at)


def _nfa_to_dfa(builder: _Builder, start: int, accept: int,
                arity: int, dmax: int) -> Automaton:
    n = builder.n_states
    closure = [set() for _ in range(n)]
    adj = [[] for _ in range(n)]
    for a, b in builder.eps:
        adj[a].append(b)
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        closure[s] = seen

    triples = set()
    for src, code, dst in builder.steps:
        for s in range(n):
            if src in closure[s]:
                triples.add((s, code, dst))
    acc = np.zeros(n, np.uint8)
    for s in range(n):
        if accept in closure[s]:
            acc[s] = 1

    identity = np.arange(nletters(arity, dmax), dtype=np.int32)
    inits = np.array([start], np.int64)
    d_indptr, d_letters, d_targets, d_acc = K.determinize(*csr_from_edges(
        n, *np.array(sorted(triples), np.int64).reshape(-1, 3).T),
        acc, inits, identity, False)
    return Automaton(arity, dmax, d_indptr, d_letters, d_targets,
                     d_acc, 0)._canonical()


def regex_compile(system: NumerationSystem, arity: int, pattern: str) -> Automaton:
    """Automaton for a pattern over the system's digit alphabet, closed
    under leading zero letters (the convention every relation in the
    library follows)."""
    if arity < 1:
        raise ValueError("regex arity must be at least 1")
    key = ("regex", arity, pattern)
    cached = system._cache.get(key)
    if cached is not None:
        return cached
    builder = _Builder(pattern, arity, system.dmax)
    start, accept = builder.parse()
    out = _nfa_to_dfa(builder, start, accept, arity, system.dmax).pad_normalized()
    system._cache[key] = out
    return out
