"""Compile track-tuple regular expressions to automata.

Letters are bracketed digit tuples "[d1,...,dk]", one digit per track, or
bare digits when there is a single track.  Juxtaposition concatenates,
'*' is Kleene star, parentheses group, and both '|' and '+' denote union:
the scripts this mirrors write "(0+1)*" for "any digit string", so '+'
is alternation here, never one-or-more.

Compilation is Glushkov's position construction: every letter of the
pattern is a state of an NFA without epsilon moves, entered only on that
letter, and state 0 is the start.  That NFA, closed under leading zero
letters so the result can take part in synchronized products, goes
through one subset construction (``automata.pad_closed``), which also
minimizes.
"""
from __future__ import annotations

from .automata import Automaton, letter_code, pad_closed
from .numeration import NumerationSystem

__all__ = ["RegexError", "regex_compile"]


class RegexError(ValueError):
    """Malformed pattern; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Builder:
    """Recursive-descent parser emitting a Glushkov NFA as it goes.

    Position p >= 1 is the p-th letter of the pattern, read by every edge
    into state p.  A fragment is (first, last, nullable): the positions
    that can read its first and its last letter, and whether it matches
    the empty word.  Concatenation and star add follow edges last -> first.
    """

    def __init__(self, text: str, arity: int, dmax: int):
        self.text = text
        self.pos = 0
        self.arity = arity
        self.dmax = dmax
        self.codes: list[int] = []  # letter of position p at index p - 1
        self.follow: set[tuple[int, int]] = set()

    # -- NFA assembly ----------------------------------------------------

    def frag_epsilon(self):
        return frozenset(), frozenset(), True

    def frag_letter(self, code: int):
        self.codes.append(code)
        p = frozenset([len(self.codes)])
        return p, p, False

    def link(self, last, first):
        self.follow.update((x, y) for x in last for y in first)

    def frag_concat(self, a, b):
        (first_a, last_a, nullable_a), (first_b, last_b, nullable_b) = a, b
        self.link(last_a, first_b)
        return (first_a | first_b if nullable_a else first_a,
                last_b | last_a if nullable_b else last_b, nullable_a and nullable_b)

    def frag_union(self, a, b):
        return a[0] | b[0], a[1] | b[1], a[2] or b[2]

    def frag_star(self, a):
        self.link(a[1], a[0])
        return a[0], a[1], True

    # -- scanning ----------------------------------------------------------

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def scan_number(self) -> int:
        self.skip_ws()
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
    try:  # the parser recurses once per parenthesis level
        first, last, nullable = builder.parse()
    except RecursionError:
        raise RegexError("pattern nests too deeply", builder.pos) from None
    succ = [sorted(first)] + [[] for _ in builder.codes]
    for x, y in builder.follow:
        succ[x].append(y)
    # every edge into position y reads its letter
    rows = [tuple(builder.codes[y - 1] for y in out) for out in succ]
    acc = [int(p in last) for p in range(len(succ))]
    acc[0] = int(nullable)
    out = pad_closed(arity, system.dmax, rows, succ, acc, 0)
    system._cache[key] = out
    return out
