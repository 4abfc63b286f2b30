"""Pattern compiler: syntax, semantics, and agreement with the builders."""
import itertools
import random

import pytest

from obd import NumerationSystem, canonical_recognizer, shift_relation
from obd.regexlang import RegexError, regex_compile

from conftest import equivalent
from oracles import all_canonical


@pytest.fixture(scope="module")
def fib():
    return NumerationSystem("msd_fib", (1,))


@pytest.fixture(scope="module")
def s13():
    return NumerationSystem("msd_s13", (3, 1))


class TestSemantics:
    def test_contains_11_language(self, fib):
        aut = regex_compile(fib, 1, "(0+1)*11(0+1)*")
        for length in range(7):
            for word in itertools.product((0, 1), repeat=length):
                expect = "11" in "".join(map(str, word))
                assert aut.accepts_word(word) == expect, word

    def test_plus_and_bar_are_both_union(self, fib):
        a = regex_compile(fib, 1, "(0+1)*11(0+1)*")
        b = regex_compile(fib, 1, "(0|1)*11(0|1)*")
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_shift_regex_matches_window_builder(self, fib):
        # the two-track golden-ratio shift, written as a pattern
        aut = regex_compile(fib, 2, "([0,0]|[0,1][1,1]*[1,0])*")
        assert equivalent(aut, shift_relation(fib))

    def test_shift_regex_value_pairs(self, fib):
        aut = regex_compile(fib, 2, "([0,0]|[0,1][1,1]*[1,0])*")
        gamma = fib.gamma
        for u in range(80):
            v = u + (gamma * (u + 1)).floor()
            assert aut.accepts_values((u, v), fib)
            assert not aut.accepts_values((u, v + 1), fib)

    def test_zero_star_is_the_zero_value(self, fib):
        aut = regex_compile(fib, 1, "0*")
        assert aut.accepts_word([])
        assert aut.accepts_word([0, 0, 0, 0])
        assert not aut.accepts_word([0, 1, 0])
        assert aut.enumerate_values(fib, 3) == [(0,)]

    def test_empty_pattern_is_epsilon_then_padding(self, fib):
        # bare empty pattern: the empty word, closed under zero padding
        aut = regex_compile(fib, 1, "")
        assert aut.accepts_word([])
        assert aut.accepts_word([0])
        assert not aut.accepts_word([1])

    def test_multidigit_letters(self, s13):
        aut = regex_compile(s13, 1, "3(0+1+2+3)*")
        assert aut.accepts_word([3, 0, 2])
        assert not aut.accepts_word([2, 3])
        # padding closure keeps the 0-prefixed variants
        assert aut.accepts_word([0, 0, 3, 1])

    def test_language_is_closed_under_leading_zeros(self, fib):
        norm = regex_compile(fib, 1, "1")
        assert norm.accepts_word([0, 1]) and norm.accepts_word([1])

    def test_star_of_union_covers_all_canonical_words(self, s13):
        aut = regex_compile(s13, 1, "(0+1+2+3)*")
        canon = canonical_recognizer(s13, 1)
        for word in all_canonical(s13.period, 4):
            assert aut.accepts_word(word)
        assert equivalent(aut.intersect(canon), canon)

    def test_whitespace_tolerated(self, fib):
        a = regex_compile(fib, 2, "( [0,0] | [0, 1] [1,1]* [1,0] )*")
        b = regex_compile(fib, 2, "([0,0]|[0,1][1,1]*[1,0])*")
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_space_before_any_digit_of_a_letter(self, fib):
        # a space right after '[' used to fail with "expected a digit"
        spellings = ("[0,1]*", "[ 0,1]*", "[0 ,1 ]*", "[0, 1]*")
        machines = {regex_compile(fib, 2, p).canonical_bytes() for p in spellings}
        assert len(machines) == 1

    def test_random_patterns_match_a_set_matcher(self, s13):
        # nested stars, unions and empty groups, drawn as trees and checked
        # by matching the tree itself: u is accepted iff 0^j strip(u)
        # matches for some j, and j never needs to exceed the number of
        # letters in the pattern (pump the zeros down)
        rng = random.Random(1961)

        def tree(depth):
            kind = rng.random()
            if depth == 0 or kind < 0.3:
                return rng.choice([("eps",), ("lit", 0), ("lit", 1), ("lit", 2),
                                   ("lit", 3), ("lit", 3)])
            if kind < 0.5:
                return ("star", tree(depth - 1))
            if kind < 0.75:
                return ("cat", tree(depth - 1), tree(depth - 1))
            return ("alt", tree(depth - 1), tree(depth - 1), rng.choice("|+"))

        def text(node):
            kind = node[0]
            if kind == "eps":
                return "()"
            if kind == "lit":
                return str(node[1])
            if kind == "star":
                return f"({text(node[1])})*"
            if kind == "cat":
                return text(node[1]) + text(node[2])
            return f"({text(node[1])}{node[3]}{text(node[2])})"

        def ends(node, word, i):
            """Positions where a match of `node` starting at i can end."""
            kind = node[0]
            if kind == "eps":
                return {i}
            if kind == "lit":
                return {i + 1} if i < len(word) and word[i] == node[1] else set()
            if kind == "cat":
                return {k for j in ends(node[1], word, i)
                        for k in ends(node[2], word, j)}
            if kind == "alt":
                return ends(node[1], word, i) | ends(node[2], word, i)
            reached, todo = {i}, [i]
            while todo:
                for k in ends(node[1], word, todo.pop()) - reached:
                    reached.add(k)
                    todo.append(k)
            return reached

        words = [w for n in range(5) for w in itertools.product(range(4), repeat=n)]
        for _ in range(50):
            pattern = tree(rng.randint(1, 5))
            source = text(pattern)
            aut = regex_compile(s13, 1, source)
            zeros = sum(ch.isdigit() for ch in source) + 1
            for word in words:
                stripped = word[next((k for k, d in enumerate(word) if d), len(word)):]
                expect = any(len(padded) in ends(pattern, padded, 0)
                             for padded in ((0,) * j + stripped for j in range(zeros)))
                assert aut.accepts_word(word) == expect, (source, word)

    def test_cache_returns_identical_object(self, fib):
        a = regex_compile(fib, 1, "0*")
        assert regex_compile(fib, 1, "0*") is a


class TestErrors:
    @pytest.mark.parametrize("pattern", [
        "(0+1", "0)", "[0,1]", "[0", "[0,]", "*", "*0", "2", "[2]", "[]",
    ])
    def test_malformed_patterns_raise_with_position(self, fib, pattern):
        with pytest.raises(RegexError) as info:
            regex_compile(fib, 1, pattern)
        assert "position" in str(info.value)

    def test_bare_digit_needs_arity_one(self, fib):
        with pytest.raises(RegexError, match="bracketed"):
            regex_compile(fib, 2, "01")

    def test_track_count_checked(self, fib):
        with pytest.raises(RegexError, match="tracks"):
            regex_compile(fib, 2, "[0,1,0]")

    def test_zero_arity_rejected(self, fib):
        with pytest.raises(ValueError):
            regex_compile(fib, 0, "")
