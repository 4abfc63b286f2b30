"""The read path (encode, walks, word_value, function_value) against
answers computed independently in exact integer arithmetic."""

import random
from math import isqrt

import pytest

from obd.session import Session, word_value


def floor_phi(n: int) -> int:
    """floor(n * (1 + sqrt 5) / 2) for n >= 0."""
    return (n + isqrt(5 * n * n)) // 2


def sample_ns(seed, max_digits, count):
    """count values of 1..max_digits decimal digits, the digit count uniform."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        digits = rng.randint(1, max_digits)
        out.append(rng.randrange(10 ** (digits - 1), 10 ** digits))
    return out


def session(*commands):
    sess = Session("unused", out=lambda line: None, persist=False)
    for command in commands:
        sess.execute(command, ";")
    return sess


def test_word_value_fibonacci_word():
    sess = session()
    pred = sess.env.predicate("F")
    fib = sess.env.systems[pred.system_name]
    for n in list(range(300)) + sample_ns(11, 60, 200):
        want = 2 - (floor_phi(n + 2) - floor_phi(n + 1))
        assert word_value(pred.automaton, fib, n) == want, n


def test_function_value_wide_output():
    """a(n) = floor(n phi^4) = floor(3n phi) + 2n over msd_fib (the s9
    machine): its z track runs up to 4 digits longer than n's, more than a
    margin of the period length plus 2 allows."""
    sess = session(
        'reg shift {0,1} {0,1} "([0,0]|[0,1][1,1]*[1,0])*"',
        'def phin "?msd_fib (s=0&n=0) | Ex $shift(n-1,x) & s=x+1"',
        'def a "?msd_fib Em $phin(3*n,m) & z=m+2*n"')
    pred = sess.env.predicate("a")
    fib = sess.env.systems[pred.system_name]
    for n in list(range(1, 301)) + sample_ns(12, 40, 60):
        assert pred.automaton.function_value(fib, n) == floor_phi(3 * n) + 2 * n, n
