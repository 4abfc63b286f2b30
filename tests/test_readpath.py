"""The read path (encode, walks, membership, word_value, function_value)
against answers computed independently in exact integer arithmetic.

``function_value`` reads n's digits off suffix sets memoised on the
automaton.  The three set passes it used before (forward reach, backward
liveness, forward pick) live on here as a reference, and the new reads
must give the same value, or the same exception and message, whatever
the memo already holds.  Membership packs its letter codes with ``map``;
the per-letter route it replaced is kept the same way.
"""

import random
from math import isqrt

import pytest

from obd import NumerationSystem
from obd.automata import Automaton, NoOutput, letter_code
from obd.repro import SCRIPT_DIR
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


def three_pass_function_value(aut, system, n):
    """``function_value`` before the suffix-set memo: per call, a forward
    pass of reachable sets, a backward pass keeping the live ones, and a
    forward pass picking the one viable z digit at each position."""
    if aut.arity != 2:
        raise ValueError("function_value needs a 2-track automaton")
    enc = system.encode(n)
    if max(enc) > aut.dmax:
        letter_code(enc, aut.dmax)
    sink = aut.n_states
    base = aut.dmax + 1
    nl = base * base
    delta = aut.successors()
    offsets = [0] * sink + [d * base for d in enc]
    reach = [{aut.initial}]
    for off in offsets:
        nxt = set()
        for s in reach[-1]:
            nxt.update(delta[s * nl + off:s * nl + off + base])
        nxt.discard(sink)
        reach.append(nxt)
    live = {s for s in reach[-1] if aut.accepting[s]}
    alive = [live]
    for i in range(len(offsets) - 1, -1, -1):
        off = offsets[i]
        live = {s for s in reach[i] if not live.isdisjoint(
            delta[s * nl + off:s * nl + off + base])}
        alive.append(live)
    alive.reverse()
    if aut.initial not in alive[0]:
        raise NoOutput(f"no output for input {n}")
    state = aut.initial
    zdigits = []
    for off, live in zip(offsets, alive[1:]):
        row = state * nl + off
        choices = [dz for dz in range(base) if delta[row + dz] in live]
        if len(choices) != 1:
            raise ValueError(f"relation is not functional at {n}")
        zdigits.append(choices[0])
        state = delta[row + choices[0]]
    return system.decode(zdigits)


def outcome(read, aut, system, n):
    """The value read, or the exception's type and message."""
    try:
        return read(aut, system, n)
    except ValueError as exc:
        return type(exc), str(exc)


def fresh(aut):
    """The same machine with nothing memoised."""
    return Automaton(aut.arity, aut.dmax, aut.indptr, aut.letters,
                     aut.targets, aut.accepting, aut.initial)


@pytest.fixture(scope="module")
def machines():
    """The benchmark's query machines (s10, s12), a relation that is not
    functional, and one with no output below 3."""
    out = {}
    for section, names in (("s10", ("leswap", "ueswap")),
                           ("s12", ("a003151", "a001951", "a080754"))):
        sess = session()
        sess.run_script((SCRIPT_DIR / f"{section}.obd").read_text(encoding="utf-8"))
        for name in names:
            pred = sess.env.predicate(name)
            out[name] = (pred.automaton, sess.env.systems[pred.system_name])
    sess = session('def le "?msd_fib z<=n"', 'def from3 "?msd_fib n>=3 & z=n+1"')
    for name in ("le", "from3"):
        pred = sess.env.predicate(name)
        out[name] = (pred.automaton, sess.env.systems[pred.system_name])
    return out


@pytest.mark.parametrize("name", ["leswap", "ueswap", "a003151", "a001951",
                                  "a080754", "le", "from3"])
def test_function_value_matches_three_passes(machines, name):
    aut, system = machines[name]
    ns = list(range(400)) + sample_ns(13, 60, 120)
    want = [outcome(three_pass_function_value, aut, system, n) for n in ns]
    shuffled = list(zip(ns, want))
    random.Random(14).shuffle(shuffled)
    first, second = fresh(aut), fresh(aut)
    for reader, order in ((first, zip(ns, want)), (second, shuffled),
                          (first, shuffled)):
        for n, expected in order:
            assert outcome(Automaton.function_value, reader, system, n) == expected, n
    # the warmed machine read nothing new the second time round
    assert [len(m) for m in first._suffixes] == [len(m) for m in second._suffixes]


def test_function_value_outcomes_of_the_odd_machines(machines):
    """The two relations the differential test reads for its error paths
    do reach them: z<=n is functional at 0 only, n>=3 & z=n+1 has no
    output below 3."""
    le, fib = machines["le"]
    assert le.function_value(fib, 0) == 0
    with pytest.raises(ValueError, match="not functional at 5"):
        le.function_value(fib, 5)
    from3, fib = machines["from3"]
    for n in range(3):
        with pytest.raises(NoOutput, match=f"no output for input {n}"):
            from3.function_value(fib, n)
    assert [from3.function_value(fib, n) for n in (3, 4, 100)] == [4, 5, 101]


CLOSED_FORMS = {
    "leswap": lambda n: 2 * ((n + floor_phi(n)) // 2),
    "ueswap": lambda n: 2 * ((n + floor_phi(n) + 1) // 2),
    "a003151": lambda n: isqrt(2 * n * n) + n,  # floor(n (1 + sqrt 2))
    "a001951": lambda n: isqrt(2 * n * n),  # floor(n sqrt 2)
    "a080754": lambda n: isqrt(2 * n * n) + n + 1 if n else 0,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_query_machines_closed_forms(machines, name):
    """Each query machine past the 41 digits the compile checks reach:
    n = 1..299, and one n of each length from 1 to 60 decimal digits."""
    aut, system = machines[name]
    rng = random.Random(15)
    ns = list(range(1, 300)) + [rng.randrange(10 ** (d - 1), 10 ** d)
                                for d in range(1, 61)]
    for n in ns:
        assert aut.function_value(system, n) == CLOSED_FORMS[name](n), n


def per_letter_accepts_values(aut, values, system):
    """``accepts_values`` before the codes were packed with ``map``: pad the
    encoded values, build each letter's code in a per-letter list, and run
    it through ``accepts_word``."""
    if len(values) != aut.arity:
        raise ValueError("wrong number of values")
    if aut.arity == 0:
        return aut.accepts_word([])
    rows = system.pad_parallel(*(system.encode(v) for v in values))
    for row in rows:
        if min(row) < 0 or max(row) > aut.dmax:
            letter_code(row, aut.dmax)
    base = aut.dmax + 1
    word = list(rows[0])
    for row in rows[1:]:
        word = [code * base + d for code, d in zip(word, row)]
    return aut.accepts_word(word)


def member_outcome(read, aut, values, system):
    """The answer, or the exception's type and message."""
    try:
        return read(aut, values, system)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_membership(aut, system, tuples):
    for values in tuples:
        want = member_outcome(per_letter_accepts_values, aut, values, system)
        got = member_outcome(Automaton.accepts_values, aut, values, system)
        assert got == want, values


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_membership_matches_per_letter_route(machines, name):
    aut, system = machines[name]
    rng = random.Random(16)
    tuples = []
    for n in list(range(200)) + sample_ns(17, 60, 100):
        z = CLOSED_FORMS[name](n)
        tuples += [(n, z), (n, z + 1), (n, rng.randrange(10 ** 60))]
    assert_same_membership(aut, system, tuples)
    assert sum(member_outcome(Automaton.accepts_values, aut, t, system) is True
               for t in tuples) >= 300


def test_membership_on_one_and_three_tracks():
    sess = session('def even "?msd_fib Ek n=2*k"', 'def add "?msd_fib x+y=z"')
    even, add = (sess.env.predicate(name) for name in ("even", "add"))
    fib = sess.env.systems[even.system_name]
    assert even.automaton.arity == 1 and add.automaton.arity == 3
    ns = list(range(100)) + sample_ns(18, 60, 100)
    assert_same_membership(even.automaton, fib, [(n,) for n in ns])
    assert [even.automaton.accepts_values((n,), fib) for n in range(6)] == [
        True, False, True, False, True, False]
    rng = random.Random(19)
    triples = []
    for _ in range(200):
        x, y = (rng.randrange(10 ** rng.randint(1, 59)) for _ in range(2))
        triples += [(x, y, x + y), (x, y, x + y + 1), (y, x, x + y)]
    assert_same_membership(add.automaton, fib, triples)
    assert all(add.automaton.accepts_values(t, fib) for t in triples[::3])


def test_membership_errors_match_per_letter_route(machines):
    aut, fib = machines["leswap"]
    s2 = NumerationSystem("msd_s2", (2,))
    assert s2.encode(4) == (2, 0)
    for values, system in (((1,), fib), ((1, 2, 3), fib), ((), fib),
                           ((-1, 0), fib), ((0, -1), fib),
                           ((4, 0), s2), ((0, 4), s2)):
        want = member_outcome(per_letter_accepts_values, aut, values, system)
        assert want[0] is ValueError, values
        assert member_outcome(Automaton.accepts_values, aut, values, system) == want
    assert member_outcome(Automaton.accepts_values, aut, (4, 0), s2) == (
        ValueError, "digit 2 out of range 0..1")
