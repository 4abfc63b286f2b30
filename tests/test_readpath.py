"""The read path (encode, walks, membership, word_value, function_value)
against answers computed independently in exact integer arithmetic.

Value reads take each value's greedy blocks and step through block
memos on the automaton.  The routes they replaced live on here as
references: ``function_value``'s three set passes (forward reach,
backward liveness, forward pick) and the per-letter walks of membership
and ``word_value`` over the encoded, padded digits.  The block reads must
give the same value, or the same exception and message, whatever the
memos already hold.
"""

import random
from math import isqrt

import pytest

from obd import NumerationSystem
from obd.automata import Automaton, NoOutput, letter_code
from obd.numeration import LONE, block_sums
from obd.repro import SCRIPT_DIR
from obd.session import Session, word_value

from conftest import CATALOG


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
    return Automaton(aut.arity, aut.dmax, aut.rows, aut.succ, aut.accepting,
                     aut.initial, aut.outputs)


def memo_sizes(aut):
    """How many entries each of the machine's read memos holds."""
    sets, ids, steps, picks = aut._suffixes or ([], {}, {}, {})
    return [len(sets), len(ids), *(sum(map(len, memo.values()))
                                   for memo in (steps, picks, aut._walks or {}))]


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
    assert memo_sizes(first) == memo_sizes(second)


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


# -- block reads against the per-letter routes, on every catalog system ------

# the catalog of tests/conftest.py, and a system whose entries 70 and 71
# exceed BLOCK_CAP, so its blocks are lone positions with range value tables
READ_SYSTEMS = {**CATALOG, "msd_wide": (70, 71)}


def per_letter_word_value(aut, system, n):
    """``word_value`` before block reads: walk the encoded digits."""
    if aut.outputs is None:
        raise ValueError("not a word automaton")
    digits = system.encode(n)
    if max(digits) > aut.dmax:
        letter_code(digits, aut.dmax)
    state = aut.walk(digits)
    if state < 0:
        raise ValueError(f"word automaton is not total on input {n}")
    return int(aut.outputs[state])


def edge_ns(system, positions=120):
    """0, and q_k - 1, q_k, q_k + 1 for k next to every multiple of the
    block width up to `positions`: where the top block fills up, runs
    over into a new block, or ends one digit short."""
    w = system._width
    ks = {k for j in range(positions // w + 2) for k in (j * w - 1, j * w, j * w + 1)}
    return [0] + sorted({n for k in ks if k >= 0
                         for n in (system.q(k) - 1, system.q(k), system.q(k) + 1)})


def random_machine(rng, arity, dmax, n_states=6, outputs=False):
    """A random machine of mostly total rows.  It is not padding closed,
    so every letter it reads, leading zeros too, can matter."""
    nl = (dmax + 1) ** arity
    edges = [(s, c, rng.randrange(n_states)) for s in range(n_states)
             for c in range(nl) if rng.random() < 0.95]
    accepting = [s for s in range(n_states) if rng.random() < 0.5]
    if outputs:
        return Automaton.from_transitions(
            arity, dmax, n_states, 0, accepting, edges,
            outputs=[rng.randrange(5) for _ in range(n_states)])
    return Automaton.from_transitions(arity, dmax, n_states, 0, accepting, edges)


def random_transducer(rng, dmax, n_states=5):
    """A 2-track machine that mostly writes one z digit per (state, n
    digit), now and then two: its reads give values, NoOutput and
    'not functional' alike."""
    base = dmax + 1
    edges = []
    for s in range(n_states):
        for d in range(base):
            zs = rng.sample(range(base), 2 if rng.random() < 0.03 else 1)
            edges += [(s, d * base + dz, rng.randrange(n_states)) for dz in zs]
    accepting = [s for s in range(n_states) if rng.random() < 0.8] or [0]
    return Automaton.from_transitions(2, dmax, n_states, 0, accepting, edges)


def assert_same_reads(read, reference, aut, system, inputs, seed):
    """read(aut, system, x) and reference(...) agree on every input, on a
    fresh machine in order, on another fresh one in shuffled order, and
    on the first, now warm, in shuffled order again."""
    def result(fn, machine, x):
        try:
            return fn(machine, system, x)
        except ValueError as exc:
            return type(exc), str(exc)

    want = [result(reference, aut, x) for x in inputs]
    pairs = list(zip(inputs, want))
    shuffled = pairs[:]
    random.Random(seed).shuffle(shuffled)
    first, second = fresh(aut), fresh(aut)
    for reader, order in ((first, pairs), (second, shuffled), (first, shuffled)):
        for x, expected in order:
            assert result(read, reader, x) == expected, (system.name, x)
    assert memo_sizes(first) == memo_sizes(second)
    return want


def member(aut, system, values):
    return aut.accepts_values(values, system)


def member_reference(aut, system, values):
    return per_letter_accepts_values(aut, values, system)


@pytest.mark.parametrize("name, arity", [
    (name, arity) for name in sorted(READ_SYSTEMS) for arity in (1, 2, 3)
    # 72**3 letters on msd_wide: a dense table of millions of entries
    if (name, arity) != ("msd_wide", 3)])
def test_block_membership_matches_per_letter_route(name, arity):
    system = NumerationSystem(name, READ_SYSTEMS[name])
    rng = random.Random(f"{name} {arity}")
    ns = edge_ns(system)
    tuples = [tuple(rng.choice(ns) for _ in range(arity)) for _ in range(300)]
    tuples += [(n,) * arity for n in ns]
    tuples += [(0,) * (arity - 1) + (n,) for n in ns]
    for extra in (0, 1):  # machines over the system's digits, and over one more
        # a machine that accepts some of the tuples and rejects others
        aut = next(aut for aut in (random_machine(rng, arity, system.dmax + extra)
                                   for _ in range(50))
                   if len({member_reference(aut, system, t) for t in tuples}) == 2)
        assert_same_reads(member, member_reference, aut, system, tuples,
                          seed=arity + extra)


@pytest.mark.parametrize("name", sorted(READ_SYSTEMS))
def test_block_function_value_matches_three_passes(name):
    system = NumerationSystem(name, READ_SYSTEMS[name])
    rng = random.Random(name)
    ns = edge_ns(system) + [rng.randrange(10 ** 40) for _ in range(40)]
    outcomes = []
    for _ in range(4):
        aut = random_transducer(rng, system.dmax)
        outcomes += assert_same_reads(Automaton.function_value,
                                      three_pass_function_value, aut, system,
                                      ns, seed=len(outcomes))
    kinds = {type(o) if isinstance(o, int) else o[0] for o in outcomes}
    assert {int, NoOutput, ValueError} <= kinds, kinds


@pytest.mark.parametrize("name", sorted(READ_SYSTEMS))
def test_block_word_value_matches_per_letter_walk(name):
    system = NumerationSystem(name, READ_SYSTEMS[name])
    rng = random.Random(name + " word")
    ns = edge_ns(system) + [rng.randrange(10 ** 40) for _ in range(40)]
    for _ in range(3):
        aut = random_machine(rng, 1, system.dmax, outputs=True)
        assert_same_reads(word_value, per_letter_word_value, aut, system, ns,
                          seed=1)


def test_query_machines_block_reads_match_references(machines):
    """The benchmark's machines, read in shuffled order on fresh and warm
    copies, at the block edges and at n of up to 60 digits."""
    for name in sorted(CLOSED_FORMS):
        aut, system = machines[name]
        ns = edge_ns(system, 200) + sample_ns(20, 60, 60)
        tuples = [(n, CLOSED_FORMS[name](n) + dz) for n in ns for dz in (0, 1)]
        assert_same_reads(member, member_reference, aut, system, tuples, seed=21)
        values = assert_same_reads(Automaton.function_value,
                                   three_pass_function_value, aut, system, ns,
                                   seed=22)
        assert values == [CLOSED_FORMS[name](n) for n in ns]


def test_block_read_errors_match_references(machines):
    """Digits above the machine's dmax, NoOutput and a relation that is
    not functional raise with the references' types and messages."""
    s2 = NumerationSystem("msd_s2", (2,))
    leswap, _ = machines["leswap"]
    for values in ((4, 0), (0, 4), (3, 10 ** 30 + 7)):
        want = member_outcome(per_letter_accepts_values, leswap, values, s2)
        assert want[0] is ValueError and "out of range 0..1" in want[1]
        assert member_outcome(Automaton.accepts_values, fresh(leswap), values, s2) == want
    word = session().env.predicate("F").automaton
    for read, reference, aut, n in (
            (Automaton.function_value, three_pass_function_value, leswap, 10 ** 30 + 7),
            (word_value, per_letter_word_value, word, 4)):
        want = outcome(reference, aut, s2, n)
        assert want[0] is ValueError and "out of range 0..1" in want[1]
        assert outcome(read, fresh(aut), s2, n) == want
    for name, n, kind in (("from3", 2, NoOutput), ("le", 10 ** 20, ValueError)):
        aut, fib = machines[name]
        want = outcome(three_pass_function_value, aut, fib, n)
        assert want[0] is kind
        assert outcome(Automaton.function_value, fresh(aut), fib, n) == want


@pytest.mark.parametrize("name", sorted(READ_SYSTEMS))
def test_every_cut_of_the_top_block(name):
    """Values of every length L = 1 .. 3w + 1 (0, and q_{L-1} for L > 1), so
    the top table is cut by every count from 1 to w - 1: membership on 1
    to 3 tracks, word_value, and function_value, whose n_states padding
    moves the cut.  A system holds one cut table per (table, cut), the
    same one on every read."""
    system = NumerationSystem(name, READ_SYSTEMS[name])
    w = system._width
    ns = [0] + [system.q(length - 1) for length in range(2, 3 * w + 2)]
    assert [len(system.encode(n)) for n in ns] == list(range(1, 3 * w + 2))
    rng = random.Random(name + " cuts")
    reads = []
    for arity in (1, 2, 3) if name != "msd_wide" else (1, 2):
        tuples = [(n,) * arity for n in ns] + [(0,) * (arity - 1) + (n,) for n in ns]
        reads.append((member, member_reference,
                      random_machine(rng, arity, system.dmax), tuples))
    reads.append((word_value, per_letter_word_value,
                  random_machine(rng, 1, system.dmax, outputs=True), ns))
    reads += [(Automaton.function_value, three_pass_function_value,
               random_transducer(rng, system.dmax, n_states), ns)
              for n_states in (3, 4)]
    for read, reference, aut, inputs in reads:
        assert_same_reads(read, reference, aut, system, inputs, seed=len(inputs))
    cut_tables = dict(system._cut_tables)
    assert len(cut_tables) <= (len(system._phase_tables) + 1) * (w - 1)
    assert {cut for _, cut in cut_tables} == set(range(1, w))
    for read, reference, aut, inputs in reads:
        assert_same_reads(read, reference, aut, system, inputs, seed=len(inputs) + 1)
    assert system._cut_tables == cut_tables


# -- coefficient rows ----------------------------------------------------------

def handed_out_tables(system, blocks):
    """(j, table) for every table the system hands out for blocks 0 ..
    blocks - 1: block j's own table and each of its cut tables."""
    w = system._width
    return [(j, system.block_tables((j + 1) * w - cut)[0])
            for j in range(blocks) for cut in range(w)]


@pytest.mark.parametrize("name", sorted(READ_SYSTEMS) + ["big"])
def test_coefficient_rows_give_block_values(name):
    """Any digits over block j of a table, canonical or not, are worth
    C q_{jw} + D q_{jw-1}, their sums in the table's coefficient row:
    block 0's table, each phase table, each cut table and LONE, at
    several j."""
    period = READ_SYSTEMS.get(name, (10 ** 6,))
    system = NumerationSystem(name, period)
    w, m = system._width, system.period_length
    rng = random.Random(name + " coefficients")
    seen = set()
    for j, table in handed_out_tables(system, 3 * m + 3):
        seen.add(id(table))
        width = len(table[0])
        # LONE's pattern k is the digit k: the low hundred and the largest
        patterns = ([(d,) for d in {*range(min(system.dmax, 99) + 1), system.dmax}]
                    if table is LONE else list(table))
        patterns += [tuple(rng.randint(0, system.dmax) for _ in range(width))
                     for _ in range(20)]
        for pattern in patterns:
            c, d = block_sums(table, pattern)
            want = system.decode(pattern + (0,) * (j * w))
            assert c * system.q(j * w) + d * system.q(j * w - 1) == want, (j, pattern)
    # block j's phase is j * w mod m, so blocks 1 .. m meet every phase a
    # block can have, and the cut tables of each
    phases = system._phase_tables
    tables = [system._tables[0], *(phases[j * w % m] for j in range(1, m + 1)),
              *system._cut_tables.values()]
    assert {id(t) for t in tables} == seen
    assert (w == 1) == all(t is LONE for t in tables)
    # whole strings of blocks, through block_value
    for _ in range(50):
        blocks = rng.randint(1, 3 * m + 3)
        length = rng.randint((blocks - 1) * w + 1, blocks * w)
        digits = tuple(rng.randint(0, system.dmax) for _ in range(length))
        at, cs, ds = 0, [], []
        for table in system.block_tables(length):
            width = len(table[0])
            c, d = block_sums(table, digits[at:at + width])
            cs.append(c)
            ds.append(d)
            at += width
        assert system.block_value(cs, ds) == system.decode(digits), digits


def test_value_reads_never_spell_out_digits(machines, monkeypatch):
    """With ``decode`` and ``block_digits`` patched to raise, function
    values, membership and ``word_value`` on the query machines and F
    still give the exact answers, on fresh machines and fresh systems."""
    word = session().env.predicate("F")
    fib = session().env.systems[word.system_name]
    reads = [(fresh(aut), NumerationSystem(system.name, system.period), name)
             for name, (aut, system) in sorted(machines.items())
             if name in CLOSED_FORMS]
    word_aut = fresh(word.automaton)
    word_system = NumerationSystem(fib.name, fib.period)

    def refuse(*args):
        raise AssertionError("digits spelled out")
    monkeypatch.setattr(NumerationSystem, "decode", refuse)
    monkeypatch.setattr(NumerationSystem, "block_digits", refuse)
    ns = list(range(300)) + sample_ns(23, 60, 100)
    for aut, system, name in reads:
        for n in ns:
            z = CLOSED_FORMS[name](n)
            assert aut.function_value(system, n) == z, (name, n)
            assert aut.accepts_values((n, z), system), (name, n)
            assert not aut.accepts_values((n, z + 1), system), (name, n)
    for n in ns:
        want = 2 - (floor_phi(n + 2) - floor_phi(n + 1))
        assert word_value(word_aut, word_system, n) == want, n
