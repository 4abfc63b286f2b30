"""Cross-validation of the CSR automaton engine against the dict-based
reference engine in oracles.py, mostly on randomly generated machines."""

import itertools
import random

import numpy as np
import pytest

from obd.automata import (Automaton, csr_from_edges, edge_sources, letter_code,
                          letter_digits, lift_codes, nletters, pad_closed,
                          project_letter_map)
from obd.numeration import NumerationSystem
from obd.relations import canonical_recognizer, fibonacci_word
from obd.session import _combine_outputs, word_value
from conftest import accepts_rows, equivalent
from oracles import RefDFA


def pad_closed_machine(aut):
    """``pad_closed`` of a machine, given its CSR edges."""
    return pad_closed(aut.arity, aut.dmax, aut.n_states, edge_sources(aut.indptr),
                      aut.letters, aut.targets, aut.accepting, aut.initial)


def csr_words(aut, maxlen):
    """Accepted words of length <= maxlen, straight off the CSR arrays."""
    found = set()
    frontier = [((), aut.initial)]
    for _ in range(maxlen + 1):
        nxt = []
        for w, s in frontier:
            if aut.accepting[s]:
                found.add(w)
            if len(w) < maxlen:
                for e in range(aut.indptr[s], aut.indptr[s + 1]):
                    nxt.append((w + (int(aut.letters[e]),), int(aut.targets[e])))
        frontier = nxt
        if not frontier:
            break
    return found


def random_machine(rng, arity, dmax, n_max=5, density=0.75):
    n = rng.randint(1, n_max)
    nl = nletters(arity, dmax)
    trans = {}
    for s in range(n):
        for letter in range(nl):
            if rng.random() < density:
                trans[(s, letter)] = rng.randrange(n)
    accepting = {s for s in range(n) if rng.random() < 0.45}
    return n, 0, accepting, trans, tuple(range(nl))


def as_pair(spec, arity, dmax):
    n, init, accepting, trans, alphabet = spec
    ref = RefDFA(n, init, accepting, trans, alphabet)
    aut = Automaton.from_transitions(
        arity, dmax, n, init, sorted(accepting),
        [(s, l, t) for (s, l), t in trans.items()])
    aut.validate()
    return ref, aut


SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]


def project_one_at_a_time(aut, tracks):
    """Reference: one subset construction per track, as the compiler once
    ran them, highest track first so the lower indices keep their meaning."""
    for track in sorted(tracks, reverse=True):
        aut = aut.project([track])
    return aut


class TestLetterCoding:
    def test_round_trip(self):
        for arity, dmax in [(1, 3), (2, 2), (3, 4)]:
            for code in range(nletters(arity, dmax)):
                assert letter_code(letter_digits(code, arity, dmax), dmax) == code

    def test_track0_most_significant(self):
        assert letter_code((1, 0), 2) == 3
        assert letter_code((0, 1), 2) == 1
        assert letter_digits(5, 2, 2) == (1, 2)

    def test_out_of_range_digit(self):
        with pytest.raises(ValueError):
            letter_code((3,), 2)

    def test_read_path_rejects_digit_above_dmax(self):
        # digit 2 on track 1 of a dmax-1 machine would alias to letter (1, 0)
        aut = Automaton.universal(2, 1)
        s2 = NumerationSystem("msd_s2", (2,))  # digits 0..2
        with pytest.raises(ValueError, match="out of range"):
            aut.accepts_values((4, 0), s2)  # 4 is 20 in msd_s2
        with pytest.raises(ValueError, match="out of range"):
            aut.function_value(s2, 4)
        word = _combine_outputs([Automaton.universal(1, 1)], [1])
        with pytest.raises(ValueError, match="out of range"):
            word_value(word, s2, 4)

    def test_project_letter_map(self):
        m = project_letter_map(2, 2, [1])
        for code in range(9):
            assert m[code] == letter_digits(code, 2, 2)[0]
        m0 = project_letter_map(2, 2, [0])
        for code in range(9):
            assert m0[code] == letter_digits(code, 2, 2)[1]
        middle = project_letter_map(3, 1, [0, 2])
        for code in range(8):
            assert middle[code] == letter_digits(code, 3, 1)[1]
        assert project_letter_map(3, 1, [0, 1, 2]).tolist() == [0] * 8
        with pytest.raises(ValueError, match="out of range"):
            project_letter_map(2, 2, [0, 2])

    def test_lift_codes(self):
        table = lift_codes(1, 1, [0], 2)
        # track 0 keeps the old digit, track 1 free
        assert sorted(table[1].tolist()) == [letter_code((1, 0), 1), letter_code((1, 1), 1)]
        with pytest.raises(ValueError):
            lift_codes(2, 1, [1, 0], 3)
        # a negative position is out of range, not a free pick of tracks
        with pytest.raises(ValueError):
            lift_codes(1, 1, [-1], 2)
        with pytest.raises(ValueError):
            Automaton.universal(1, 1).lift(2, [-1])

    @pytest.mark.parametrize("arity,dmax", [(1, 1), (2, 2), (3, 1), (3, 3)])
    def test_memoised_tables_match_fresh_ones(self, arity, dmax):
        for drop in itertools.chain.from_iterable(
                itertools.combinations(range(arity), r) for r in range(arity + 1)):
            table = project_letter_map(arity, dmax, list(drop))
            assert project_letter_map(arity, dmax, set(drop)) is table
            keep = [t for t in range(arity) if t not in drop]
            assert table.tolist() == [
                letter_code([letter_digits(code, arity, dmax)[t] for t in keep], dmax)
                for code in range(nletters(arity, dmax))]
        for wide in range(arity, arity + 3):
            for positions in itertools.combinations(range(wide), arity):
                table = lift_codes(arity, dmax, list(positions), wide)
                assert lift_codes(arity, dmax, positions, wide) is table
                rows = [[] for _ in range(nletters(arity, dmax))]
                for code in range(nletters(wide, dmax)):
                    digits = letter_digits(code, wide, dmax)
                    rows[letter_code([digits[p] for p in positions], dmax)].append(code)
                assert table.tolist() == rows

    def test_memoised_tables_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            project_letter_map(2, 1, [0])[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            lift_codes(1, 1, [0], 2)[0, 0] = 5


class TestEdgeConstructor:
    def test_any_order_gives_the_csr_arrays(self):
        rng = random.Random(1401)
        for trial in range(20):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            _, aut = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            src = edge_sources(aut.indptr)
            shuffled = rng.sample(range(src.size), src.size)
            indptr, letters, targets = csr_from_edges(
                aut.n_states, src[shuffled], aut.letters[shuffled],
                aut.targets[shuffled])
            assert indptr.tolist() == aut.indptr.tolist()
            assert letters.tolist() == aut.letters.tolist()
            assert targets.tolist() == aut.targets.tolist()
            # edges already in (state, letter) order are not copied
            _, same_letters, same_targets = csr_from_edges(
                aut.n_states, src, aut.letters, aut.targets)
            assert same_letters is aut.letters and same_targets is aut.targets


class TestBooleanOps:
    def test_products_match_reference(self):
        rng = random.Random(1201)
        for trial in range(60):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            ra, aa = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            rb, ab = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            for op in ("and", "or", "xor", "andnot"):
                got = aa.product(ab, op)
                got.validate()
                assert csr_words(got, 4) == RefDFA.product(ra, rb, op).words(4), \
                    f"trial {trial} op {op}"

    def test_complement_within_universal(self):
        rng = random.Random(77)
        for trial in range(20):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            ra, aa = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            univ = Automaton.universal(arity, dmax)
            comp = aa.complement_within(univ)
            all_words = csr_words(univ, 4)
            assert csr_words(comp, 4) == all_words - ra.words(4)
            # double complement restores the language
            assert equivalent(comp.complement_within(univ), aa)

    def test_ops_with_empty(self):
        a = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1), (1, 0, 1)])
        e = Automaton.empty(1, 1)
        assert equivalent(a.union(e), a)
        assert a.intersect(e).is_empty()
        assert equivalent(a.andnot(e), a)
        assert e.andnot(a).is_empty()
        assert equivalent(a.xor(e), a)


class TestCanonicalForm:
    def test_minimal_state_count(self):
        rng = random.Random(5150)
        for trial in range(40):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            ref, aut = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            assert aut.live_states == ref.minimized().live_count(), f"trial {trial}"

    def test_equivalence_is_blind_to_shape(self):
        # same language, different construction: junk states and duplicates
        a = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1), (1, 0, 1)])
        b = Automaton.from_transitions(
            1, 1, 5, 2,
            [3, 4],
            [(2, 1, 3), (3, 0, 4), (4, 0, 3), (0, 0, 1), (1, 1, 0)])
        assert equivalent(a, b)
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.sha() == b.sha()

    def test_canonicalization_idempotent(self):
        rng = random.Random(99)
        for trial in range(20):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            _, aut = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            again = aut._canonical()
            assert aut.canonical_bytes() == again.canonical_bytes()

    def test_empty_language_convention(self):
        e = Automaton.from_transitions(1, 2, 3, 0, [], [(0, 1, 1), (1, 0, 2)])
        assert e.is_empty() and e.live_states == 0 and e.n_states == 1
        assert equivalent(e, Automaton.empty(1, 2))


class TestTrackSurgery:
    def test_projection_matches_reference(self):
        rng = random.Random(4096)
        for trial in range(40):
            dmax = 1 + trial % 2
            ref, aut = as_pair(random_machine(rng, 2, dmax), 2, dmax)
            track = trial % 2
            got = aut.project([track])
            got.validate()
            keep = 1 - track

            def proj_accepts(digit_word):
                # NFA membership in the raw projection image
                states = {ref.initial}
                for d in digit_word:
                    nxt = set()
                    for full in ref.alphabet:
                        if letter_digits(full, 2, dmax)[keep] == d:
                            for s in states:
                                t = ref.trans.get((s, full))
                                if t is not None:
                                    nxt.add(t)
                    states = nxt
                return bool(states & ref.accepting)

            # u is kept iff some zero-prefixed variant is in the image; the
            # prefix pumps down below the state count
            expected = set()
            import itertools
            for length in range(5):
                for u in itertools.product(range(dmax + 1), repeat=length):
                    if any(proj_accepts((0,) * j + u) for j in range(ref.n + 1)):
                        expected.add(tuple(letter_code((d,), dmax) for d in u))
            assert csr_words(got, 4) == expected, f"trial {trial}"

    def test_projection_semantics_exact_small(self):
        # hand-checked: equality relation projected is everything
        eq = Automaton.from_transitions(2, 2, 1, 0, [0],
                                        [(0, (d, d), 0) for d in range(3)])
        assert equivalent(eq.project([0]), Automaton.universal(1, 2))
        assert equivalent(eq.project([1]), Automaton.universal(1, 2))

    @pytest.mark.parametrize("sysname", ["msd_fib", "msd_s2", "msd_s13"])
    def test_joint_projection_matches_one_at_a_time(self, systems, sysname):
        # every nonempty set of tracks, down to a 0-track sentence, of random
        # 3- and 4-track machines, raw and inside the canonical-word language;
        # at most 3 states, since the reference can blow up: one track of a
        # 6-state 4-track machine gives 63 states, and the next ~50 000 subsets
        dmax = systems[sysname].dmax
        rng = random.Random(sysname)
        # its only word (1,0,0)(0,1,1) loses track 0 to (0,0)(1,1), whose
        # stripped form (1,1) only the zero closure adds
        zeros = Automaton.from_transitions(
            3, dmax, 3, 0, [2], [(0, (1, 0, 0), 1), (1, (0, 1, 1), 2)])
        assert zeros.project([0]).accepts_word([letter_code((1, 1), dmax)])
        machines = [zeros]
        for arity in (3, 4):
            canon = canonical_recognizer(systems[sysname], arity)
            for density in (0.75, 3 / nletters(arity, dmax)) * 3:
                _, aut = as_pair(random_machine(rng, arity, dmax, 3, density),
                                 arity, dmax)
                machines += [m for m in (aut, aut.intersect(canon))
                             if not m.is_empty()]
        for aut in machines:
            for size in range(1, aut.arity + 1):
                for tracks in itertools.combinations(range(aut.arity), size):
                    joint = aut.project(list(tracks))
                    assert joint.arity == aut.arity - size
                    assert joint.canonical_bytes() == project_one_at_a_time(
                        aut, tracks).canonical_bytes(), (aut, tracks)

    def test_lift_then_project_round_trip(self):
        # for a padding-closed language, adding a free track and projecting
        # it away changes nothing
        rng = random.Random(31337)
        for trial in range(15):
            ref, aut = as_pair(random_machine(rng, 1, 2), 1, 2)
            p = pad_closed_machine(aut)
            lifted = p.lift(2, [0])
            lifted.validate()
            assert equivalent(lifted.project([1]), p), f"trial {trial}"

    def test_lift_and_permute_stay_canonical(self):
        # neither runs the full canonicalisation; running it must change
        # nothing, for plain machines and for word automata with outputs
        rng = random.Random(2024)
        for trial in range(40):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            spec = random_machine(rng, arity, dmax)
            _, aut = as_pair(spec, arity, dmax)
            outputs = [rng.randint(-2, 2) for _ in range(spec[0])]
            word = Automaton.from_transitions(
                arity, dmax, spec[0], 0, sorted(spec[2]),
                [(s, l, t) for (s, l), t in spec[3].items()], outputs=outputs)
            wider = arity + 1 + trial % 2
            positions = sorted(rng.sample(range(wider), arity))
            perm = list(range(arity))
            rng.shuffle(perm)
            for m in (aut, word, Automaton.empty(arity, dmax)):
                for out in (m.lift(wider, positions), m.permute_tracks(perm)):
                    assert out.canonical_bytes() == out._canonical().canonical_bytes()

    def test_lift_places_tracks(self):
        eq = Automaton.from_transitions(2, 1, 1, 0, [0],
                                        [(0, (d, d), 0) for d in range(2)])
        lifted = eq.lift(3, [0, 2])
        assert accepts_rows(lifted, [[1], [0], [1]])
        assert accepts_rows(lifted, [[1], [1], [1]])
        assert not accepts_rows(lifted, [[1], [0], [0]])

    def test_pad_closed(self):
        rng = random.Random(1618)
        for trial in range(25):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            ref, aut = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            nrm = pad_closed_machine(aut)
            nrm.validate()

            # u is kept iff L contains strip(u) with some pumpable zero prefix
            def strip(w):
                while w and w[0] == 0:
                    w = w[1:]
                return w

            def expected_member(u):
                s = strip(u)
                return any(ref.accepts((0,) * j + s) for j in range(ref.n + 2))

            expected = {w for w in csr_words(Automaton.universal(arity, dmax), 4)
                        if expected_member(w)}
            assert csr_words(nrm, 4) == expected, f"trial {trial}"
            # and the result is padding closed
            zero = (0,)
            for w in csr_words(nrm, 3):
                assert nrm.accepts_word(zero + w)


class TestFiniteness:
    def test_finite_and_infinite(self):
        # single word
        one = Automaton.from_transitions(1, 1, 3, 0, [2], [(0, 1, 1), (1, 1, 2)])
        assert one.is_value_finite()
        # a cycle on the accepting path
        loop = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1), (1, 0, 1)])
        assert not loop.is_value_finite()
        assert Automaton.empty(1, 1).is_value_finite()
        # 0* only: one value
        zeros = Automaton.from_transitions(1, 1, 1, 0, [0], [(0, 0, 0)])
        assert zeros.is_value_finite()


def stripped_reference(aut):
    """The accepted words that do not start with the all-zero letter, as a
    product with a 2-state guard machine: the route ``enumerate_values``
    and ``is_value_finite`` took before they walked the machine itself."""
    nl = nletters(aut.arity, aut.dmax)
    if nl == 1:
        # 0 tracks: the stripped language is {empty word} or nothing
        if aut.is_empty():
            return Automaton.empty(aut.arity, aut.dmax)
        return Automaton.from_transitions(0, aut.dmax, 1, 0, [0], [])
    trans = [(0, code, 1) for code in range(1, nl)]
    trans += [(1, code, 1) for code in range(nl)]
    guard = Automaton.from_transitions(aut.arity, aut.dmax, 2, 0, [0, 1], trans)
    return aut.intersect(guard)


def has_cycle(aut):
    """Does the machine have a cycle?  By peeling off, round after round,
    the states with no successor left."""
    succ = [set(aut.targets[aut.indptr[s]:aut.indptr[s + 1]].tolist())
            for s in range(aut.n_states)]
    alive = set(range(aut.n_states))
    while True:
        sinks = {s for s in alive if not succ[s] & alive}
        if not sinks:
            return bool(alive)
        alive -= sinks


class TestStrippedWalk:
    """Enumeration and finiteness skip the all-zero letter as a first
    letter; the reference intersects with a guard machine instead."""

    @pytest.mark.parametrize("period", [(1,), (2,)])
    def test_matches_the_guard_product(self, period):
        system = NumerationSystem("t", period)
        dmax, max_len = system.dmax, 4
        rng = random.Random(f"stripped{period}")
        machines = []
        for arity in (1, 2):
            canon = canonical_recognizer(system, arity)
            for _ in range(15):
                _, aut = as_pair(random_machine(rng, arity, dmax), arity, dmax)
                for m in (aut, aut.intersect(canon)):
                    machines += [m, m.project(list(range(arity)))]
        assert any(m.arity == 0 and not m.is_empty() for m in machines)
        for aut in machines:
            s = stripped_reference(aut)
            assert aut.is_value_finite() == (s.is_empty() or not has_cycle(s))

            def decode(word):
                rows = [letter_digits(c, aut.arity, dmax) for c in word]
                return tuple(system.decode([r[k] for r in rows])
                             for k in range(aut.arity))
            words = sorted(csr_words(s, max_len),
                           key=lambda w: (len(w), decode(w)))
            expect = [decode(w) for w in words]
            for count in (min(3, len(expect)), len(expect)):
                assert aut.enumerate_values(system, count) == expect[:count], aut
            # one more walks past max_len, and finds it if the language is infinite
            more = aut.enumerate_values(system, len(expect) + 1)
            assert more[:len(expect)] == expect, aut
            assert len(more) == len(expect) + 1 or aut.is_value_finite(), aut


class TestCombine:
    def test_outputs_match_brute_force(self):
        rng = random.Random(808)
        for dmax in (1, 2):
            for _ in range(4):
                ra, aa = as_pair(random_machine(rng, 1, dmax), 1, dmax)
                rb, ab = as_pair(random_machine(rng, 1, dmax), 1, dmax)
                ab = ab.andnot(aa)  # the session checks its inputs disjoint
                w = _combine_outputs([aa, ab], [7, -3])
                w.validate()
                for length in range(7):
                    for word in itertools.product(range(dmax + 1), repeat=length):
                        s = w.walk(word)
                        expect = 7 if ra.accepts(word) else (
                            -3 if rb.accepts(word) else 0)
                        assert int(w.outputs[s]) == expect, word
                        assert bool(w.accepting[s]) == (expect != 0), word

    def test_outputs_survive_text_round_trip(self):
        a = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1), (1, 0, 1)])
        w = _combine_outputs([a], [4])
        name, back = Automaton.from_text(w.to_text("msd_t"))
        assert back.outputs is not None
        assert back.to_text("msd_t") == w.to_text("msd_t")


def to_text_per_edge(aut, system_name):
    """The reference for ``Automaton.to_text``: one numpy read per edge."""
    lines = [f"system {system_name} arity {aut.arity} dmax {aut.dmax}",
             f"states {aut.n_states} initial {aut.initial}",
             "accepting " + " ".join(str(i) for i in np.where(aut.accepting)[0])]
    if aut.outputs is not None:
        lines.append("outputs " + " ".join(
            f"{i}:{int(v)}" for i, v in enumerate(aut.outputs)))
    lines.append(f"transitions {aut.transition_count}")
    for s in range(aut.n_states):
        for e in range(aut.indptr[s], aut.indptr[s + 1]):
            digits = letter_digits(int(aut.letters[e]), aut.arity, aut.dmax)
            lines.append(f"{s} [{','.join(str(d) for d in digits)}] {int(aut.targets[e])}")
    return "\n".join(lines).rstrip() + "\n"


class TestSerialization:
    def test_to_text_matches_per_edge_reference(self):
        rng = random.Random(717)
        fib = NumerationSystem("msd_fib", (1,))
        machines = [Automaton.empty(2, 1), Automaton.empty(0, 3),
                    Automaton.universal(0, 3), fibonacci_word(fib),
                    canonical_recognizer(NumerationSystem("msd_s13", (1, 3)), 2)]
        for trial in range(24):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            machines.append(as_pair(random_machine(rng, arity, dmax, n_max=9),
                                    arity, dmax)[1])
        for dmax in (1, 2):
            parts = [as_pair(random_machine(rng, 1, dmax), 1, dmax)[1]
                     for _ in range(2)]
            parts[1] = parts[1].andnot(parts[0])
            machines.append(_combine_outputs(parts, [5, -2]))
        assert any(m.outputs is not None for m in machines)
        for aut in machines:
            assert aut.to_text("msd_x") == to_text_per_edge(aut, "msd_x")
            assert aut.canonical_bytes() == to_text_per_edge(aut, "_").encode()

    def test_round_trip_random(self):
        rng = random.Random(616)
        for trial in range(20):
            arity, dmax = SHAPES[trial % len(SHAPES)]
            _, aut = as_pair(random_machine(rng, arity, dmax), arity, dmax)
            name, back = Automaton.from_text(aut.to_text("msd_x"))
            assert name == "msd_x"
            back.validate()
            assert back.to_text("msd_x") == aut.to_text("msd_x")
            assert equivalent(back, aut)

    @pytest.mark.parametrize("cut", [
        lambda lines: lines[:4],  # stops after the outputs line
        lambda lines: ["system msd_fib arity 1", *lines[1:]],
        lambda lines: [lines[0], "states 4", *lines[2:]],
    ], ids=["after-outputs", "short-system", "short-states"])
    def test_short_text_is_a_value_error(self, cut):
        text = fibonacci_word(NumerationSystem("msd_fib", (1,))).to_text("msd_fib")
        with pytest.raises(ValueError):
            Automaton.from_text("\n".join(cut(text.splitlines())))

    def test_arity0_text(self):
        t = Automaton.universal(0, 3)
        name, back = Automaton.from_text(t.to_text("msd_s"))
        assert back.arity == 0 and back.decide()

    def test_dot_smoke(self):
        a = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1), (1, 0, 1)])
        dot = a.to_dot("ex")
        assert "digraph" in dot and "doublecircle" in dot

    def test_walk_dead_end(self):
        a = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1)])
        assert a.walk([1, 1]) == -1
        assert not a.accepts_word([1, 1])
        assert a.accepts_word([1])


class TestDegenerate:
    def test_arity0_universe(self):
        t = Automaton.universal(0, 2)
        assert t.decide()
        assert t.accepts_word([])
        f = Automaton.empty(0, 2)
        assert not f.decide()
        assert t.andnot(f).decide()
        assert t.andnot(t).is_empty()

    def test_project_to_sentence(self):
        # one track, accepts anything nonempty starting 1: projecting the
        # only track leaves a true sentence
        a = Automaton.from_transitions(1, 1, 2, 0, [1], [(0, 1, 1), (1, 0, 1), (1, 1, 1)])
        s = a.project([0])
        assert s.arity == 0 and s.decide()
        assert Automaton.empty(1, 1).project([0]).decide() is False
