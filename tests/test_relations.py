"""Relation builders against brute-force oracles.

Every synchronized relation built here is checked either exhaustively on a
value grid, against an independently computed closed form, or against the
same relation compiled as a formula of light atoms.  The state counts
asserted for msd_s13 are regression anchors for the two relations the whole
pipeline leans on.  The digests pin the floor synchronizers to the machines
the hand-wired builders made before they were rewritten as formulas,
compile-large's linear atoms to the machines built before each atom's pieces
were walked inside the canonical language, and msd_sqrt7's heavy atoms to
the machines composed from doublings and additions before every atom went
through the one linear builder.  The raw-piece bounds hold the linear
atoms' pair walk to the pruning of the value range of canonical suffixes
and to digit rules checked by each digit's position residue; the walk's
rows must meet the invariant the canonical form's rows entry trusts, give
what the array entry gives on the same piece and the machine the walk in
step with canon(k) gives, and keep exactly the canonical strings.
canon(1) is that walk's zero window, so canon(k) is checked against a
reference built apart from the walk's digit rows (the lsd-first
construction canon(1) once had), against ``rules_ok`` and by digest.
"""

import functools
import itertools
import operator
import random

import numpy as np
import pytest

from obd import Automaton, NumerationSystem, relations
from obd.automata import _Raw, csr_from_edges, determinized, edge_sources, letter_digits
from obd.beatty import BeattySpec, beatty_sync, floor_gamma_sync
from obd.logic import Environment, StoredPredicate, compile_formula
from obd.relations import (
    _DEAD,
    _DONE,
    _LIVE,
    _fate,
    _linear_piece,
    _never_falls,
    canonical_recognizer,
    inequality_relation,
    linear_relation,
    shift_relation,
)
from conftest import accepts_rows, assert_rows_invariant, equivalent, traced_peak
from oracles import (
    all_canonical,
    digits_value,
    floor_surd,
    parallel_digits,
    ref_linear_solutions,
    ref_window_solutions,
    rules_ok,
)


def formula(system, text, **stored):
    """Compile formula text over one system with the given stored relations."""
    env = Environment()
    env.add_system(system)
    for name, aut in stored.items():
        env.add_predicate(StoredPredicate(name, system.name, aut, "test"))
    return compile_formula(env, text)[0]


def exact_term(system, a, b, c, d, e, n):
    """floor(n*alpha + beta) via the surd oracle, not via the library."""
    g = system.gamma
    return floor_surd((a * n + d) * g.c + (b * n + e) * g.a,
                      (b * n + e) * g.b, c * g.c, g.d)


# periods of length 1 to 4, each digit bound saturated at some residue
RULE_SYSTEMS = {"msd_fib": (1,), "msd_s2": (2,), "msd_s13": (3, 1),
                "msd_s211": (2, 1, 1), "msd_sqrt7": (4, 1, 1, 1)}

# canon(k).sha()[:16] for k = 1, 2, 3, as built when canon(1) came from
# the lsd-first construction of reference_canon_1 rather than from the
# linear walk
CANON_SHA = {
    "msd_fib": ("428383ea0a2bd1ab", "3a748ab155ab4247", "f288a8933e6c7d6d"),
    "msd_s2": ("bc0ad221b5ec0ca7", "6e867175fd5d4e8d", "b8e620a6b213fcda"),
    "msd_s13": ("402cf3b0137bb6f6", "79bc92626c9436b6", "58ce7c03a5c2dc47"),
    "msd_s211": ("637d6386790de6e9", "711509f43ae684ac", "11718798367481a8"),
    "msd_sqrt7": ("45c81d250dd862a2", "9c9e586c0b10678c", "b22d690aac9bd445"),
}


@functools.cache
def reference_canon_1(period):
    """canon(1) built apart from the linear walk's digit rows: least
    significant digit first, where the rules are local (position mod m
    picks the digit bound, a saturated digit forces the previous one to
    zero), with its edges reversed into msd reading order and sent to one
    subset construction."""
    m, dmax = len(period), max(period)

    # state 0: nothing read yet (about to read the units digit); state
    # 1 + r*(dmax+1) + p: about to read position i with i % m == r, after
    # digit p
    def pos_state(r, p):
        return 1 + r * (dmax + 1) + p

    edges = [(0, d, pos_state(1 % m, d)) for d in range(period[0])]
    for r in range(m):
        for p in range(dmax + 1):
            for d in range(period[r] + 1):
                if d < period[r] or p == 0:
                    edges.append((pos_state(r, p), d, pos_state((r + 1) % m, d)))
    n_states = 1 + m * (dmax + 1)
    src, digits, dst = np.array(edges, np.int64).T
    acc = np.zeros(n_states, np.uint8)
    acc[0] = 1
    # every lsd state accepts, so the reversed machine starts in all of them
    return determinized(1, dmax, *csr_from_edges(n_states, dst, digits, src),
                        acc, np.arange(n_states))


@functools.cache
def reference_canon(period, arity):
    """canon(k) as k lifted copies of reference_canon_1, intersected."""
    one = reference_canon_1(period)
    out = one.lift(arity, [0])
    for track in range(1, arity):
        out = out.intersect(one.lift(arity, [track]))
    return out


def assert_strings_match_rules(aut, period, max_length):
    """The strings of each length up to `max_length` that the one-track
    `aut` accepts are exactly those ``rules_ok`` keeps.  One search over
    prefixes per length: a prefix that breaks the rules when zeros fill
    the rest of the length breaks them however it is filled, since a zero
    breaks no rule, so it must leave `aut` where no word of the remaining
    length is accepted."""
    # live[j]: the states that accept some word of exactly j letters
    live = [set(np.flatnonzero(aut.accepting).tolist())]
    src = edge_sources(aut.indptr).tolist()
    for _ in range(max_length):
        live.append({s for s, t in zip(src, aut.targets.tolist()) if t in live[-1]})
    for length in range(max_length + 1):
        stack = [()]
        while stack:
            prefix = stack.pop()
            rest = length - len(prefix)
            if not rules_ok(period, prefix + (0,) * rest):
                assert aut.walk(prefix) not in live[rest], (length, prefix)
            elif rest == 0:
                assert aut.accepts_word(prefix), prefix
            else:
                stack.extend(prefix + (d,) for d in range(aut.dmax + 1))


class TestCanonicalRecognizer:
    @pytest.mark.parametrize("sysname", RULE_SYSTEMS)
    def test_single_track_matches_rules(self, sysname):
        # a fresh system, so canon(1) is built here; strings of up to
        # 2m + 2 digits give every length residue at least twice
        period = RULE_SYSTEMS[sysname]
        canon = canonical_recognizer(NumerationSystem(sysname, period), 1)
        assert_strings_match_rules(canon, period, 2 * len(period) + 2)

    def test_pair_needs_both_tracks_canonical(self, system):
        canon2 = canonical_recognizer(system, 2)
        for length in range(0, 3):
            for a in itertools.product(range(system.dmax + 1), repeat=length):
                for b in itertools.product(range(system.dmax + 1), repeat=length):
                    want = rules_ok(system.period, a) and rules_ok(system.period, b)
                    assert accepts_rows(canon2, [a, b]) == want

    def test_arity_zero_is_universal(self, system):
        assert canonical_recognizer(system, 0).accepts_word([])

    def test_cached_per_system(self, system):
        assert canonical_recognizer(system, 2) is canonical_recognizer(system, 2)

    @pytest.mark.parametrize("sysname", ["msd_fib", "msd_s2", "msd_s13"])
    def test_equals_intersection_of_lifted_tracks(self, systems, sysname):
        # a fresh system, so every arity is built from the one below it
        system = NumerationSystem(sysname, systems[sysname].period)
        for arity in range(1, 6):
            assert canonical_recognizer(system, arity).canonical_bytes() == \
                reference_canon(system.period, arity).canonical_bytes(), arity

    @pytest.mark.parametrize("sysname", RULE_SYSTEMS)
    def test_pinned_digest(self, sysname):
        system = NumerationSystem(sysname, RULE_SYSTEMS[sysname])
        got = tuple(canonical_recognizer(system, k).sha()[:16] for k in (1, 2, 3))
        assert got == CANON_SHA[sysname]


LINEAR_SPECS = [
    ((1, 1, -1), 0),   # x + y = z
    ((1, -1), 0),      # x = y
    ((1, -2), 0),      # x = 2y
    ((3, 4, -1), 0),   # 3x + 4y = z
    ((1,), 5),         # x = 5
    ((2, -3), 4),      # 2x - 3y = 4
]


def light_chain(coefs, constant, op):
    """``sum(c_j * x_j) op constant`` as a formula of light atoms only.

    Each ``|c_j| * x_j`` is reached by doublings ``t=2*h`` and sums
    ``s=u+v`` over fresh variables, each quantified right around its uses;
    the positive terms sum to P, the negative ones to N, and the formula
    ends in ``P = N+k`` or ``P <= N+k``.  The free variables x0, x1, ...
    sort in track order.
    """
    names = iter(f"t{i}" for i in itertools.count())

    def scaled(x, c, out):
        if c <= 2:
            return f"{out}={c}*{x}"
        h = next(names)
        if c % 2:
            return f"E{h} ({scaled(x, c - 1, h)} & {out}={h}+{x})"
        return f"E{h} ({scaled(x, c // 2, h)} & {out}=2*{h})"

    def total(terms, out):
        (x, c), *rest = terms
        if not rest:
            return scaled(x, c, out)
        a, b = next(names), next(names)
        return (f"E{a} ({scaled(x, c, a)} & E{b} ({total(rest, b)} & "
                f"{out}={a}+{b}))")

    sides = []
    for sign in (1, -1):
        terms = [(f"x{j}", sign * c) for j, c in enumerate(coefs) if sign * c > 0]
        sides.append((next(names), terms) if terms else ("0", []))
    p, n = (var for var, _ in sides)
    final = (f"{p}{op}{n}+{constant}" if constant >= 0
             else f"{p}+{-constant}{op}{n}")
    for var, terms in sides:
        if terms:
            final = f"E{var} ({total(terms, var)} & {final})"
    return final


def assert_matches_light_chain(system, extra=()):
    """Each atom equals, byte for byte, its light-atom formula, in = and <=.

    The atom is one machine with coefficients of any weight; the formula
    reaches the same relation through atoms of weight at most 3 and the
    compiler's products and projections, so a prune that goes wrong at
    some weights shows.  Cases are seeded random light (coefficients,
    constant), weight * dmax <= 24, then ``extra``.
    """
    rng = random.Random(20240212)
    cases = []
    while len(cases) < 3:
        coefs = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 3)))
        if sum(map(abs, coefs)) * system.dmax <= 24:
            cases.append((coefs, rng.randint(-3, 3)))
    for coefs, constant in cases + list(extra):
        for op in ("=", "<="):
            text = f"?{system.name} " + light_chain(coefs, constant, op)
            chain = formula(system, text)
            assert atom(system, coefs, constant, op).canonical_bytes() == \
                chain.canonical_bytes(), (coefs, constant, op)


class TestLinearRelation:
    @pytest.mark.parametrize("coefs,constant", LINEAR_SPECS)
    def test_matches_bruteforce_grid(self, system, coefs, constant):
        rel = linear_relation(system, coefs, constant)
        bound = 25 if len(coefs) == 3 else 60
        want = ref_linear_solutions(system.period, coefs, constant, bound)
        got = {tup for tup in itertools.product(range(bound), repeat=len(coefs))
               if rel.accepts_values(tup, system)}
        assert got == want

    def test_empty_word_convention(self, system):
        # the empty word encodes the all-zero tuple
        assert linear_relation(system, (1, -1), 0).accepts_word([])
        assert not linear_relation(system, (1,), 3).accepts_word([])

    def test_rejects_empty_coefficients(self, system):
        with pytest.raises(ValueError):
            linear_relation(system, (), 0)

    def test_matches_light_chain(self, system):
        if system.name == "msd_sqrt7":
            pytest.skip("covered by test_matches_light_chain_sqrt7")
        assert_matches_light_chain(system, [((-1, 6), -3), ((3, 4, -1), 0)])

    def test_matches_light_chain_sqrt7(self, systems):
        assert_matches_light_chain(systems["msd_sqrt7"], [((-1, 6), -3)])

    def test_subtraction_is_transposition(self, systems):
        # x - y = 1 holds only when x >= 1 actually exceeds y; there is no
        # truncation at zero
        fib = systems["msd_fib"]
        rel = linear_relation(fib, (1, -1), 1)
        assert rel.accepts_values((3, 2), fib)
        assert not rel.accepts_values((0, 1), fib)
        assert not rel.accepts_values((2, 3), fib)


# odd and even period lengths: the trace of the period's matrix product is
# >= 1 for odd m and >= 3 for even m
LEMMA_PERIODS = [(1,), (2,), (3, 1), (1, 2), (2, 1, 1)]


def depth_values(system, r, s, t, d, constant, count):
    """g(k) = s*q_i + t*q_{i-1} + d*(q_i - 1) - constant at the depths
    i = r + k*m, k < count, from the convergents directly: the form the
    viability walk decides, d*(q_i - 1) bounding what canonical suffixes of
    length i add per unit of coefficient."""
    m = system.period_length
    q = system.q
    return [s * q(i) + t * q(i - 1) + d * (q(i) - 1) - constant
            for i in range(r, r + count * m, m)]


def canonical_values(system, length):
    """Values of the canonical strings of one length, by brute force."""
    return {digits_value(system.period, w)
            for w in all_canonical(system.period, length)}


@pytest.mark.parametrize("period", LEMMA_PERIODS, ids=str)
class TestExactViability:
    """The integer viability rule of the linear atoms, against brute force."""

    def test_canonical_strings_fill_0_to_q(self, period):
        # the range the walk bounds suffixes by: length i gives 0 .. q_i - 1
        system = NumerationSystem("lemma", period)
        for i in range(8):
            assert canonical_values(system, i) == set(range(system.q(i))), i

    def test_certified_trend_holds_for_40_more_depths(self, period):
        # whenever g(k), g(k+1), g(k+2) certify that g never falls (or, for
        # -g, never rises), the next 40 depths of that residue keep g(k) as
        # their minimum, so a certified sign of g(k) is kept too
        system = NumerationSystem("lemma", period)
        rng = random.Random(str(period))
        certified = 0
        for _ in range(150):
            r = rng.randrange(system.period_length)
            s, t = rng.randint(-60, 60), rng.randint(-60, 60)
            d, constant = rng.randint(-12, 12), rng.randint(-40, 400)
            g = depth_values(system, r, s, t, d, constant, 20 + 42)
            fired = False
            for k in range(20):
                for h in (g, [-x for x in g]):
                    if _never_falls(h[k], h[k + 1], h[k + 2]):
                        fired = True
                        certified += 1
                        assert min(h[k:k + 41]) == h[k], (s, t, d, constant, r, k)
            assert fired, (s, t, d, constant, r)  # every walk can stop
        assert certified > 150

    @pytest.mark.parametrize("mode", ["eq", "le", "window"])
    def test_verdict_matches_60_depths(self, period, mode):
        # the least and the greatest sum the suffixes can reach at each
        # depth: a window fits at a depth where they straddle it, and <=
        # fits where the least is at most hi and exceeds where the
        # greatest is above it
        system = NumerationSystem("lemma", period)
        rng = random.Random(f"{period} {mode}")
        seen = set()
        for _ in range(300):
            r = rng.randrange(system.period_length)
            s, t = rng.randint(-80, 80), rng.randint(-80, 80)
            d_min, d_max = rng.randint(-12, 0), rng.randint(0, 12)
            lo = rng.randint(-40, 400)
            hi = lo + (rng.randint(0, 40) if mode == "window" else 0)
            v_min = depth_values(system, r, s, t, d_min, 0, 60)
            v_max = depth_values(system, r, s, t, d_max, 0, 60)
            if mode == "le":
                lo = None
                exceed = any(b > hi for b in v_max)
                fit = any(a <= hi for a in v_min)
                want = _LIVE if exceed and fit else _DONE if not exceed else _DEAD
            else:
                fits = any(a <= hi and b >= lo for a, b in zip(v_min, v_max))
                want = _LIVE if fits else _DEAD
            got = _fate(system, r, s, t, lo, hi, d_min, d_max)
            assert got == want, (s, t, d_min, d_max, lo, hi, r)
            seen.add(got)
        assert seen == ({_LIVE, _DEAD, _DONE} if mode == "le" else {_LIVE, _DEAD})

    @pytest.mark.parametrize("mode", ["eq", "le", "window"])
    def test_verdict_sound_on_canonical_suffixes(self, period, mode):
        # DEAD: no tuple of canonical suffixes, at any depth of the residue,
        # brings the sum into the window (or to at most hi for <=); DONE:
        # every tuple at every depth fits.  Depths up to q_i <= 60, 1-2
        # tracks.
        system = NumerationSystem("lemma", period)
        m = system.period_length
        values = []
        while system.q(len(values)) <= 60:
            values.append(sorted(canonical_values(system, len(values))))
        rng = random.Random(f"suffixes {period} {mode}")
        seen = []
        for _ in range(120):
            coefs = [rng.choice((-3, -2, -1, 1, 2, 3))
                     for _ in range(rng.randint(1, 2))]
            r = rng.randrange(m)
            s, t = rng.randint(-8, 8), rng.randint(-8, 8)
            lo = rng.randint(-30, 60)
            hi = lo + (rng.randint(0, 6) if mode == "window" else 0)
            if mode == "le":
                lo = None
            got = _fate(system, r, s, t, lo, hi,
                        sum(c for c in coefs if c < 0),
                        sum(c for c in coefs if c > 0))
            seen.append(got)
            for i in range(r, len(values), m):
                head = s * system.q(i) + t * system.q(i - 1)
                sums = {head + sum(map(operator.mul, coefs, tup)) for tup in
                        itertools.product(values[i], repeat=len(coefs))}
                hits = {g for g in sums if (lo is None or lo <= g) and g <= hi}
                if got == _DEAD:
                    assert not hits, (coefs, s, t, lo, hi, r, i)
                elif got == _DONE:
                    assert hits == sums, (coefs, s, t, lo, hi, r, i)
        assert seen.count(_DEAD) >= 10
        assert seen.count(_DONE) >= (10 if mode == "le" else 0)


# compile-large's atoms (s6's beattyg and beatty), a 3-track comparison
# with a nonzero constant among them, two more comparison operators, and
# s6's division z=(u+2*n+3)/2 as the one window atom it now compiles to,
# op "in" with the window (lo, hi) as its constant
ATOMS = [
    ((2, -2, -1), 3, "<="),
    ((-2, 2, 1), -2, "<="),
    ((-4, 1, -3), 0, "="),
    ((-1, 6), -3, "="),
    ((1, 1, -1), 2, "<"),
    ((1, 1, -1), -1, ">="),
    ((-2, 2, 1), (-3, -2), "in"),
]
# sha() over msd_s13 of the machines built by intersecting the union of
# the raw per-residue pieces with canon(k), and the window's as the
# intersection of its two <= halves above, the way divisions compiled
# before they became one atom.  The window is last, so the other ids keep
# their indices.
ATOM_SHA = {
    ((-4, 1, -3), 0, "="): "b22522a91c77fea95a310d6b75051723dcb7defe20cdcb364fb3a5c390a4c665",
    ((-2, 2, 1), -2, "<="): "ac8129678629b90f0a4327dfcc37ca33ed961619ae006bcda61384431923e01e",
    ((-1, 6), -3, "="): "de7515d4244e914eeabf79a9721fe0f657f5fdcc3f9b9ce59c80d36ef27559a2",
    ((2, -2, -1), 3, "<="): "d451c3053a0123f9d1ffa06b7d27b83a43211789e98d0dbf2b4f2fd94a219bf8",
    ((-2, 2, 1), (-3, -2), "in"): "1e2b7699ef5d61f13243dcc10edd813107e36472c3d4568604b119f90730d328",
}
# sha() over msd_sqrt7 of the atoms of weight * dmax > 24, as built when
# such atoms were composed from doublings and additions of lighter ones
SQRT7_ATOM_SHA = {
    ((-1, 6), -3, "="): "1b6d50a3e99089184cd04a3aed77861aedb24d930be436cfb046880b4b7d2e1a",
    ((3, 4, -1), 0, "="): "2366238c10f35f56b00ee64795f1011f359ec53e9241c06fcfbe2d04192f375c",
    ((-4, 1, -3), 0, "="): "6da33982e8cf516dbf3bd2a3a4d8a51ddad96a8a8960ddba205a4696b29b8e52",
}
SQRT7_HEAVY_SHA = "bb6a45d67a23b60bd4797dc9b46d1502ae8d53d7fa21859f4430a17ed8d482b6"
COMPARE = {"=": operator.eq, "<": operator.lt, "<=": operator.le, ">=": operator.ge,
           "in": lambda v, window: window[0] <= v <= window[1]}


def atom(system, coefs, constant, op):
    if op == "=":
        return linear_relation(system, coefs, constant)
    if op == "in":
        return linear_relation(system, coefs, *constant)
    return inequality_relation(system, coefs, constant, op)


def assert_atom_matches_arithmetic(system, coefs, constant, op, bound):
    """The atom lies inside canon(k) and agrees with Python on a grid."""
    rel = atom(system, coefs, constant, op)
    assert rel.andnot(canonical_recognizer(system, len(coefs))).is_empty()
    grid = list(itertools.product(range(bound), repeat=len(coefs)))
    if op == "=":
        want = ref_linear_solutions(system.period, coefs, constant, bound)
    else:
        want = {tup for tup in grid if COMPARE[op](
            sum(c * x for c, x in zip(coefs, tup)), constant)}
    got = {tup for tup in grid if rel.accepts_values(tup, system)}
    assert got == want


# constants around or past q_{3m+3} (13 on msd_fib, 1 653 on msd_s13 and
# 1 177 on msd_s211), which bounds a suffix of the first 3m + 4 depths, so
# the viability walk runs deep before it decides; msd_s13 has an even
# period length and msd_s211 one of 3
TAIL_SYSTEMS = {"msd_fib": (1,), "msd_s13": (3, 1), "msd_s211": (2, 1, 1)}
TAIL_ATOMS = [
    pytest.param("msd_fib", (1,), 100, "<=", 200, id="fib x<=100"),
    pytest.param("msd_fib", (1, -1), 60, "<=", 130, id="fib x-y<=60"),
    pytest.param("msd_fib", (1,), 100, "=", 200, id="fib x=100"),
    pytest.param("msd_fib", (1, 1), 300, "=", 310, id="fib x+y=300"),
    pytest.param("msd_s13", (1,), 3000, "=", 3200, id="s13 x=3000"),
    pytest.param("msd_s13", (1,), 1500, ">=", 1600, id="s13 x>=1500"),
    pytest.param("msd_s13", (2,), 2500, "<=", 1400, id="s13 2x<=2500"),
    pytest.param("msd_s13", (-1,), -1200, "<", 1300, id="s13 -x<-1200"),
    pytest.param("msd_s211", (1,), 2000, "=", 2100, id="s211 x=2000"),
    pytest.param("msd_s211", (3,), 5000, "<", 1800, id="s211 3x<5000"),
    pytest.param("msd_s211", (1,), 1700, ">=", 1800, id="s211 x>=1700"),
]


@pytest.mark.parametrize("sysname,coefs,constant,op,bound", TAIL_ATOMS)
def test_atoms_past_the_depth_table(sysname, coefs, constant, op, bound):
    system = NumerationSystem(sysname, TAIL_SYSTEMS[sysname])
    assert_atom_matches_arithmetic(system, coefs, constant, op, bound)


class TestMultiPeriodAtoms:
    @pytest.mark.parametrize("coefs,constant,op", ATOMS)
    def test_matches_arithmetic(self, system, coefs, constant, op):
        assert_atom_matches_arithmetic(system, coefs, constant, op,
                                       25 if len(coefs) == 3 else 60)

    @pytest.mark.parametrize("sysname", ["msd_s13", "msd_sqrt7"])
    @pytest.mark.parametrize("coefs,constant,op", ATOMS)
    def test_every_length_residue(self, systems, sysname, coefs, constant, op):
        # the atom is built for word lengths == 0 (mod m) and closed under
        # leading zeros, so read each tuple at every length residue
        system = systems[sysname]
        m = system.period_length
        rel = atom(system, coefs, constant, op)
        bound = 10 if len(coefs) == 3 else 30
        for tup in itertools.product(range(bound), repeat=len(coefs)):
            want = COMPARE[op](sum(c * x for c, x in zip(coefs, tup)), constant)
            rows = system.pad_parallel(*(system.encode(x) for x in tup))
            for extra in range(m + 1):
                padded = [(0,) * extra + row for row in rows]
                assert accepts_rows(rel, padded) == want, (tup, extra)

    @pytest.mark.parametrize("coefs,constant,op", list(ATOM_SHA))
    def test_pinned_digest(self, systems, coefs, constant, op):
        got = atom(systems["msd_s13"], coefs, constant, op).sha()
        assert got == ATOM_SHA[coefs, constant, op]

    @pytest.mark.parametrize("coefs,constant,op", sorted(SQRT7_ATOM_SHA))
    def test_pinned_digest_sqrt7(self, systems, coefs, constant, op):
        got = atom(systems["msd_sqrt7"], coefs, constant, op).sha()
        assert got == SQRT7_ATOM_SHA[coefs, constant, op]

    def test_pinned_digest_sqrt7_heavy(self, systems):
        # v=9*z+14*u, the atom inside floor_gamma_sync and s11's beatty7
        got = atom(systems["msd_sqrt7"], (9, 14, -1), 0, "=").sha()
        assert got == SQRT7_HEAVY_SHA


# (states, edges) of the raw piece each atom's pair walk returns, on a
# fresh system.  Suffixes of length i are bounded by the value range
# 0 .. q_i - 1 of canonical strings; bounded by
# dmax*(q_0+...+q_{i-1}) instead, the walk kept 4 720 / 24 884,
# 1 855 / 15 478, 1 855 / 16 259, 1 718 / 3 866 and 262 071 / 1 375 817.
# Walked in step with canon(k), whose states guess each digit's position
# residue that the pair's phase already fixes, it kept 1 064 / 5 062,
# 561 / 5 057, 449 / 4 103, 369 / 751 and 32 793 / 140 886.  The window
# of s6's division is one piece where its two <= halves, the two atoms
# above it, were 265 / 1 991 and 223 / 1 766.
# A change that loosens the prune fails here by name, with no timing.
RAW_PIECES = {
    ("msd_s13", (-4, 1, -3), 0, "="): (551, 2313),
    ("msd_s13", (2, -2, -1), 3, "<="): (265, 1991),
    ("msd_s13", (-2, 2, 1), -2, "<="): (223, 1766),
    ("msd_s13", (-1, 6), -3, "="): (207, 407),
    ("msd_sqrt7", (9, 14, -1), 0, "="): (9795, 39201),
    ("msd_s13", (-2, 2, 1), (-3, -2), "in"): (246, 1023),
}


@pytest.mark.parametrize("sysname,coefs,constant,op", list(RAW_PIECES),
                         ids=[f"{s} {c}{op}{k}" for s, c, k, op in RAW_PIECES])
def test_raw_piece_sizes(systems, monkeypatch, sysname, coefs, constant, op):
    system = NumerationSystem(sysname, systems[sysname].period)
    canonical_recognizer(system, len(coefs))  # so the atom's walk comes first
    raw = []
    linear_piece = relations._linear_piece

    def recorded(*args):
        indptr, rows, succ, acc = out = linear_piece(*args)
        raw.append((acc.size, int(indptr[-1])))
        return out
    monkeypatch.setattr(relations, "_linear_piece", recorded)
    atom(system, coefs, constant, op)
    states, edges = RAW_PIECES[sysname, coefs, constant, op]
    assert raw[0][0] <= states and raw[0][1] <= edges, raw[0]


# the rows the linear walk hands to _canonical, over systems of period
# length 1, 2 and 3: =, <= and window atoms of 1 to 3 coefficients, some
# negative, some zero, as (coefficients, lo, hi), lo None for <=
WALK_SYSTEMS = {"msd_fib": (1,), "msd_s2": (2,), "msd_s13": (3, 1),
                "msd_s211": (2, 1, 1)}
WALK_ATOMS = [((1,), 5, 5), ((2,), None, 7), ((1, -1), 0, 0),
              ((1, 0), None, 3), ((-2, 3), None, 1), ((1, 2, -1), 0, 0),
              ((0, 1, -3), None, -2), ((2, -1, 0), 4, 4), ((1, -2), -1, 2),
              ((-2, 2, 1), -3, -2)]


def window_label(coefs, lo, hi):
    if lo is None:
        return f"{coefs}<={hi}"
    return f"{coefs}={hi}" if lo == hi else f"{lo}<={coefs}<={hi}"


WALK_CASES = [pytest.param(sysname, coefs, lo, hi,
                           id=f"{sysname} {window_label(coefs, lo, hi)}")
              for sysname in WALK_SYSTEMS for coefs, lo, hi in WALK_ATOMS]


@functools.cache
def walk_system(sysname):
    return NumerationSystem(sysname, WALK_SYSTEMS[sysname])


def canonical_by_arrays(arity, dmax, indptr, rows, succ, acc):
    """The route the raw piece once took: its edges as flat arrays,
    through csr_from_edges and Automaton, then ``K.canonical``, which
    trims first."""
    src = np.repeat(np.arange(acc.size, dtype=np.int64), np.diff(indptr))
    letters = np.fromiter(itertools.chain.from_iterable(rows), np.int32, indptr[-1])
    targets = np.fromiter(itertools.chain.from_iterable(succ), np.int32, indptr[-1])
    return Automaton(arity, dmax, *csr_from_edges(acc.size, src, letters, targets),
                     acc, 0)._canonical()


@pytest.mark.parametrize("sysname,coefs,lo,hi", WALK_CASES)
def test_linear_piece_meets_rows_invariant(sysname, coefs, lo, hi):
    assert_rows_invariant(*_linear_piece(walk_system(sysname), coefs, lo, hi))


@pytest.mark.parametrize("sysname,coefs,lo,hi", WALK_CASES)
def test_linear_piece_rows_and_arrays_agree(sysname, coefs, lo, hi):
    system = walk_system(sysname)
    piece = _linear_piece(system, coefs, lo, hi)
    want = canonical_by_arrays(len(coefs), system.dmax, *piece)
    # the rows entry takes the lists over, so it runs second
    got = _Raw(len(coefs), system.dmax, *piece)._canonical()
    assert got.canonical_bytes() == want.canonical_bytes()


def canon_walk_piece(system, coefficients, lo, hi):
    """The raw phase-0 piece as the linear walk once built it, in step
    with canon(k), here the reference_canon built apart from the walk's
    digit rows: a state is a pair and a canon(k) state, only the letters
    of the canon state's row are followed, and a state accepts when its
    pair lands in the window (at most hi when lo is None) at phase 0 and
    its canon state accepts.  Rows as ``_linear_piece`` gives them."""
    arity, m, period = len(coefficients), system.period_length, system.period
    c_min = sum(c for c in coefficients if c < 0)
    c_max = sum(c for c in coefficients if c > 0)
    canon = reference_canon(system.period, arity)
    indptr, letters = canon.indptr.tolist(), canon.letters.tolist()
    targets = canon.targets.tolist()

    @functools.cache
    def step(pair, code):  # the successor pair; None when it is dead
        phase, s, t = pair
        nphase = (phase - 1) % m
        if s is None:  # the decided-true pair
            return nphase, None, None
        digits = letter_digits(code, arity, system.dmax)
        nxt = (nphase, s * period[nphase] + t
               + sum(map(operator.mul, coefficients, digits)), s)
        fate = _fate(system, *nxt, lo, hi, c_min, c_max)
        return {_LIVE: nxt, _DONE: (nphase, None, None)}.get(fate)

    order = [((0, 0, 0), canon.initial)]
    index = {order[0]: 0}
    rows, succ = [], []
    for pair, c in order:  # the loop visits states appended while it runs
        row, out = [], []
        for code, ct in zip(letters[indptr[c]:indptr[c + 1]],
                            targets[indptr[c]:indptr[c + 1]]):
            nxt = step(pair, code)
            if nxt is not None:
                target = index.setdefault((nxt, ct), len(order))
                if target == len(order):
                    order.append((nxt, ct))
                row.append(code)
                out.append(target)
        rows.append(tuple(row))
        succ.append(out)
    acc = np.array([phase == 0 and (s is None or (lo is None or lo <= s) and s <= hi)
                    and canon.accepting[c] for (phase, s, _t), c in order], np.uint8)
    return np.array([0, *itertools.accumulate(map(len, rows))], np.int64), rows, succ, acc


def assert_walks_agree(system, coefs, lo, hi):
    """The residue walk's raw piece and the canon(k) walk's have one
    canonical form."""
    want = _Raw(len(coefs), system.dmax,
                *canon_walk_piece(system, coefs, lo, hi))._canonical()
    got = _Raw(len(coefs), system.dmax,
               *_linear_piece(system, coefs, lo, hi))._canonical()
    assert got.canonical_bytes() == want.canonical_bytes()


@pytest.mark.parametrize("sysname,coefs,lo,hi", WALK_CASES)
def test_linear_piece_matches_canon_walk(sysname, coefs, lo, hi):
    assert_walks_agree(walk_system(sysname), coefs, lo, hi)


@pytest.mark.parametrize("coefs,constant,op", sorted(SQRT7_ATOM_SHA))
def test_linear_piece_matches_canon_walk_sqrt7(systems, coefs, constant, op):
    # period length 4
    assert_walks_agree(systems["msd_sqrt7"], coefs,
                       None if op == "<=" else constant, constant)


# strings of up to 6 digits give every length residue
RULE_PERIODS = list(RULE_SYSTEMS.values())


@pytest.mark.parametrize("arity,length", [(1, 6), (2, 3)])
@pytest.mark.parametrize("period", RULE_PERIODS, ids=str)
def test_walk_keeps_exactly_the_canonical_strings(period, arity, length):
    """With a constant above every sum of values of `length` digits,
    ``x <= C`` (``x + y <= C``) holds for every tuple of that length, so
    the atom accepts exactly the tuples of canonical strings: what the
    walk's own digit rules let through, against ``rules_ok``."""
    system = NumerationSystem("rules", period)
    rel = inequality_relation(system, (1,) * arity, arity * (system.q(length) - 1), "<=")
    for n in range(length + 1):
        strings = list(itertools.product(range(system.dmax + 1), repeat=n))
        for tracks in itertools.product(strings, repeat=arity):
            want = all(rules_ok(period, w) for w in tracks)
            assert accepts_rows(rel, tracks) == want, tracks


# window atoms lo <= sum <= hi, seeded: each width 0 to 4 with 1, 2 and
# 3 coefficients, over period lengths 1 to 4
WINDOW_SYSTEMS = {"msd_fib": (1,), "msd_s2": (2,), "msd_s13": (3, 1),
                  "msd_s211": (2, 1, 1), "msd_sqrt7": (4, 1, 1, 1)}


def window_cases():
    rng = random.Random("windows")
    cases = []
    for sysname in WINDOW_SYSTEMS:
        for width in range(5):
            for arity in (1, 2, 3):
                coefs = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(arity))
                lo = rng.randint(-6, 6)
                label = window_label(coefs, lo, lo + width)
                cases.append(pytest.param(sysname, coefs, lo, lo + width,
                                          id=f"{sysname} {label}"))
    return cases


@functools.cache
def window_system(sysname):
    return NumerationSystem(sysname, WINDOW_SYSTEMS[sysname])


@pytest.mark.parametrize("sysname,coefs,lo,hi", window_cases())
class TestWindowAtom:
    """``linear_relation(system, coefs, lo, hi)``, one walk for the
    window, against exact arithmetic and the atoms it stands for."""

    def test_matches_arithmetic(self, sysname, coefs, lo, hi):
        # read on the oracle's greedy encodings at every length residue
        system = window_system(sysname)
        period = WINDOW_SYSTEMS[sysname]
        rel = linear_relation(system, coefs, lo, hi)
        assert rel.andnot(canonical_recognizer(system, len(coefs))).is_empty()
        bound = 10 if len(coefs) == 3 else 30
        want = ref_window_solutions(coefs, lo, hi, bound)
        for tup in itertools.product(range(bound), repeat=len(coefs)):
            for extra in range(len(period)):
                rows = parallel_digits(period, tup, extra)
                assert accepts_rows(rel, rows) == (tup in want), (tup, extra)

    def test_is_intersection_of_its_halves(self, sysname, coefs, lo, hi):
        system = window_system(sysname)
        halves = inequality_relation(system, coefs, hi, "<=").intersect(
            inequality_relation(system, coefs, lo, ">="))
        assert linear_relation(system, coefs, lo, hi).canonical_bytes() == \
            halves.canonical_bytes()

    def test_is_union_of_its_points(self, sysname, coefs, lo, hi):
        # width 0 is the == atom of linear_relation without an upper bound
        system = window_system(sysname)
        points = functools.reduce(Automaton.union, (
            linear_relation(system, coefs, c) for c in range(lo, hi + 1)))
        assert linear_relation(system, coefs, lo, hi).canonical_bytes() == \
            points.canonical_bytes()


# Peak traced allocation, in bytes, while x=40*y builds over msd_fib with
# canon(2) already built: 3 305 states.  The ceiling is the peak of the
# path this one replaced, measured with Python 3.11 and numpy 2.4 (3.38 MB
# when nothing else has run in the process), where the walk appended
# every edge to flat arrays and the canonical form converted them back
# to lists and trimmed them.  The rows hand-off reads 1.69 MB (1.85 MB
# when nothing else has run).
LINEAR_PEAK_BYTES = 3.16e6


def test_linear_atom_memory():
    system = NumerationSystem("msd_fib", (1,))
    canonical_recognizer(system, 2)
    peak, out = traced_peak(linear_relation, system, (1, -40), 0)
    assert out.n_states == 3305
    assert peak <= LINEAR_PEAK_BYTES


# Peak traced allocation, in bytes, while compile-large's largest atom,
# (-4, 1, -3) = 0, builds over a fresh [3 1] system, after a smaller atom
# over another system has built what any atom builds first in a process.
# The ceiling is the peak of the walk in step with canon(3), measured
# with Python 3.11 and numpy 2.4, where canon(3) was built inside the
# atom; the residue walk, whose letter rows are built as states reach
# them, reads 0.39 MB (in the suite the two read 0.44 and 0.27 MB).
PERIOD_TWO_PEAK_BYTES = 4.81e5


def test_period_two_atom_memory():
    linear_relation(NumerationSystem("warm-up", (3, 1)), (1, 1, -1), 0)
    system = NumerationSystem("msd_s13", (3, 1))
    peak, out = traced_peak(linear_relation, system, (-4, 1, -3), 0)
    assert out.n_states == 459
    assert peak <= PERIOD_TWO_PEAK_BYTES


def lt_relation(system):
    return inequality_relation(system, (1, -1), 0, "<")


class TestComparisons:
    """Two-variable comparisons as the compiler builds them."""

    def test_trichotomy_on_grid(self, system):
        lt = lt_relation(system)
        eq = linear_relation(system, (1, -1), 0)
        gt = inequality_relation(system, (1, -1), 0, ">")
        for x in range(30):
            for y in range(30):
                flags = (lt.accepts_values((x, y), system),
                         eq.accepts_values((x, y), system),
                         gt.accepts_values((x, y), system))
                assert flags == (x < y, x == y, x > y)

    def test_non_strict_and_ne(self, system):
        le = inequality_relation(system, (1, -1), 0, "<=")
        ge = inequality_relation(system, (1, -1), 0, ">=")
        ne = formula(system, "x!=y")
        for x in range(18):
            for y in range(18):
                assert le.accepts_values((x, y), system) == (x <= y)
                assert ge.accepts_values((x, y), system) == (x >= y)
                assert ne.accepts_values((x, y), system) == (x != y)

    def test_lexicographic_equals_slack_definition(self, system):
        # x < y is also "exists w: x + w + 1 = y"; the native comparison
        # machine and the slack projection must produce the same automaton
        lex = lt_relation(system)
        slack = linear_relation(system, (1, -1, 1), -1).project([2])
        assert equivalent(lex, slack)

    def test_order_relations_bundle(self, system):
        leq = inequality_relation(system, (1, -1), 0, "<=")
        eq = linear_relation(system, (1, -1), 0)
        assert equivalent(leq, lt_relation(system).union(eq))

    def test_unknown_op_rejected(self, system):
        for op in ("<>", "le"):
            with pytest.raises(ValueError):
                inequality_relation(system, (1, -1), 0, op)


class TestInequalityAndTrackHelpers:
    def test_inequality_against_grid(self, systems):
        fib = systems["msd_fib"]
        for op, py in (("<", int.__lt__), ("<=", int.__le__),
                       (">", int.__gt__), (">=", int.__ge__)):
            rel = inequality_relation(fib, (1,), 4, op)
            for n in range(12):
                assert rel.accepts_values((n,), fib) == py(n, 4), (op, n)

    def test_two_variable_inequality(self, systems):
        s2 = systems["msd_s2"]
        rel = inequality_relation(s2, (2, -1), 3, "<=")  # 2x - y <= 3
        for x in range(15):
            for y in range(15):
                assert rel.accepts_values((x, y), s2) == (2 * x - y <= 3)

    def test_track_helpers(self, system):
        fix = formula(system, "x=7 & y>=0")
        below = formula(system, "x>=0 & y<3")
        for x in range(10):
            for y in range(10):
                assert fix.accepts_values((x, y), system) == (x == 7)
                assert below.accepts_values((x, y), system) == (y < 3)


class TestShiftRelation:
    def test_window_pairs(self, system):
        m = system.period_length
        sh = shift_relation(system)
        for u in range(0, 40):
            w = system.encode(u)
            rows = [(0,) * m + w, w + (0,) * m]
            assert accepts_rows(sh, rows)
        # a pair that is not a clean window shift
        bad = [(1,) + (0,) * m, (0,) * m + (1,)]
        assert not accepts_rows(sh, bad)

    def test_shifted_value_identity(self, system):
        # through the canonical filter, the pair (u, v) satisfies
        # v = q_m*u + q_{m-1}*floor((u+1)*gamma)
        m = system.period_length
        qm, qm1 = system.q(m), system.q(m - 1)
        rel = shift_relation(system).intersect(canonical_recognizer(system, 2))
        for u in range(0, 60):
            v = qm * u + qm1 * system.floor_gamma(u + 1)
            assert rel.accepts_values((u, v), system)
            assert not rel.accepts_values((u, v + 1), system)


# sha() of the machines the hand-wired builders made; msd_sqrt7's v=9*z+14*u
# atom dominates its build (about 4 s)
FLOOR_GAMMA_SHA = {
    "msd_fib": "dd3492ad4fc4b90e77deef6fb672d558dd068ab74a24f41e10688fdfa1095b69",
    "msd_s13": "35cd62b303161dbfc25ce792923e6dde44c8ea28f6eccac4e05061017c1dfe67",
    "msd_s2": "8d2aaffdb3e1d063104140f0134bfb1bd6772058b7115728c16031ab22b26989",
    "msd_sqrt7": "3ec4a1447d2054b302b092718f1f943e45087b9516e4653f7ed4e2b38ab8a00b",
}
BEATTY_SHA = {
    ("msd_s13", (2, 6, 2, 3, 3)): "cf5f2ed65c38cd23c3a9b724b794a984d60380ca4c0fc93ef507e9f0aca867a4",
    ("msd_s13", (0, 6, 1, 3, -13)): "39afd074c878488b004bf87e7a2ab8ab82147cb1ccf04fec2f69854ad195fb8a",
    ("msd_s2", (1, 1, 1, 0, 0)): "bad8ea9543d81e51b4c079cd7ce0a93f8fabc9febb783dc261cadd54f625a99a",
    ("msd_s2", (2, 1, 1, 0, 0)): "2b16e237c299438d7a54a72a3a667a896afdaaadfe2cf58ab5e18e6e55fd85f0",
    ("msd_s2", (-1, 3, 2, 1, 0)): "938e32541d0b282b10d3f101dc774d516fb9a5b80840b63390c1bc8e0b5b7bd6",
    ("msd_fib", (3, 0, 2, 1, 0)): "0c3760744ee8ab44cb5de9411dac6ed4c279963b728ac3df72c0211f1b78739d",
    ("msd_fib", (1, 0, 1, 0, 5)): "a62b784f52736c0d80eaf5e13286e8d6e93629ad4872e294c7193d7de5f42205",
    ("msd_fib", (2, 2, 2, 0, -3)): "281eed834d292e302d60a3fcb771eacc650f4715c036a1737b23a856f2129729",
    ("msd_fib", (1, 1, 1, 0, 0)): "bc39f4ce86ae1e9028e2e8fa01f01f41b8438da52d282c2648c7dfb2190b8c65",
    ("msd_fib", (0, 1, 1, 0, 0)): "5cf3659aa0dc62251d12d7e54d1712519b90dc8985858d4e6d4dcfcfd04df386",
    ("msd_fib", (1, 1, 2, 1, 1)): "e0a8fbd92d1a39cbe381791c6ee8cf8c9dcbb0d5de3fb6ec991dbeee4e29a2c5",
}


class TestFloorGammaSync:
    def test_pinned_digest(self, system):
        assert floor_gamma_sync(system).sha() == FLOOR_GAMMA_SHA[system.name]

    def test_matches_surd_oracle(self, system):
        fg = floor_gamma_sync(system)
        g = system.gamma
        for n in range(1200):
            assert fg.function_value(system, n) == floor_surd(
                g.a * n, g.b * n, g.c, g.d)

    def test_zero_pair_and_rejections(self, systems):
        fib = systems["msd_fib"]
        fg = floor_gamma_sync(fib)
        assert fg.accepts_values((0, 0), fib)
        assert not fg.accepts_values((0, 1), fib)
        assert not fg.accepts_values((5, 4), fib)  # floor(5*gamma) = 3

    def test_s13_anchor_pair_and_state_count(self, systems):
        s13 = systems["msd_s13"]
        fg = floor_gamma_sync(s13)
        # floor(5*gamma) for gamma = (sqrt(21)-3)/6 is 1
        assert fg.accepts_values((5, 1), s13)
        assert fg.live_states == 32


class TestBeattySync:
    @pytest.mark.parametrize("sysname,abcde", sorted(BEATTY_SHA))
    def test_pinned_digest(self, systems, sysname, abcde):
        system = systems[sysname]
        spec = BeattySpec(*abcde)
        b = beatty_sync(system, spec)
        assert b.sha() == BEATTY_SHA[sysname, abcde]
        for n in range(1, 60):
            assert b.function_value(system, n) == exact_term(system, *abcde, n)

    def test_s13_flagship_spec(self, systems):
        s13 = systems["msd_s13"]
        spec = BeattySpec(2, 6, 2, 3, 3)
        b = beatty_sync(s13, spec)
        assert b.live_states == 59
        assert [b.function_value(s13, n) for n in range(1, 6)] == [3, 5, 7, 9, 10]
        for n in range(1, 400):
            assert b.function_value(s13, n) == exact_term(s13, 2, 6, 2, 3, 3, n)
        # n = 0 stays outside the relation
        assert not any(b.accepts_values((0, z), s13) for z in range(5))

    @pytest.mark.parametrize("abcde,fixture", [
        # n + floor(n*(sqrt(2)-1)) = floor(n*sqrt(2))
        ((1, 1, 1, 0, 0),
         [0, 1, 2, 4, 5, 7, 8, 9, 11, 12, 14, 15, 16, 18, 19, 21, 22]),
        # 2n + floor(n*(sqrt(2)-1)) = floor(n*(1+sqrt(2)))
        ((2, 1, 1, 0, 0),
         [0, 2, 4, 7, 9, 12, 14, 16, 19, 21, 24, 26, 28, 31, 33, 36, 38]),
    ])
    def test_sqrt2_sequences(self, systems, abcde, fixture):
        s2 = systems["msd_s2"]
        b = beatty_sync(s2, BeattySpec(*abcde))
        for n in range(1, len(fixture)):
            assert b.function_value(s2, n) == fixture[n]

    def test_rational_slope_path(self, systems):
        fib = systems["msd_fib"]
        b = beatty_sync(fib, BeattySpec(3, 0, 2, 1, 0))  # floor((3n+1)/2)
        for n in range(1, 80):
            assert b.function_value(fib, n) == (3 * n + 1) // 2
        assert not b.accepts_values((0, 0), fib)

    def test_rational_slope_with_irrational_offset(self, systems):
        fib = systems["msd_fib"]
        b = beatty_sync(fib, BeattySpec(1, 0, 1, 0, 5))  # n + floor(5*gamma)
        for n in range(1, 60):
            assert b.function_value(fib, n) == n + 3

    def test_negative_offset_needs_patched_start(self, systems):
        # b*n + e < 0 at n = 1, so the first pair is glued on explicitly
        fib = systems["msd_fib"]
        spec = BeattySpec(2, 2, 2, 0, -3)
        b = beatty_sync(fib, spec)
        for n in range(1, 80):
            assert b.function_value(fib, n) == exact_term(fib, 2, 2, 2, 0, -3, n)

    def test_validation_rejects_bad_specs(self, systems):
        fib = systems["msd_fib"]
        with pytest.raises(ValueError):
            beatty_sync(fib, BeattySpec(1, 1, 0, 0, 0))   # c = 0
        with pytest.raises(ValueError):
            beatty_sync(fib, BeattySpec(1, -1, 1, 0, 0))  # b < 0
        with pytest.raises(ValueError):
            beatty_sync(fib, BeattySpec(-1, 0, 1, 0, 0))  # alpha < 0
        with pytest.raises(ValueError):
            beatty_sync(fib, BeattySpec(1, 0, 1, -5, 0))  # alpha + beta < 0

    def test_exact_term_helper_agrees(self, systems):
        s13 = systems["msd_s13"]
        spec = BeattySpec(2, 6, 2, 3, 3)
        for n in range(50):
            assert spec.term(s13, n) == exact_term(s13, 2, 6, 2, 3, 3, n)


class TestAffineCompose:
    """``floor((f(b*n+e) + a*n + d)/c)`` as a formula over a stored f."""

    def test_identity_composition(self, systems):
        fib = systems["msd_fib"]
        fg = floor_gamma_sync(fib)
        assert equivalent(formula(fib, "Et,w t=n & $fg(t,w) & z=w", fg=fg), fg)

    def test_golden_ratio_floor(self, systems):
        # floor(n*gamma) + n = floor(n*phi) for gamma = phi - 1
        fib = systems["msd_fib"]
        h = formula(fib, "Et,w t=n & $fg(t,w) & z=w+n", fg=floor_gamma_sync(fib))
        assert h.function_value(fib, 4) == 6
        for n in range(150):
            assert h.function_value(fib, n) == exact_term(fib, 1, 1, 1, 0, 0, n)

    def test_halved_composition(self, systems):
        fib = systems["msd_fib"]
        h = formula(fib, "Et,w t=2*n & $fg(t,w) & z=(w+1)/2",
                    fg=floor_gamma_sync(fib))
        for n in range(100):
            want = (floor_surd(-2 * n, 2 * n, 2, 5) + 1) // 2
            assert h.function_value(fib, n) == want

    def test_domain_validation(self, systems):
        fib = systems["msd_fib"]
        fg = floor_gamma_sync(fib)
        with pytest.raises(ValueError, match="positive constant"):
            formula(fib, "Et,w t=n & $fg(t,w) & z=w/0", fg=fg)
        with pytest.raises(ValueError, match="takes 1 arguments, got 2"):
            formula(fib, "Et,w t=n & $f(t,w) & z=w",
                    f=canonical_recognizer(fib, 1))
        # the domain is inherited: b*n + e must be a natural number
        h = formula(fib, "Et,w t=0-n & $fg(t,w) & z=w", fg=fg)
        assert h.enumerate_values(fib, 5) == [(0, 0)]


class TestPermuteTracks:
    def test_swap_matches_reversed_grid(self, systems):
        s2 = systems["msd_s2"]
        swapped = lt_relation(s2).permute_tracks([1, 0])
        for x in range(15):
            for y in range(15):
                assert swapped.accepts_values((x, y), s2) == (y < x)

    def test_involution(self, system):
        lt = lt_relation(system)
        assert lt.permute_tracks([1, 0]).permute_tracks([1, 0]) \
            .canonical_bytes() == lt.canonical_bytes()

    def test_cycle_on_three_tracks(self, systems):
        fib = systems["msd_fib"]
        add = linear_relation(fib, (1, 1, -1), 0)  # x + y = z
        # old tracks (x, y, z) land at positions (2, 0, 1): tuples (y, z, x)
        cycled = add.permute_tracks([2, 0, 1])
        for x in range(10):
            for y in range(10):
                assert cycled.accepts_values((y, x + y, x), fib)
        assert not cycled.accepts_values((2, 3, 2), fib)

    def test_bad_permutation_rejected(self, system):
        with pytest.raises(ValueError):
            lt_relation(system).permute_tracks([0, 0])
