import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obd import NumerationSystem
from obd.numeration import BLOCK_CAP, LONE
from oracles import all_canonical, digits_value, floor_surd, greedy_digits, rules_ok

periods = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4).map(tuple)
# entries from BLOCK_CAP up leave a lone position with more digits than the cap
wide_periods = st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=4).map(tuple)


class TestEncodeDecode:
    def test_zero(self, system):
        assert system.encode(0) == (0,)
        assert system.decode((0,)) == 0
        assert system.decode((0, 0, 0)) == 0

    def test_negative_raises(self, system):
        with pytest.raises(ValueError):
            system.encode(-1)

    def test_encode_refuses_non_integers(self, system):
        for bad in (2.5, 12.0, "12", None):
            with pytest.raises(TypeError):
                system.encode(bad)

    def test_encode_numpy_int_gives_python_int_digits(self, system):
        for n in (np.int64(12), np.int32(0), np.uint8(200)):
            digits = system.encode(n)
            assert digits == system.encode(int(n))
            assert type(digits) is tuple and all(type(d) is int for d in digits)

    def test_round_trip_and_canonical(self, system):
        for n in range(3000):
            s = system.encode(n)
            assert system.decode(s) == n
            assert rules_ok(system.period, s)

    def test_matches_independent_greedy(self, system):
        for n in range(5001):
            assert system.encode(n) == greedy_digits(system.period, n)
        # up to 10**60 in mixed order: the system is shared by the whole
        # session, so its cached denominators grow between calls
        rng = random.Random(2402)
        big = [10 ** 60, 10 ** 60 - 1] + [
            rng.randrange(10 ** rng.randint(1, 60)) for _ in range(30)]
        rng.shuffle(big)
        for n in big:
            assert system.encode(n) == greedy_digits(system.period, n)
            assert system.decode(system.encode(n)) == n

    def test_digit_out_of_range_raises(self, system):
        with pytest.raises(ValueError):
            system.decode((system.dmax + 1,))

    def test_decode_accepts_non_canonical(self):
        fib = NumerationSystem("f", (1,))
        # 1 + 1 = q_1 + q_0, not canonical, still a value
        assert not rules_ok(fib.period, (1, 1))
        assert fib.decode((1, 1)) == 2

    @given(periods, st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random_systems(self, period, n):
        sys = NumerationSystem("t", period)
        s = sys.encode(n)
        assert sys.decode(s) == n
        assert rules_ok(period, s)
        assert s == greedy_digits(period, n)


def stored_tables(system):
    """Every digit pattern list and value list the system's encoder holds."""
    pattern_lists = [system._tables[0], *system._phase_tables]
    return [t for t in pattern_lists + [values for values, _ in system._blocks]
            if t is not None and t is not LONE]


class TestBlockEncode:
    """``encode`` reads the greedy digits a block of positions at a time,
    out of value tables memoised on the system; each case is checked
    against the digit-by-digit ``greedy_digits``."""

    def test_block_edges(self, system):
        # q_k - 1, q_k and q_k + 1 change the digit string around position
        # k, so k up to 300 meets every block edge of the first 300 positions
        for k in range(301):
            q = system.q(k)
            for n in (q - 1, q, q + 1):
                assert system.encode(n) == greedy_digits(system.period, n), n

    def test_large_values_on_fresh_tables(self, system):
        # a fresh system, whose tables grow as values of shuffled lengths arrive
        fresh = NumerationSystem(system.name, system.period)
        rng = random.Random(1985)
        ns = [rng.randrange(10 ** rng.randint(1, 60)) for _ in range(2000)]
        rng.shuffle(ns)
        for n in ns:
            assert fresh.encode(n) == greedy_digits(system.period, n), n
        tables = stored_tables(fresh)
        assert tables and all(len(t) <= BLOCK_CAP for t in tables)
        # value tables rise strictly: lexicographic order is numeric order
        for values, _ in fresh._blocks:
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_block_widths(self, systems):
        # the largest widths at which no phase has more than 64 patterns
        assert systems["msd_fib"]._width == 8
        assert systems["msd_s2"]._width == 4

    @given(wide_periods, st.integers(min_value=0, max_value=10**40))
    @settings(max_examples=150, deadline=None)
    def test_periods_across_the_cap(self, period, n):
        sys = NumerationSystem("t", period)
        assert sys.encode(n) == greedy_digits(period, n)
        assert all(len(t) <= BLOCK_CAP for t in stored_tables(sys))

    def test_huge_partial_quotient(self):
        # one position alone allows 10**6 + 1 digits: no table is built for
        # it, and its digit is read by divmod
        big = NumerationSystem("big", (10 ** 6,))
        assert big.encode(10 ** 30) == greedy_digits((10 ** 6,), 10 ** 30)
        assert big.decode(big.encode(10 ** 30)) == 10 ** 30
        assert stored_tables(big) == []


class TestCanonicity:
    def test_checker_agrees_with_rules(self, system):
        # a string keeps the rules iff it is the greedy encoding of its own
        # value, left-padded with zeros
        import itertools
        for length in (1, 2, 3, 4):
            for tup in itertools.product(range(system.dmax + 1), repeat=length):
                greedy = system.encode(system.decode(tup))
                padded = (0,) * (length - len(greedy)) + greedy
                assert (padded == tup) == rules_ok(system.period, tup), tup

    def test_leading_zeros_stay_canonical(self, system):
        for n in (0, 1, 17, 100):
            s = system.encode(n)
            assert rules_ok(system.period, (0, 0) + s)

    def test_saturated_digit_needs_zero_below(self):
        s13 = NumerationSystem("s", (3, 1))
        # position 1 allows a_2 = 1; digit 1 there forces position 0 to be 0
        assert rules_ok(s13.period, (1, 0))
        assert rules_ok(s13.period, (1, 0, 0))
        # position 2 allows a_3 = 3; saturating it forces position 1 to 0
        assert rules_ok(s13.period, (3, 0, 2))
        assert not rules_ok(s13.period, (3, 1, 0))

    def test_lsd_bound_is_strict(self, system):
        a1 = system.partial_quotient(1)
        assert rules_ok(system.period, (a1 - 1,)) or a1 == 1
        assert not rules_ok(system.period, (a1,))


class TestBijection:
    def test_fixed_length_strings_hit_initial_segment(self, system):
        # rule-respecting strings of length L, leading zeros included,
        # are exactly the values 0 .. q_L - 1
        for length in (1, 2, 3, 4, 5):
            strings = all_canonical(system.period, length)
            values = sorted(digits_value(system.period, s) for s in strings)
            assert len(strings) == system.q(length)
            assert values == list(range(system.q(length)))

    def test_length_lex_order_is_numeric_order(self, system):
        encs = [system.encode(n) for n in range(1500)]
        assert encs == sorted(encs, key=lambda t: (len(t), t))

    def test_equal_length_lex_order_is_numeric_order(self, system):
        # with leading-zero padding allowed, same-length canonical strings
        # compare numerically exactly as they compare lexicographically
        for length in (2, 3, 4, 5, 6):
            strings = all_canonical(system.period, length)
            by_lex = sorted(strings)
            values = [digits_value(system.period, s) for s in by_lex]
            assert values == sorted(values)
            assert values == list(range(len(values)))


class TestArithmeticHooks:
    def test_floor_gamma_matches_surd_oracle(self, system):
        g = system.gamma
        for n in range(0, 4000):
            assert system.floor_gamma(n) == floor_surd(g.a * n, g.b * n, g.c, g.d)

    def test_appending_zeros_is_the_shift_map(self, system):
        # value of (n-1 digits followed by m zeros) against the closed form
        m = system.period_length
        qm, qm1 = system.q(m), system.q(m - 1)
        for n in range(1, 2000):
            shifted = system.encode(n - 1) + (0,) * m
            assert system.decode(shifted) == qm * (n - 1) + qm1 * system.floor_gamma(n)

    def test_pad_parallel(self, system):
        a, b = system.encode(1), system.encode(200)
        pa, pb = system.pad_parallel(a, b)
        assert pb == b and pa == (0,) * (len(b) - len(a)) + a
        assert system.decode(pa) == 1 and system.decode(pb) == 200


class TestSystemBasics:
    def test_catalog_q_tables(self, systems):
        assert [systems["msd_s13"].q(i) for i in range(6)] == [1, 3, 4, 15, 19, 72]
        assert [systems["msd_s2"].q(i) for i in range(5)] == [1, 2, 5, 12, 29]
        assert [systems["msd_sqrt7"].q(i) for i in range(6)] == [1, 4, 5, 9, 14, 65]
        assert [systems["msd_fib"].q(i) for i in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_gamma_values(self, systems):
        from obd import QuadraticReal
        assert systems["msd_s13"].gamma.equals(QuadraticReal(-3, 1, 6, 21))
        assert systems["msd_s2"].gamma.equals(QuadraticReal(-1, 1, 1, 2))
        assert systems["msd_sqrt7"].gamma.equals(QuadraticReal(-2, 1, 3, 7))
        assert systems["msd_fib"].gamma.equals(QuadraticReal(-1, 1, 2, 5))

    def test_repr_mentions_name_and_period(self):
        s = NumerationSystem("msd_x", (2, 1))
        assert "msd_x" in repr(s) and "[2, 1]" in repr(s)
